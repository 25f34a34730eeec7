"""Quadrature toolkit: graded composite Gauss rules and principal-value cores.

Everything here works on [0, 1].  The integrands this package meets are
analytic inside the interval but carry algebraic singularities (powers
x^a with -1 < a < 1) or bounded log-oscillations at the endpoints, so the
workhorse rule is a composite Gauss-Legendre rule on panels that shrink
geometrically toward 0 and 1.  On each panel the integrand is analytic and
the rule converges geometrically; the leftover sliver at the ends is
O(2^(-levels * (1 + a))) and negligible for the level counts used.

Principal-value integrals are reduced to ordinary ones by singularity
subtraction.  After subtracting the value at the singular point, the
integrand has a removable singularity (it is analytic across it), so the
same panel rule applies unchanged and no panel needs to be aligned with
the singular point.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def _panel_rule(breaks, order: int):
    """Gauss-Legendre (Jacobi 0, 0) rule of `order` nodes on each panel."""
    gx, gw = _gauss_jacobi_cached(order, 0.0, 0.0)
    h = np.diff(breaks)
    x = (breaks[:-1, None] + 0.5 * h[:, None] * (gx[None, :] + 1.0)).ravel()
    return x, (0.5 * h[:, None] * gw[None, :]).ravel()


def graded_rule(nodes: int = 512, levels: int = 12):
    """Composite Gauss-Legendre rule on [0, 1] graded toward both endpoints.

    Panels: [0, 2^-levels], [2^-levels, 2^-(levels-1)], ..., [1/4, 1/2] and
    their mirror images.  `nodes` is the total node budget; the per-panel
    order is nodes // (2 * levels), at least 4.

    Returns (x, w) as flat arrays.
    """
    check_nodes(nodes)
    return _graded_rule_cached(int(nodes), int(levels))


def check_nodes(nodes: int) -> None:
    """The one node-budget check of the public entry points."""
    if nodes < 16:
        raise ValueError("need at least 16 nodes")


@lru_cache(maxsize=32)
def _graded_rule_cached(nodes: int, levels: int):
    breaks = [0.0] + [2.0 ** (-k) for k in range(levels, 0, -1)]
    breaks += [1.0 - 2.0 ** (-k) for k in range(2, levels + 1)] + [1.0]
    breaks = np.array(breaks)
    # even order: a Gauss-Legendre rule of even order has no node at the
    # panel midpoint, so subtracted-singularity integrands evaluated at
    # panel-midpoint singular points never hit a node
    order = max(4, (nodes // (len(breaks) - 1)) & ~1)
    return _panel_rule(breaks, order)


def gauss_jacobi(n: int, alpha: float, beta: float):
    """Nodes and weights for int_{-1}^{1} (1-z)^alpha (1+z)^beta f(z) dz.

    The mirrored pair (beta, alpha) shares one cache entry: its rule is
    this one reflected, z -> -z, with nodes and weights in reverse order.
    The returned arrays are read-only views of the cache.
    """
    n, alpha, beta = int(n), float(alpha), float(beta)
    if alpha >= beta:
        return _gauss_jacobi_cached(n, alpha, beta)
    z, w = _gauss_jacobi_cached(n, beta, alpha)
    return -z[::-1], w[::-1]


@lru_cache(maxsize=64)
def _gauss_jacobi_cached(n, alpha, beta):
    """Golub-Welsch nodes, one Newton step, weights from the derivative.

    The eigenvalues of the symmetric Jacobi matrix are accurate to about
    eps in absolute terms, which is poor relative to the distance of the
    outermost nodes from the endpoints (~1/n^2).  The Newton step on the
    three-term recurrence is therefore taken in u = z + sig, where
    sig = +-1 makes |u| the distance to the nearer endpoint and the
    recurrence factor z - a_k is formed as u - (sig + a_k).  Then both
    1 - z^2 = |u| (2 - |u|) and the weight formula
    w ~ 1 / ((1 - z^2) p_n'(z)^2) keep full relative precision where the
    weight function is singular; the formula with p_(n-1) in place of one
    p_n' factor does not, because p_(n-1) nearly vanishes at the outermost
    nodes (Golub & Welsch, Math. Comp. 1969; Hale & Townsend, SISC 2013).
    The weights are normalised to the zeroth moment
    mu0 = 2^(alpha+beta+1) B(alpha+1, beta+1).
    """
    if n < 1:
        raise ValueError("need at least one node")
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError("Jacobi exponents must exceed -1")
    s = alpha + beta
    k = np.arange(1.0, n)
    # orthonormal recurrence z p_k = b_(k+1) p_(k+1) + a_k p_k + b_k p_(k-1)
    a = np.empty(n)
    a[0] = (beta - alpha) / (s + 2.0)
    a[1:] = (beta - alpha) * s / ((2.0 * k + s) * (2.0 * k + s + 2.0))
    b = np.zeros(n + 1)
    # at k = 1 the factors k + s and 2k + s - 1 are equal and cancel; the
    # general form is 0/0 when alpha + beta = -1
    b[1] = math.sqrt(4.0 * (1.0 + alpha) * (1.0 + beta)
                     / ((s + 2.0) ** 2 * (s + 3.0)))
    k = np.arange(2.0, n + 1.0)
    b[2:] = np.sqrt(4.0 * k * (k + alpha) * (k + beta) * (k + s)
                    / ((2.0 * k + s) ** 2 * (2.0 * k + s + 1.0)
                       * (2.0 * k + s - 1.0)))
    z = np.linalg.eigvalsh(np.diag(a) + np.diag(b[1:n], -1))

    sig = np.where(z <= 0.0, 1.0, -1.0)
    u = z + sig
    factors = u[None, :] - (sig[None, :] + a[:, None])  # row j: z - a_j
    bl = b.tolist()
    # rows p_j and p_j': a step adds p_j to p_j', then both recur alike
    prev, cur = np.zeros((2, n)), np.array([np.ones(n), np.zeros(n)])
    for j in range(n):
        nxt = factors[j] * cur
        nxt[1] += cur[0]
        nxt -= bl[j] * prev
        nxt /= bl[j + 1]
        prev, cur = cur, nxt
    p, dp = cur
    v = sig * u
    # p_n'' from the Jacobi differential equation carries p_n' to the
    # polished node; the step is ~1e-10 of |u| at most, so first order is
    # exact in double precision and a second pass is not needed
    d2p = -((beta - alpha - (s + 2.0) * z) * dp + n * (n + s + 1.0) * p) / (
        v * (2.0 - v))
    step = -p / dp
    u = u + step
    dp = dp + step * d2p
    v = sig * u
    w = 1.0 / (v * (2.0 - v) * dp * dp)
    mu0 = (2.0 ** (s + 1.0) * math.gamma(alpha + 1.0) * math.gamma(beta + 1.0)
           / math.gamma(s + 2.0))
    w *= mu0 / w.sum()
    z = u - sig
    if alpha == beta:
        # a symmetric weight gets an exactly symmetric rule, so that every
        # pair, self-mirrored ones included, obeys the reflection identity
        z, w = 0.5 * (z - z[::-1]), 0.5 * (w + w[::-1])
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


#: half-width of the default log-tangent window
LOG_TAN_SMAX = 34.0


def log_tan_rule(nodes: int = 512, smax: float = LOG_TAN_SMAX):
    """Composite Gauss rule on the line for the map s = log tan(pi x / 2).

    Under this substitution tan(pi xi/2) = e^s, cos(pi xi) = -tanh(s),
    sin(pi xi) = sech(s) and dxi = sech(s) ds / pi, so endpoint
    log-oscillations cos(2 eps log tan(pi xi/2)) become plain slow cosines
    in s while the measure decays like e^-|s|.  Truncation at |s| = smax
    is below machine precision for integrands centred near s = 0; a wider
    window keeps the default 34 panels' order (and edges, for even smax).

    Returns (s, xi, w) as read-only arrays, w the plain Gauss weights in
    s: a caller integrating in xi multiplies by the sech(s)/pi Jacobian.
    """
    return _log_tan_rule_cached(int(nodes), float(smax))


@lru_cache(maxsize=32)
def _log_tan_rule_cached(nodes: int, smax: float):
    n_panels = max(8, int(smax))
    order = max(6, (nodes // int(LOG_TAN_SMAX)) & ~1)
    s, w = _panel_rule(np.linspace(-smax, smax, n_panels + 1), order)
    # past s ~ 709 exp overflows to inf and arctan takes it to xi = 1
    with np.errstate(over="ignore"):
        xi = (2.0 / np.pi) * np.arctan(np.exp(s))
    # keep the far tails strictly inside (0, 1) after rounding
    xi = np.clip(xi, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    for arr in (s, xi, w):
        arr.flags.writeable = False
    return s, xi, w


#: elements per row block of kernel_grid: a block's temporaries stay near
#: 0.5 MB each instead of growing with the whole grid
_GRID_BLOCK = 1 << 16


def kernel_grid(k, x, xi) -> np.ndarray:
    """k(x[:, None], xi[None, :]) as a float (len(x), len(xi)) array.

    The grid is filled in row blocks of about _GRID_BLOCK elements, so k
    must act elementwise.
    """
    out = np.empty((len(x), len(xi)))
    rows = max(1, _GRID_BLOCK // len(xi))
    for i in range(0, len(x), rows):
        out[i:i + rows] = k(x[i:i + rows, None], xi[None, :])
    return out


def values_at(f, x) -> np.ndarray:
    """f(x) as a float array of x's shape; a scalar result is filled out.
    Every load and trial function is sampled here: NaN or inf raises."""
    vals, shape = np.asarray(f(x), dtype=float), np.shape(x)
    if not np.all(np.isfinite(vals)):
        raise ValueError("sampled function values are not finite")
    return vals if vals.shape == shape else np.full(shape, vals)


def interior_points(x) -> np.ndarray:
    """x as a float array of at least one dimension; ValueError unless
    0 < x < 1 at every point (a NaN point fails too)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((xs > 0.0) & (xs < 1.0)):
        raise ValueError("points must lie in the open interval (0, 1)")
    return xs


def safe_ratio(num, den, tol: float = 1e-13):
    """num/den with the entries where |den| < tol set to zero.

    The one removable-singularity mask of the package: callers divide at a
    moving pole where num, or a factor the ratio is later multiplied by,
    vanishes as well.  The masked entry's true value is the finite limit
    there, r(x) f'(x) for a subtracted f and a pole factor r, not zero, so
    a principal-value sum taken at a point x on one of its nodes is off by
    that node's weight times the limit (an O(w) error, not a rounding).
    """
    tiny = np.abs(den) < tol
    if not tiny.any():
        return num / den
    den = np.where(tiny, 1.0, den)
    out = num / den
    out[np.nonzero(tiny)] = 0.0
    return out


def log_cot_half(x):
    """ln cot(pi x / 2), the primitive driving the cot-kernel compensators."""
    x = np.asarray(x, dtype=float)
    return np.log(np.cos(np.pi * x / 2.0)) - np.log(np.sin(np.pi * x / 2.0))
