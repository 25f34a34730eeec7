"""Problem kernels: the antiplane crack kernel and the plane-strain
dominant kernel with its exponent equation.

Both problems live on a crack 0 < x < 1 crossing a strip between two
half-planes; the strip/half-plane stiffness contrast enters the antiplane
kernel through beta = (lambda - 1)/(lambda + 1) and the plane-strain one
through the root gamma0 of a transcendental exponent equation, with the
effective parameter beta = -cos(pi gamma0).

The regular kernels are assembled from cancellation-safe building blocks:
the difference between each rational singular term and its cot
counterpart is evaluated through a Taylor series near the diagonal and
through pole-free regroupings near the corners.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .complete import KernelSpec

#: switch radius for the cot-vs-rational Taylor series; the direct
#: difference loses ~eps/u^2 digits, the truncated series ~u^7, and both
#: stay below 1e-12 relative with this split
_TAYLOR_RADIUS = 1e-2


class NoBracketError(RuntimeError):
    """The exponent function does not change sign on (0, 1)."""


def cot_gap(u):
    """1/(pi u) - (1/2) cot(pi u / 2), regular on (-2, 2) with value 0 at 0.

    Near u = 0 both terms blow up like 1/u and cancel to O(u); inside the
    switch radius the difference is taken from its series
    pi u / 12 + pi^3 u^3 / 720 + pi^5 u^5 / 30240 + O(u^7) to keep full
    precision.
    """
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < _TAYLOR_RADIUS
    safe = np.where(small, 1.0, u)
    direct = 1.0 / (np.pi * safe) - 0.5 / np.tan(np.pi * safe / 2.0)
    u2 = u * u
    series = u * (np.pi / 12.0
                  + u2 * (np.pi**3 / 720.0 + u2 * np.pi**5 / 30240.0))
    out = np.where(small, series, direct)
    return out if u.ndim else float(out)


def fixed_gap(v):
    """1/(pi v) + 1/(pi (v-2)) - (1/2) cot(pi v / 2), regular on [0, 2].

    The cot has poles at v = 0 and v = 2; each is cancelled by one of the
    rational terms (cot(pi v/2) is 2-periodic), so the difference is
    evaluated through cot_gap against whichever pole is nearer.
    """
    v = np.asarray(v, dtype=float)
    lower = v < 1.0
    out = np.where(
        lower,
        cot_gap(v) + 1.0 / (np.pi * (np.where(lower, v, 0.0) - 2.0)),
        cot_gap(v - 2.0) + 1.0 / (np.pi * np.where(lower, 2.0, v)),
    )
    return out if v.ndim else float(out)


@dataclass(frozen=True)
class AntiplaneParams:
    """Shear-modulus ratio lambda = G1/G2 of half-planes to strip."""

    lam: float
    series_tol: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError("modulus ratio must be positive and finite")

    @property
    def beta(self) -> float:
        return (self.lam - 1.0) / (self.lam + 1.0)


def antiplane_D(x, beta: float, tol: float = 1e-12):
    """Tail series D(x) = sum_{j>=1} beta^(2j) / (x + 2j) for x > -2.

    Truncated once the geometric majorant
    beta^(2(J+1)) / ((x + 2J + 2)(1 - beta^2)) drops below tol.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= -2.0):
        raise ValueError("argument must exceed -2")
    if beta == 0.0:
        z = np.zeros_like(x)
        return z if x.ndim else 0.0
    b2 = beta * beta
    xmin = float(np.min(x))
    total = np.zeros_like(x)
    term = np.empty_like(x)
    power = 1.0
    j = 0
    while True:
        j += 1
        power *= b2
        # in place: a kernel grid (~330 KB) is above glibc's mmap
        # threshold, so a fresh temporary per term is mapped and faulted in
        # anew each pass (~80k page faults per solve at lambda = 100)
        np.add(x, 2.0 * j, out=term)
        np.divide(power, term, out=term)
        total += term
        if power * b2 / ((xmin + 2.0 * (j + 1)) * (1.0 - b2)) < tol:
            break
        if j > 10_000:
            # reached as beta^2 -> 1, for lambda outside about
            # [5.9e-4, 1.68e3]; the CLI reports it as exit 3
            raise RuntimeError("series failed to converge")
    return total if x.ndim else float(total)


def antiplane_R(x, xi, beta: float, tol: float = 1e-12):
    """Reflection part of the antiplane kernel (image sums across the strip)."""
    d = lambda y: antiplane_D(y, beta, tol)
    s = x + xi
    u = x - xi
    return (beta * (d(s) - d(2.0 - s))
            + beta**2 * (d(2.0 - u) - d(2.0 + u) + 2.0 * u / (4.0 - u * u)))


def antiplane_kernel(params: AntiplaneParams) -> KernelSpec:
    """Regular kernel of the antiplane crack problem.

    K(x, xi) = [rational dominant part]/pi - [cot dominant part] + R/pi,
    grouped so every difference of a rational pole against its cot twin is
    evaluated stably: cot_gap on the moving singularity, fixed_gap on the
    endpoint pair.
    """
    beta = params.beta
    tol = params.series_tol

    def regular_part(x, xi):
        return (cot_gap(xi - x) + beta * fixed_gap(xi + x)
                + antiplane_R(x, xi, beta, tol) / np.pi)

    return KernelSpec(beta=beta, regular_part=regular_part,
                      name=f"antiplane(lambda={params.lam:g})")


@dataclass
class PlaneStrainParams:
    """Elastic constants of the plane-strain problem and derived kernel data.

    mu0, nu0, delta0 and the quadratic-numerator coefficients b1, b2, b3
    are fixed at construction; gamma0 and beta_eff are populated by
    gamma0_root.
    """

    G1: float
    G2: float
    nu1: float
    nu2: float
    mu0: float = 0.0
    nu0: float = 0.0
    delta0: float = 0.0
    b1: float = 0.0
    b2: float = 0.0
    b3: float = 0.0
    gamma0: float | None = None
    beta_eff: float | None = None

    def __post_init__(self):
        if not all(map(math.isfinite, (self.G1, self.G2, self.nu1, self.nu2))):
            raise ValueError("elastic constants must be finite")


def plane_strain_coeffs(G1: float, G2: float, nu1: float, nu2: float
                        ) -> PlaneStrainParams:
    """Derived constants mu0, nu0, delta0 and b1, b2, b3.

    mu0 = G1 (1 - nu2) / (G2 (1 - nu1)),
    nu0 = nu1/(1 - nu1) - mu0 nu2/(1 - nu2),
    delta0 = (3 + mu0 - nu0)(1 + 3 mu0 + nu0),
    b1 = [ (nu0 + mu0 - 1)^2 - 4 (1 - mu0^2) ] / delta0,
    b2 = 4 [ nu0 (nu0 - 2) - 3 (1 - mu0^2) ] / delta0,
    b3 = [ -4 nu0 (nu0 - 2) + 3 (nu0 + mu0 - 1)^2 ] / delta0.
    """
    if G1 <= 0.0 or G2 <= 0.0:
        raise ValueError("shear moduli must be positive")
    if not (0.0 < nu1 <= 0.5 and 0.0 < nu2 <= 0.5):
        raise ValueError("Poisson ratios must lie in (0, 1/2]")
    mu0 = G1 * (1.0 - nu2) / (G2 * (1.0 - nu1))
    nu0 = nu1 / (1.0 - nu1) - mu0 * nu2 / (1.0 - nu2)
    delta0 = (3.0 + mu0 - nu0) * (1.0 + 3.0 * mu0 + nu0)
    if delta0 == 0.0:
        raise ValueError("degenerate constants: delta0 vanishes")
    s = nu0 + mu0 - 1.0
    b1 = (s * s - 4.0 * (1.0 - mu0 * mu0)) / delta0
    b2 = 4.0 * (nu0 * (nu0 - 2.0) - 3.0 * (1.0 - mu0 * mu0)) / delta0
    b3 = (-4.0 * nu0 * (nu0 - 2.0) + 3.0 * s * s) / delta0
    return PlaneStrainParams(G1=G1, G2=G2, nu1=nu1, nu2=nu2, mu0=mu0,
                             nu0=nu0, delta0=delta0, b1=b1, b2=b2, b3=b3)


def lambda_fn(gamma, params: PlaneStrainParams):
    """Exponent function whose root in (0, 1) fixes the endpoint power.

    Lambda(g) = delta0 cos(pi g)
                - 2 [mu0^2 - 3 - 2 mu0 (nu0 - 1) + nu0 (nu0 - 2)] g^2
                - 4 (1 - mu0^2) + (nu0 + mu0 - 1)^2
    """
    gamma = np.asarray(gamma, dtype=float)
    m, n = params.mu0, params.nu0
    quad = m * m - 3.0 - 2.0 * m * (n - 1.0) + n * (n - 2.0)
    out = (params.delta0 * np.cos(np.pi * gamma) - 2.0 * quad * gamma**2
           - 4.0 * (1.0 - m * m) + (n + m - 1.0) ** 2)
    return out if gamma.ndim else float(out)


def _lambda_prime(gamma: float, params: PlaneStrainParams) -> float:
    m, n = params.mu0, params.nu0
    quad = m * m - 3.0 - 2.0 * m * (n - 1.0) + n * (n - 2.0)
    return (-np.pi * params.delta0 * math.sin(math.pi * gamma)
            - 4.0 * quad * gamma)


def gamma0_root(params: PlaneStrainParams, tol: float = 1e-13) -> float:
    """Root gamma0 of the exponent equation on (0, 1); stores it in params.

    A 1000-point scan brackets the sign change (multiple changes are
    flagged, the first is used), bisection narrows the bracket, and Newton
    steps polish to tol.  Sets params.gamma0 and
    params.beta_eff = -cos(pi gamma0).
    """
    grid = np.linspace(0.0, 1.0, 1001)[1:-1]
    vals = lambda_fn(grid, params)
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if len(flips) == 0:
        raise NoBracketError(
            "exponent function has no sign change on (0, 1); "
            "constants outside the supported regime"
        )
    if len(flips) > 1:
        warnings.warn("multiple sign changes of the exponent function; "
                      "using the first", stacklevel=2)
    lo, hi = grid[flips[0]], grid[flips[0] + 1]
    flo = lambda_fn(lo, params)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        fmid = lambda_fn(mid, params)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    g = 0.5 * (lo + hi)
    for _ in range(60):
        step = lambda_fn(g, params) / _lambda_prime(g, params)
        g -= step
        if abs(step) < tol:
            break
    params.gamma0 = float(g)
    params.beta_eff = float(-math.cos(math.pi * g))
    return params.gamma0


def plane_strain_kernel(params: PlaneStrainParams,
                        include_K0: bool = False) -> KernelSpec:
    """Regular kernel of the dominant plane-strain equation.

    The dominant kernel is 1/(xi - x) plus two cubic-denominator fixed
    terms; splitting off the associated operator with beta = beta_eff
    leaves K = cot_gap(xi - x) + beta fixed_gap(xi + x) plus the
    quadratic-numerator remainders with 1/(corner) growth.  Those
    remainders are homogeneous of degree -1 at the corners: their Mellin
    symbol vanishes at gamma0 but not at the associated operator's second
    exponent 2 - gamma0, which the solution therefore lacks.  The kernel
    is flagged so that solve frees that exponent with corner trial
    functions.

    The full regular part K0 of the physical problem has no published
    closed form; include_K0 = True is rejected to make the gap explicit.
    """
    if include_K0:
        raise ValueError(
            "the full regular kernel K0 is not available in closed form; "
            "only the dominant equation is solvable"
        )
    if params.gamma0 is None or params.beta_eff is None:
        raise ValueError("run gamma0_root first")
    beta = params.beta_eff
    # b1 xi^2 + b2 xi x + b3 x^2 - beta (xi + x)^2 as one quadratic form
    c1, c2, c3 = params.b1 - beta, params.b2 - 2.0 * beta, params.b3 - beta

    def regular_part(x, xi):
        s = xi + x
        u, v = xi - 1.0, x - 1.0
        sm = u + v
        q = (c1 * xi * xi + c2 * xi * x + c3 * x * x) / (s * s * s)
        qm = (c1 * u * u + c2 * u * v + c3 * v * v) / (sm * sm * sm)
        return (cot_gap(xi - x) + beta * fixed_gap(s) + (q + qm) / np.pi)

    return KernelSpec(beta=beta, regular_part=regular_part,
                      name=f"plane-strain(gamma0={params.gamma0:.6f})",
                      homogeneous_corners=True)
