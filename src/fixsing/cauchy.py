"""Complete singular integral equation with the pure Cauchy kernel.

Classical orthogonal-polynomial scheme in the class of functions vanishing
at the endpoints:

    (1/pi) int_0^1 [ 1/(xi - x) + K(x, xi) ] phi(xi) dxi = C - F(x),

with phi expanded as sqrt(x(1-x)) times second-kind Chebyshev polynomials.
The weighted Cauchy transform of that basis is -(pi/2) T_{j+1}(2x - 1), so
cosine-type orthogonality reduces the equation to a second-kind algebraic
system.  fixsing.complete.solve routes every kernel with |beta| below
CAUCHY_BETA here, since the spectral basis excludes beta = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import complete
from ._quad import interior_points, kernel_grid, safe_ratio, values_at
from .specfun import chebyshev_T, chebyshev_U, chebyshev_U_rows


@dataclass(frozen=True)
class CauchyBasis:
    """Trial functions sqrt(x(1-x)) U_j(2x - 1), j <= max_degree, of the
    Cauchy route; like the spectral phi_j they vanish at both ends."""

    max_degree: int

    def phi_matrix(self, x) -> np.ndarray:
        """Stacked values for all j <= max_degree; shape (J+1, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        w = np.sqrt(np.clip(x * (1.0 - x), 0.0, None))
        return w * chebyshev_U_rows(2.0 * x - 1.0, self.max_degree + 1)


def cauchy_inverse(F, x, nodes: int = 256):
    """Bounded-class inverse of the Cauchy operator at interior points.

    -(sqrt(x(1-x))/pi) pv-int F(xi) / (sqrt(xi(1-xi)) (xi - x)) dxi,
    computed by subtracting F(x): the transform of the bare weight
    vanishes, and the difference quotient is integrated by the
    Gauss-Chebyshev rule, exactly for polynomial F.
    """
    xs = interior_points(x)
    # an even count keeps x = 1/2 off every node: subtracted integrands are
    # evaluated against arbitrary interior x
    xi = 0.5 * (1.0 + np.cos(np.pi * complete._midpoints(nodes + nodes % 2)))
    fx = values_at(F, xs)
    num = values_at(F, xi)[None, :] - fx[:, None]
    ratio = safe_ratio(num, xi[None, :] - xs[:, None], tol=1e-14)
    vals = -np.sqrt(xs * (1.0 - xs)) / len(xi) * ratio.sum(axis=1)
    return vals if np.ndim(x) else float(vals[0])


def u_weighted_cauchy_transform(j: int, x, nodes: int = 256):
    """pv-int_0^1 sqrt(xi(1-xi)) U_j(2 xi - 1) / (xi - x) dxi by quadrature.

    Subtraction against U_j(2x-1) leaves a polynomial handled exactly by
    the second-kind Gauss rule; the weight's own transform is pi (1/2 - x).
    Test target for the closed form -(pi/2) T_{j+1}(2x - 1).
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    n = max(nodes, j + 2)
    k = np.arange(1, n + 1)
    eta = np.cos(k * np.pi / (n + 1.0))
    w = np.pi / (n + 1.0) * np.sin(k * np.pi / (n + 1.0)) ** 2
    zx = 2.0 * xs - 1.0
    num = chebyshev_U(j, eta)[None, :] - chebyshev_U(j, zx)[:, None]
    den = (eta[None, :] - zx[:, None]) / 2.0
    tiny = np.abs(den) < 1e-14
    den = np.where(tiny, 1.0, den)
    ratio = num / den
    if tiny.any():
        # exact removable limit 2 U_j'(z) at nodes hitting the pole
        rows, cols = np.nonzero(tiny)
        z = zx[rows]
        dU = ((j + 1) * chebyshev_T(j + 1, z) - z * chebyshev_U(j, z)) / (
            z * z - 1.0)
        ratio[rows, cols] = 2.0 * dU
    vals = 0.25 * ratio @ w + chebyshev_U(j, zx) * np.pi * (0.5 - xs)
    return vals if np.ndim(x) else float(vals[0])


def cauchy_solve(K, F, N: int = 16, t1: int = 200, t2: int = 210
                 ) -> complete.Solution:
    """Truncated solve of the complete Cauchy-kernel equation.

    K is a plain (x, xi) evaluator, finite on the open square.  Cosine
    moments follow the midpoint rule under x = (1 + cos(pi s))/2; the rows
    n = 1..N give -b_n/4 + sum_j k_{nj} b_j = -f_n for b_0..b_{N-1}, and
    the n = 0 row sets C (equivalently, the solvability condition).
    A non-finite load raises ValueError and an ill-conditioned system
    complete.SingularSystemError, as in the spectral solver.
    """
    if N < 1:
        raise ValueError("truncation order must be positive")
    s1, s2 = complete._midpoints(t1), complete._midpoints(t2)
    x = 0.5 * (1.0 + np.cos(np.pi * s1))
    xi = 0.5 * (1.0 + np.cos(np.pi * s2))

    fvals = values_at(F, x)
    cos1 = complete._cosines(N + 1, t1)
    with np.errstate(over="ignore", invalid="ignore"):  # dense_solve raises
        f = cos1 @ fvals / t1

    kmat = kernel_grid(K, x, xi)
    sin2 = np.sin(np.pi * s2)
    umat = chebyshev_U_rows(np.cos(np.pi * s2), N) * sin2**2
    k = cos1 @ kmat @ umat.T / (4.0 * t1 * t2)

    a = k[1:, :].copy()
    a[np.arange(N), np.arange(N)] -= 0.25
    b, cond, linear = complete.dense_solve(a, f)
    c = float(f[0] + k[0] @ b)

    report = {
        "condition_number": cond,
        "linear_residual": linear,
        # the n = 0 row restates the solvability integral and C is taken
        # from it: exactly 0 by construction; the key mirrors the spectral one
        "solvability_identity": float(abs(f[0] + k[0] @ b - c)),
    }
    return complete.Solution(basis=CauchyBasis(N - 1), b=b, constant_C=c,
                             residual_report=report)
