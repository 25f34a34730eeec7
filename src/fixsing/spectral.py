"""Spectral basis for the fixed-singularity operator and the series solver.

For 0 < |beta| < 1 the characteristic operator S maps a family of weighted
trigonometric polynomials phi_j onto shifted cosines:

    S[phi_j](x) = N_{j+1} - cos((j+1) pi x),      j = 0, 1, ...

with N_odd = 0 and N_even a terminating hypergeometric sum in rho1.  The
phi_j vanish at both endpoints, have exactly j interior roots, and carry
the endpoint exponent 2 - 2 rho1 of the bounded solution class.  Expanding
an arbitrary load in cosines therefore solves the characteristic equation
term by term, and the same relation reduces the complete equation to an
algebraic system (see fixsing.complete).

Concretely

    phi_j(x) = c^rho1 S^(1-rho1) q_j(zeta; rho1)
             + c^(1-rho1) S^rho1 q_j(zeta; 1-rho1),

with S = sin^2(pi x / 2), c = 1 - S = sin^2(pi (1-x) / 2) (formed as a
sine, so the weights keep their digits near x = 1) and zeta = cos(pi x).
q_j is a Chebyshev-U series of the tan-moments p_k of tan_moment_sequence,

    q_j(zeta; alpha) = -(1/sin pi alpha) [p_0 U_j(zeta)
                                          + 2 sum_{k=1..j} p_k U_{j-k}(zeta)]

(Mason & Handscomb, Chebyshev Polynomials, 2003, ch. 9), the same moment
sequence that gives N_j.  It sums to rounding at any degree, since
|U_k| <= k + 1 on [-1, 1]; the same q_j written as a polynomial in S has
coefficients c_{j nu} that reach 3.7e18 at j = 25 and cancel that many
digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .regimes import classify
from .specfun import chebyshev_T


def _q_rows(alpha, degree: int, zeta) -> np.ndarray:
    """q_0(zeta; alpha) .. q_degree(zeta; alpha) stacked along axis 0, for
    one alpha or, along axis 1, for each of a sequence of them.

    U's recurrence turns the series into Q_j = 2 zeta Q_{j-1} - Q_{j-2}
    + 2 p_j with Q_0 = p_0 = 1 and Q_{-1} = 0, so a row does not depend on
    degree, bit for bit; q = -Q / sin(pi alpha).
    """
    alphas = np.ravel(alpha).tolist()
    col = np.shape(alpha) + (1,) * np.ndim(zeta)  # one value per alpha
    p = 2.0 * np.reshape(np.transpose([_moment_table(a, degree)[:degree + 1]
                                       for a in alphas]), (degree + 1,) + col)
    zeta2 = 2.0 * np.asarray(zeta)
    # row j + 1 holds Q_j, from Q_-1 = 0
    q = np.zeros((degree + 2,) + np.shape(alpha) + np.shape(zeta))
    q[1] = 1.0
    for j in range(1, degree + 1):
        np.multiply(zeta2, q[j], out=q[j + 1, ...])
        q[j + 1] -= q[j - 1]
        q[j + 1] += p[j]
    return q[1:] / np.reshape([-math.sin(math.pi * a) for a in alphas], col)


@dataclass(frozen=True)
class SpectralBasis:
    """The phi_j family for one rho1, j <= max_degree.

    Evaluates the U-series of the tan-moments on demand, in one recurrence
    for both alpha = rho1 and 1 - rho1; holds no table of its own.
    Immutable; safe to share across threads.
    """

    rho1: float
    max_degree: int

    def phi(self, j: int, x):
        """phi_j(x); exactly zero at x = 0 and x = 1."""
        if not 0 <= j <= self.max_degree:
            raise ValueError(
                f"degree {j} outside the basis (max {self.max_degree})")
        x = np.asarray(x, dtype=float)
        out = self._rows(x, j)[j]
        return out if x.ndim else float(out)

    def phi_matrix(self, x) -> np.ndarray:
        """Stacked values phi_j(x) for all j <= max_degree; shape (J+1, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self._rows(x, self.max_degree)

    def _rows(self, x, degree: int) -> np.ndarray:
        """phi_0 .. phi_degree at x, the one evaluator of the family."""
        s = np.sin(np.pi * x / 2.0) ** 2
        c = np.sin(np.pi * (1.0 - x) / 2.0) ** 2
        zeta = np.cos(np.pi * x)
        r = self.rho1
        q = _q_rows((r, 1.0 - r), degree, zeta)
        q *= np.stack([c ** r * s ** (1.0 - r), c ** (1.0 - r) * s ** r])
        return q[:, 0] + q[:, 1]


def basis_from_rho1(rho1: float, max_degree: int) -> SpectralBasis:
    """Build the basis directly from rho1 in (1/2, 1).

    Mainly for the rho1 = 3/4 limit state, which the beta-keyed constructor
    excludes.
    """
    if not 0.5 < rho1 < 1.0:
        raise ValueError("rho1 must lie in (1/2, 1)")
    if max_degree < 0:
        raise ValueError("the basis degree must be non-negative")
    return SpectralBasis(rho1=rho1, max_degree=max_degree)


def build_basis(beta: float, max_degree: int) -> SpectralBasis:
    """Basis for 0 < |beta| < 1; rejects beta = 0 and |beta| >= 1.

    The pure Cauchy case beta = 0 has its own classical machinery in
    fixsing.cauchy.
    """
    if beta == 0.0:
        raise ValueError(
            "the spectral basis exists for 0 < |beta| < 1; "
            "use the Cauchy-kernel solver for beta = 0"
        )
    if not abs(beta) < 1.0:
        raise ValueError(
            f"the spectral basis exists for 0 < |beta| < 1, not beta = {beta}")
    return basis_from_rho1(classify(beta).rho1, max_degree)


def N_coeff(basis: SpectralBasis, j: int) -> float:
    """Constant N_j of the spectral image: 0 for odd j.

    Even values equal the terminating sum 3F2(-j, j, rho1; 1/2, 1; 1), but
    that sum loses all significance in floating point past j ~ 14, so the
    value is produced by the equivalent stable moment recurrence (see
    tan_moment_sequence; agreement with the sum is checked in the tests on
    the range where the sum is healthy).
    """
    if j < 0:
        raise ValueError("index must be nonnegative")
    if j % 2 == 1:
        return 0.0
    return float(_moment_table(basis.rho1, j)[j])


def _moment_table(alpha: float, k: int) -> np.ndarray:
    """Cached tan-moments of alpha through at least index k."""
    # cached tables end at a power of two, at least 64 and at least k + 1
    return _moments(alpha, max(64, 1 << int(k).bit_length()))


@lru_cache(maxsize=64)
def _moments(alpha: float, kmax: int) -> np.ndarray:
    p = tan_moment_sequence(alpha, kmax)
    p.flags.writeable = False
    return p


def M_coeff(basis: SpectralBasis, j: int) -> float:
    """Cosine moments of the solvability weight: M_j = 2 csc(pi rho1) N_j."""
    if j % 2 == 1:
        return 0.0
    return 2.0 / math.sin(math.pi * basis.rho1) * N_coeff(basis, j)


def tan_moment_sequence(rho1: float, kmax: int) -> np.ndarray:
    """Normalized cosine moments p_k of the one-sided weight tan^e(pi x/2).

    p_k = (1/a0) int_0^pi tan^e(t/2) cos(k t) dt with e = 2 rho1 - 1 and
    a0 the k = 0 moment.  The weight satisfies sin(t) W'(t) = e W(t), which
    integrates by parts into the exact three-term recurrence

        (k+1) p_{k+1} = (k-1) p_{k-1} - 2 e p_k,   p_0 = 1,  p_1 = -e.

    For even k these are the N_j constants; unlike the terminating
    hypergeometric sum the recurrence is stable for k in the thousands.
    """
    e = 2.0 * float(rho1) - 1.0
    p = [1.0, -e][:kmax + 1]
    for k in range(1, kmax):
        p.append(((k - 1.0) * p[k - 1] - 2.0 * e * p[k]) / (k + 1.0))
    return np.array(p)


def quadratic_load_constant(rho1: float, terms: int) -> float:
    """Partial sum for the free constant of the load F(x) = x^2.

    C(M) = 1/3 + pi^-2 sum_{m=1}^{M} N_{2m} / m^2, accumulated with the
    stable moment recurrence.
    """
    p = tan_moment_sequence(rho1, 2 * terms)
    m = np.arange(1, terms + 1)
    return 1.0 / 3.0 + float(np.sum(p[2 * m] / m**2)) / math.pi**2


def characteristic_series_solve(basis: SpectralBasis, fourier_coeffs,
                                m0: int):
    """Solve S[phi] = C - F from the cosine coefficients of F.

    fourier_coeffs[n] must equal int_0^1 F(x) cos(n pi x) dx for
    n = 0 .. m0+1.  The solution is phi = sum_{j<=m0} 2 f_{j+1} phi_j and
    the constant is fixed by the solvability condition, which reduces to
    C = f_0 + 2 sum N_{2m} f_{2m} over the even harmonics kept (a non-finite
    one raises ValueError).  Returns a Solution without a SolveConfig.
    """
    from .complete import Solution

    f = np.asarray(fourier_coeffs, dtype=float)
    if m0 > basis.max_degree:
        raise ValueError("truncation exceeds the basis degree")
    if len(f) < m0 + 2:
        raise ValueError("need cosine coefficients up to order m0 + 1")
    if not np.all(np.isfinite(f[:m0 + 2])):
        raise ValueError("load moments are not finite")
    coeffs = 2.0 * f[1:m0 + 2]
    c = f[0] + 2.0 * sum(
        N_coeff(basis, n) * f[n] for n in range(2, m0 + 2, 2)
    )
    return Solution(basis=basis, b=coeffs, constant_C=float(c))


def J_integral(alpha: float, j: int, zeta) -> float:
    """Closed form of the weighted Cauchy transform of T_j.

    J_j(zeta) = cot(pi alpha) (1-zeta)^(alpha-1) (1+zeta)^(-alpha) T_j(zeta)
                - q_{j-1}(zeta; alpha),

    where q_{-1} = 0 and q is the U-series of the basis.  Used as a test
    target against principal-value quadrature of the defining integral.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    zeta = np.asarray(zeta, dtype=float)
    if np.any(np.abs(zeta) >= 1.0):
        raise ValueError("zeta must lie in (-1, 1)")
    lead = (1.0 / math.tan(math.pi * alpha)
            * (1.0 - zeta) ** (alpha - 1.0) * (1.0 + zeta) ** (-alpha)
            * chebyshev_T(j, zeta))
    if j == 0:
        return lead if zeta.ndim else float(lead)
    out = lead - _q_rows(alpha, j - 1, zeta)[j - 1]
    return out if zeta.ndim else float(out)
