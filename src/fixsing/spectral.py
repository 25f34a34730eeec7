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

    phi_j(x) = (1-S)^rho1 S^(1-rho1) q_j(S; rho1)
             + (1-S)^(1-rho1) S^rho1 q_j(S; 1-rho1),   S = sin^2(pi x / 2),

where q_j(S; alpha) = sum_nu c_{j nu}(alpha) S^nu and the coefficients come
from a terminating double sum of Pochhammer products.  A row of c does not
depend on the table size, so one read-only table per exponent, at least
STABLE_DEGREE deep, is built and cached, and every basis of that exponent
holds views of its leading block; evaluation is Horner in S.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .specfun import chebyshev_T

#: phi_j loses digits with j to cancellation in the monomial tables:
#: |c_{j nu}| grows geometrically (3.3e12 at j = 17 for rho1 = 0.8) while
#: phi_j stays of order 1, so Horner in S cancels about log10 max|c_{j nu}|
#: digits; at this degree (3.7e18) none are left
STABLE_DEGREE = 25


@lru_cache(maxsize=128)
def _coeff_table(alpha: float, max_degree: int) -> np.ndarray:
    """Coefficients c[j, nu] of q_j(S; alpha) for 0 <= nu <= j <= max_degree.

    c_{j nu} = (2 sin pi alpha)^-1 *
               sum_{m=nu+1}^{j+1} (-j-1)_m (j+1)_m (alpha)_{m-1-nu}
                                  / [ (1/2)_m m! (m-1-nu)! ]
    """
    jmax = max_degree
    c = np.zeros((jmax + 1, jmax + 1))
    # (alpha)_k / k!
    b = np.ones(jmax + 2)
    for k in range(1, jmax + 2):
        b[k] = b[k - 1] * (alpha + k - 1.0) / k
    pref = 1.0 / (2.0 * math.sin(math.pi * alpha))
    for j in range(jmax + 1):
        # a[m] = (-j-1)_m (j+1)_m / ((1/2)_m m!)
        a = np.ones(j + 2)
        for m in range(1, j + 2):
            a[m] = (a[m - 1] * (-j - 1.0 + m - 1.0) * (j + 1.0 + m - 1.0)
                    / ((0.5 + m - 1.0) * m))
        for nu in range(j + 1):
            ms = np.arange(nu + 1, j + 2)
            c[j, nu] = pref * float(np.dot(a[ms], b[ms - 1 - nu]))
    c.flags.writeable = False
    return c


def _coeff_rows(alpha: float, degree: int) -> np.ndarray:
    """Read-only view c[:degree+1, :degree+1] of the exponent's shared table."""
    return _coeff_table(alpha, max(degree, STABLE_DEGREE))[:degree + 1,
                                                            :degree + 1]


def _horner(coeffs_row: np.ndarray, degree: int, s: np.ndarray) -> np.ndarray:
    out = np.full_like(s, coeffs_row[degree])
    for nu in range(degree - 1, -1, -1):
        out = out * s + coeffs_row[nu]
    return out


@dataclass(frozen=True)
class SpectralBasis:
    """Cached coefficient tables and evaluators for the phi_j family.

    Immutable after construction; safe to share across threads.
    """

    beta: float
    rho1: float
    max_degree: int
    _c_rho: np.ndarray = field(repr=False)
    _c_conj: np.ndarray = field(repr=False)

    def phi(self, j: int, x):
        """phi_j(x); exactly zero at x = 0 and x = 1."""
        if not 0 <= j <= self.max_degree:
            raise ValueError(f"degree {j} outside table (max {self.max_degree})")
        x = np.asarray(x, dtype=float)
        out = self._rows(x, [j])[0]
        return out if x.ndim else float(out)

    def phi_matrix(self, x) -> np.ndarray:
        """Stacked values phi_j(x) for all j <= max_degree; shape (J+1, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.vstack(self._rows(x, range(self.max_degree + 1)))

    def _rows(self, x, degrees):
        """phi_j(x) for each j in degrees, the one evaluator of the family."""
        s = np.sin(np.pi * x / 2.0) ** 2
        r = self.rho1
        w1 = (1.0 - s) ** r * s ** (1.0 - r)
        w2 = (1.0 - s) ** (1.0 - r) * s ** r
        return [w1 * _horner(self._c_rho[j], j, s)
                + w2 * _horner(self._c_conj[j], j, s) for j in degrees]


def basis_from_rho1(rho1: float, max_degree: int, beta: float = float("nan")
                    ) -> SpectralBasis:
    """Build the basis directly from rho1 in (1/2, 1).

    Mainly for the rho1 = 3/4 limit state, which the beta-keyed constructor
    excludes.
    """
    if not 0.5 < rho1 < 1.0:
        raise ValueError("rho1 must lie in (1/2, 1)")
    if max_degree > STABLE_DEGREE:
        warnings.warn(
            f"basis degrees beyond {STABLE_DEGREE} are numerically unstable",
            stacklevel=2,
        )
    return SpectralBasis(
        beta=beta,
        rho1=rho1,
        max_degree=max_degree,
        _c_rho=_coeff_rows(rho1, max_degree),
        _c_conj=_coeff_rows(1.0 - rho1, max_degree),
    )


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
    from .regimes import classify

    return basis_from_rho1(classify(beta).rho1, max_degree, beta=beta)


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
    # cached tables end at a power of two, at least 64 and at least j + 1
    return float(_moments(basis.rho1, max(64, 1 << int(j).bit_length()))[j])


@lru_cache(maxsize=64)
def _moments(rho1: float, kmax: int) -> np.ndarray:
    return tan_moment_sequence(rho1, kmax)


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
    e = 2.0 * rho1 - 1.0
    p = np.empty(kmax + 1)
    p[0] = 1.0
    if kmax >= 1:
        p[1] = -e
    for k in range(1, kmax):
        p[k + 1] = ((k - 1.0) * p[k - 1] - 2.0 * e * p[k]) / (k + 1.0)
    return p


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
    C = f_0 + 2 sum N_{2m} f_{2m} over the even harmonics kept.  Returns a
    fixsing.complete.Solution without a SolveConfig.
    """
    from .complete import Solution

    f = np.asarray(fourier_coeffs, dtype=float)
    if m0 > basis.max_degree:
        raise ValueError("truncation exceeds the basis table")
    if len(f) < m0 + 2:
        raise ValueError("need cosine coefficients up to order m0 + 1")
    coeffs = 2.0 * f[1:m0 + 2]
    c = f[0] + 2.0 * sum(
        N_coeff(basis, n) * f[n] for n in range(2, m0 + 2, 2)
    )
    return Solution(basis=basis, b=coeffs, constant_C=float(c))


def J_integral(alpha: float, j: int, zeta) -> float:
    """Closed form of the weighted Cauchy transform of T_j.

    J_j(zeta) = cot(pi alpha) (1-zeta)^(alpha-1) (1+zeta)^(-alpha) T_j(zeta)
                - q_{j-1}(zeta; alpha),

    where q_{-1} = 0 and q is the same polynomial family as the basis,
    written in t = (1 - zeta)/2.  Used as a test target against
    principal-value quadrature of the defining integral.
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
    t = (1.0 - zeta) / 2.0
    tail = _horner(_coeff_rows(alpha, j - 1)[j - 1], j - 1, t)
    out = lead - tail
    return out if zeta.ndim else float(out)
