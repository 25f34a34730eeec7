"""Special-function primitives: Chebyshev polynomials, terminating
hypergeometric sums, and Jacobi-weighted Chebyshev integrals.

All functions are pure and accept numpy arrays where a point argument makes
sense.  The terminating hypergeometric sums are accumulated in exact
rational arithmetic (their alternating terms cancel catastrophically in
floats from order ~8 on); everything else is plain float64.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def chebyshev_T(n: int, x):
    """First-kind Chebyshev polynomial T_n(x) by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.ones_like(x) if x.ndim else 1.0
    tkm, tk = np.ones_like(x), x.copy()
    for _ in range(n - 1):
        tkm, tk = tk, 2.0 * x * tk - tkm
    return tk if x.ndim else float(tk)


def chebyshev_U_rows(z, count: int) -> np.ndarray:
    """U_0(z) .. U_(count-1)(z) stacked along a new first axis, in one pass
    of the three-term recurrence."""
    z = np.asarray(z, dtype=float)
    out = np.ones((count,) + z.shape)
    if count > 1:
        out[1] = 2.0 * z
    for j in range(2, count):
        out[j] = 2.0 * z * out[j - 1] - out[j - 2]
    return out


def chebyshev_U(n: int, x):
    """Second-kind Chebyshev polynomial U_n(x), the last of
    chebyshev_U_rows."""
    u = chebyshev_U_rows(x, n + 1)[n]
    return u if u.ndim else float(u)


def _hyp3f2_unit(j: int, top2: float, a: float, bot1: float, b: float) -> float:
    """Terminating sum_{m=0}^{j} (-j)_m (top2)_m (a)_m / [(bot1)_m (b)_m m!].

    The alternating terms grow to ~10^5 before cancelling down to O(1)
    values, which costs float64 summation ten digits by j ~ 8; since the
    float parameters are exact rationals the sum is accumulated in exact
    rational arithmetic instead and rounded once.  Raises if a denominator
    factor vanishes inside the summation range.
    """
    if j < 0:
        raise ValueError("summation order must be nonnegative")
    total = Fraction(1)
    term = Fraction(1)
    f_top2, f_a = Fraction(top2), Fraction(a)
    f_bot1, f_b = Fraction(bot1), Fraction(b)
    for m in range(j):
        d1 = f_bot1 + m
        d2 = f_b + m
        if d1 == 0 or d2 == 0:
            raise ValueError(
                "denominator Pochhammer factor vanishes inside the sum"
            )
        term *= Fraction(-j + m) * (f_top2 + m) * (f_a + m)
        term /= d1 * d2 * (m + 1)
        total += term
    return float(total)


def hyp3F2_terminating(j: int, a: float, b: float) -> float:
    """Terminating 3F2(-j, j, a; 1/2, b; 1) as a finite left-to-right sum."""
    return _hyp3f2_unit(j, float(j), a, 0.5, b)


def jacobi_chebyshev_integral_T(alpha1: float, alpha2: float, j: int) -> float:
    """int_{-1}^{1} (1-z)^alpha1 (1+z)^alpha2 T_j(z) dz in closed form.

    The value is 2^(alpha1+alpha2+1) G(alpha1+1) G(alpha2+1) / G(alpha1+alpha2+2)
    times the terminating 3F2(-j, j, alpha1+1; 1/2, alpha1+alpha2+2; 1).
    """
    if alpha1 <= -1.0 or alpha2 <= -1.0:
        raise ValueError("both exponents must exceed -1")
    pref = (
        2.0 ** (alpha1 + alpha2 + 1.0)
        * math.gamma(alpha1 + 1.0)
        * math.gamma(alpha2 + 1.0)
        / math.gamma(alpha1 + alpha2 + 2.0)
    )
    return pref * hyp3F2_terminating(j, alpha1 + 1.0, alpha1 + alpha2 + 2.0)


def jacobi_chebyshev_integral_U(alpha1: float, alpha2: float, j: int) -> float:
    """int_{-1}^{1} (1-z)^alpha1 (1+z)^alpha2 U_j(z) dz in closed form.

    Uses the corrected reduction: the same Gamma prefactor as the T case,
    an extra factor (j+1), and 3F2(-j, j+2, alpha1+1; 3/2, alpha1+alpha2+2; 1).
    Standard tables print this formula wrongly; the version here is checked
    against adaptive quadrature in the test suite.
    """
    if alpha1 <= -1.0 or alpha2 <= -1.0:
        raise ValueError("both exponents must exceed -1")
    pref = (
        2.0 ** (alpha1 + alpha2 + 1.0)
        * math.gamma(alpha1 + 1.0)
        * math.gamma(alpha2 + 1.0)
        * (j + 1.0)
        / math.gamma(alpha1 + alpha2 + 2.0)
    )
    return pref * _hyp3f2_unit(j, j + 2.0, alpha1 + 1.0, 1.5, alpha1 + alpha2 + 2.0)
