"""Special-function primitives against exact and quadrature oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from fixsing.specfun import (chebyshev_T, chebyshev_U, hyp3F2_terminating,
                             jacobi_chebyshev_integral_T,
                             jacobi_chebyshev_integral_U)


def test_chebyshev_T_values():
    assert chebyshev_T(0, 0.3) == 1.0
    assert chebyshev_T(2, 0.5) == pytest.approx(-0.5, abs=1e-15)
    assert chebyshev_T(5, math.cos(0.7)) == pytest.approx(math.cos(3.5),
                                                          abs=1e-14)


def test_chebyshev_U_values():
    assert chebyshev_U(0, 0.77) == 1.0
    assert chebyshev_U(1, 0.25) == pytest.approx(0.5, abs=1e-15)
    theta = 1.0
    assert chebyshev_U(3, math.cos(theta)) == pytest.approx(
        math.sin(4 * theta) / math.sin(theta), abs=1e-14)


def test_chebyshev_recurrence_consistency():
    x = np.linspace(-1.0, 1.0, 41)
    for n in range(1, 10):
        np.testing.assert_allclose(
            chebyshev_T(n + 1, x),
            2.0 * x * chebyshev_T(n, x) - chebyshev_T(n - 1, x),
            atol=1e-12)
        np.testing.assert_allclose(
            chebyshev_U(n + 1, x),
            2.0 * x * chebyshev_U(n, x) - chebyshev_U(n - 1, x),
            atol=1e-12)


def _hyp3f2_rational(j, a, b):
    # exact-rational left-to-right summation oracle
    total = Fraction(0)
    term = Fraction(1)
    for m in range(j + 1):
        total += term
        term *= Fraction(-j + m) * Fraction(j + m) * (a + m)
        term /= (Fraction(1, 2) + m) * (b + m) * (m + 1)
    return total


def test_hyp3f2_trivials():
    assert hyp3F2_terminating(0, 0.37, 1.9) == 1.0
    assert hyp3F2_terminating(1, 1.0, 2.0) == pytest.approx(0.0, abs=1e-15)


def test_hyp3f2_against_exact_rational():
    got = hyp3F2_terminating(4, 0.75, 1.25)
    want = _hyp3f2_rational(4, Fraction(3, 4), Fraction(5, 4))
    assert got == pytest.approx(float(want), rel=1e-14)
    for j in (2, 5, 8, 12, 20):
        got = hyp3F2_terminating(j, 0.5, 1.5)
        want = _hyp3f2_rational(j, Fraction(1, 2), Fraction(3, 2))
        assert got == pytest.approx(float(want), rel=1e-14, abs=1e-15)


def test_hyp3f2_rejects_vanishing_denominator():
    with pytest.raises(ValueError):
        hyp3F2_terminating(4, 0.5, -2.0)


def test_jacobi_integral_T_trivials():
    assert jacobi_chebyshev_integral_T(0.0, 0.0, 0) == pytest.approx(2.0)
    # orthogonality under the inverse-square-root weight
    assert jacobi_chebyshev_integral_T(-0.5, -0.5, 2) == pytest.approx(
        0.0, abs=1e-13)


def test_jacobi_integral_U_trivials():
    assert jacobi_chebyshev_integral_U(0.5, 0.5, 1) == pytest.approx(
        0.0, abs=1e-13)
    assert jacobi_chebyshev_integral_U(0.0, 0.0, 0) == pytest.approx(2.0)


def test_jacobi_integral_domain():
    with pytest.raises(ValueError):
        jacobi_chebyshev_integral_T(-1.0, 0.0, 1)
    with pytest.raises(ValueError):
        jacobi_chebyshev_integral_U(0.2, -1.3, 1)


def _quad_reference(a1, a2, j, poly):
    val, err = quad(lambda z: (1.0 - z)**a1 * (1.0 + z)**a2 * poly(j, z),
                    -1.0, 1.0, limit=400, epsabs=1e-13, epsrel=1e-13)
    return val


def _mp_reference(a1, a2, j, kind):
    # tanh-sinh adaptive quadrature resolves the endpoint singularities of
    # the weight at full precision; the polynomial factor is fine in floats
    from mpmath import mp, mpf, quad as mpquad
    mp.dps = 30
    poly = chebyshev_T if kind == "T" else chebyshev_U
    f = lambda z: (1 - z)**mpf(a1) * (1 + z)**mpf(a2) * poly(j, float(z))
    return float(mpquad(f, [-1, 0, 1]))


@pytest.mark.parametrize("a1", [-0.45, 0.0, 0.33, 0.7])
@pytest.mark.parametrize("a2", [-0.45, 0.0, 0.33, 0.7])
def test_jacobi_integrals_match_adaptive_quadrature(a1, a2):
    for j in range(9):
        ref_t = _mp_reference(a1, a2, j, "T")
        got_t = jacobi_chebyshev_integral_T(a1, a2, j)
        assert got_t == pytest.approx(ref_t, rel=1e-9, abs=1e-11)
        ref_u = _mp_reference(a1, a2, j, "U")
        got_u = jacobi_chebyshev_integral_U(a1, a2, j)
        assert got_u == pytest.approx(ref_u, rel=1e-9, abs=1e-11)


def test_jacobi_integral_spot_values_against_quadrature():
    got = jacobi_chebyshev_integral_T(0.3, 0.6, 3)
    ref = _quad_reference(0.3, 0.6, 3, chebyshev_T)
    assert got == pytest.approx(ref, abs=1e-10)
    got = jacobi_chebyshev_integral_U(0.4, -0.2, 4)
    ref = _quad_reference(0.4, -0.2, 4, chebyshev_U)
    assert got == pytest.approx(ref, abs=1e-10)


def test_weight_moment_tie():
    # the first-kind integral at (rho1-1, -rho1), symmetrized over parity,
    # reproduces the cosine moments of the solvability weight
    from fixsing.spectral import build_basis, M_coeff
    basis = build_basis(0.5, 4)
    r = basis.rho1
    for j in range(7):
        tie = (1.0 + (-1.0)**j) / np.pi * jacobi_chebyshev_integral_T(
            r - 1.0, -r, j)
        assert tie == pytest.approx(M_coeff(basis, j), abs=1e-10)
