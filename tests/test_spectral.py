"""Spectral basis, its constants, and the series solution of the
characteristic equation."""

import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from fixsing.spectral import (J_integral, M_coeff, N_coeff, _q_rows,
                              basis_from_rho1, build_basis,
                              characteristic_series_solve,
                              quadratic_load_constant, tan_moment_sequence)
from fixsing.specfun import hyp3F2_terminating
from fixsing.regimes import classify, solvability_functional
from fixsing import oracle


def linear_load_coeffs(n_max):
    """Exact cosine moments of F(x) = x."""
    n = np.arange(n_max + 1)
    return np.where(n == 0, 0.5,
                    ((-1.0) ** n - 1.0) / (np.pi ** 2 * np.maximum(n, 1) ** 2))


def test_build_basis_rejects_degenerate_beta():
    for beta in (0.0, 1.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            build_basis(beta, 4)


def test_build_basis_names_the_rejected_side():
    with pytest.raises(ValueError, match="Cauchy-kernel solver"):
        build_basis(0.0, 4)
    for beta in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError, match=f"not beta = {beta}") as info:
            build_basis(beta, 4)
        assert "Cauchy" not in str(info.value)


@lru_cache(maxsize=None)
def _mp_monomial_table(alpha, jmax):
    """Monomial coefficients c[j][nu] of q_j(S; alpha) in 50-digit mpmath.

    c_{j nu} = (2 sin pi alpha)^-1 *
               sum_{m=nu+1}^{j+1} (-j-1)_m (j+1)_m (alpha)_{m-1-nu}
                                  / [ (1/2)_m m! (m-1-nu)! ],

    the double Pochhammer sum.  Evaluated in S it cancels about
    log10 max|c| digits, up to 37 at j = 48, of the 50 carried.
    """
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        b = [mpmath.mpf(1)]          # (alpha)_k / k!
        for k in range(1, jmax + 2):
            b.append(b[-1] * (a + k - 1) / k)
        pref = 1 / (2 * mpmath.sin(mpmath.pi * a))
        table = []
        for j in range(jmax + 1):
            p = [mpmath.mpf(1)]      # (-j-1)_m (j+1)_m / ((1/2)_m m!)
            for m in range(1, j + 2):
                p.append(p[-1] * (m - j - 2) * (j + m)
                         / ((m - mpmath.mpf(1) / 2) * m))
            table.append([pref * mpmath.fdot(p[nu + 1:j + 2], b[:j + 1 - nu])
                          for nu in range(j + 1)])
    return table


def _mp_phi(rho1, jmax, x):
    """phi_0 .. phi_jmax at float x from the monomial tables, in mpmath."""
    with mpmath.workdps(50):
        r = mpmath.mpf(rho1)
        s = mpmath.sin(mpmath.pi * mpmath.mpf(x) / 2) ** 2
        c = 1 - s

        def q(table):
            out = []
            for row in table:
                acc = mpmath.mpf(0)
                for coeff in reversed(row):
                    acc = acc * s + coeff
                out.append(acc)
            return out

        w1, w2 = c ** r * s ** (1 - r), c ** (1 - r) * s ** r
        return [float(w1 * u + w2 * v) for u, v in
                zip(q(_mp_monomial_table(rho1, jmax)),
                    q(_mp_monomial_table(1.0 - rho1, jmax)))]


def test_leading_coefficient_closed_form():
    # q_0 is the single coefficient -1 / sin(pi alpha), in the monomial
    # table and from the U-series at any zeta
    zeta = np.linspace(-1.0, 1.0, 5)
    for rho1 in (2.0 / 3.0, 0.55, 0.9):
        for alpha in (rho1, 1.0 - rho1):
            want = -1.0 / math.sin(math.pi * alpha)
            assert float(_mp_monomial_table(alpha, 0)[0][0]) == pytest.approx(
                want, rel=1e-15)
            np.testing.assert_allclose(_q_rows(alpha, 0, zeta)[0], want,
                                       rtol=1e-15)
    basis = build_basis(0.5, 2)
    assert _q_rows(basis.rho1, 0, 0.3)[0] == pytest.approx(
        -2.0 / math.sqrt(3.0), rel=1e-13)


def test_top_coefficient_is_single_term():
    # c_jj = (-j-1)_{j+1} (j+1)_{j+1} / ((1/2)_{j+1} (j+1)!) / (2 sin pi a)
    # = -(-4)^j / sin(pi a), which is (-2)^j times the leading coefficient
    # in zeta = 1 - 2S of the U-series, read at a large zeta
    def pochhammer(a, m):
        return math.prod(a + k for k in range(m))

    alpha = build_basis(0.5, 6).rho1
    table = _mp_monomial_table(alpha, 6)
    zeta = 1e8
    q = _q_rows(alpha, 6, zeta)
    for j in range(7):
        m = j + 1
        term = (pochhammer(-j - 1.0, m) * pochhammer(j + 1.0, m)
                * pochhammer(alpha, 0)
                / (pochhammer(0.5, m) * math.factorial(m)))
        want = term / (2.0 * math.sin(math.pi * alpha))
        assert float(table[j][j]) == pytest.approx(want, rel=1e-13)
        assert want == pytest.approx(
            -(-4.0) ** j / math.sin(math.pi * alpha), rel=1e-13)
        assert (-2.0) ** j * q[j] / zeta ** j == pytest.approx(want,
                                                               rel=1e-6)


@pytest.mark.parametrize("beta", [0.05, -0.05, 0.5, -0.5, 0.95, -0.95])
def test_phi_matches_the_monomial_reference_to_degree_48(beta):
    # the basis against a 50-digit evaluation of the monomial tables, at
    # points within 1e-9 of both ends
    basis = build_basis(beta, 48)
    xs = np.array([1e-9, 1e-5, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9,
                   1.0 - 1e-5, 1.0 - 1e-9])
    want = np.array([_mp_phi(basis.rho1, 48, x) for x in xs]).T
    np.testing.assert_allclose(basis.phi_matrix(xs), want, rtol=0,
                               atol=1e-12)


def test_phi_vanishes_exactly_at_endpoints():
    basis = build_basis(0.5, 8)
    for j in range(9):
        assert basis.phi(j, 0.0) == 0.0
        assert basis.phi(j, 1.0) == 0.0


def test_phi_midpoint_value():
    # phi_0(1/2) = -1/sin(pi rho1); equals -sqrt(2) at the rho1 = 3/4 limit
    basis = build_basis(0.5, 2)
    assert basis.phi(0, 0.5) == pytest.approx(-2.0 / math.sqrt(3.0), rel=1e-13)
    limit = basis_from_rho1(0.75, 2)
    assert limit.phi(0, 0.5) == pytest.approx(-math.sqrt(2.0), rel=1e-13)


@pytest.mark.parametrize("beta", [0.3, 0.5])
def test_phi_root_counts(beta):
    basis = build_basis(beta, 8)
    grid = np.linspace(1e-4, 1.0 - 1e-4, 6001)
    for j in range(9):
        signs = np.sign(basis.phi(j, grid))
        flips = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert flips == j


@pytest.mark.parametrize("beta", [0.3, 0.5])
def test_parity_orthogonality(beta):
    from fixsing.verify import _parity_product
    basis = build_basis(beta, 7)
    for m in range(4):
        for k in range(4):
            val = _parity_product(basis, 2 * m + 1, 2 * k)
            assert abs(val) < 1e-8


def test_phi_endpoint_power_law():
    for beta in (0.5, -0.5):
        basis = build_basis(beta, 4)
        want = 2.0 - 2.0 * basis.rho1
        for j in (0, 2):
            pts = np.array([1e-2, 1e-3, 1e-4])
            vals = np.abs(basis.phi(j, pts))
            slope = np.polyfit(np.log(pts), np.log(vals), 1)[0]
            assert abs(slope - want) / want < 0.05


def test_N_coefficients():
    basis = build_basis(0.5, 4)
    assert N_coeff(basis, 1) == 0.0
    assert N_coeff(basis, 0) == pytest.approx(1.0, abs=1e-14)
    e = 2.0 * basis.rho1 - 1.0
    assert N_coeff(basis, 2) == pytest.approx(e * e, abs=1e-13)


def test_M_coefficients():
    basis = build_basis(0.5, 4)
    assert M_coeff(basis, 1) == 0.0
    assert M_coeff(basis, 0) == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-13)
    assert M_coeff(basis, 0) == pytest.approx(2.3094011, abs=1e-7)
    # N and M proportional through half the sine of pi rho1
    for j in range(0, 12):
        assert N_coeff(basis, j) == pytest.approx(
            math.sin(math.pi * basis.rho1) / 2.0 * M_coeff(basis, j),
            abs=1e-14)


def test_M_matches_weight_functional():
    reg = classify(0.5)
    basis = build_basis(0.5, 4)
    for j in (2, 4, 6, 8):
        quad_val = solvability_functional(
            reg, lambda t, j=j: np.cos(j * np.pi * t))
        assert M_coeff(basis, j) == pytest.approx(quad_val, abs=1e-8)


def test_moment_recurrence_matches_terminating_sums():
    # the recurrence and the hypergeometric finite sum are two routes to
    # the same even cosine moments; compare on the float-stable range
    for rho1 in (2.0 / 3.0, 0.8):
        p = tan_moment_sequence(rho1, 16)
        for j in range(0, 17, 2):
            assert p[j] == pytest.approx(hyp3F2_terminating(j, rho1, 1.0),
                                         abs=1e-12)


@pytest.mark.parametrize("beta", [-0.7, -0.3, 0.3, 0.5, 0.8])
def test_spectral_relation_via_forward_operator(beta):
    basis = build_basis(beta, 8)
    xs = np.linspace(1.0, 21.0, 21) / 22.0
    rule = oracle.PVRule(512)
    for j in range(9):
        got = oracle.apply_S(lambda t, j=j: basis.phi(j, t), beta, xs, rule)
        want = N_coeff(basis, j + 1) - np.cos((j + 1) * np.pi * xs)
        np.testing.assert_allclose(got, want, atol=1e-5)


@pytest.mark.parametrize("beta", [0.5, -0.5, 0.95, -0.95])
def test_spectral_relation_to_degree_40(beta):
    basis = build_basis(beta, 40)
    xs = np.linspace(1.0, 21.0, 21) / 22.0
    rule = oracle.PVRule(2048)
    for j in range(41):
        got = oracle.apply_S(lambda t, j=j: basis.phi(j, t), beta, xs, rule)
        want = N_coeff(basis, j + 1) - np.cos((j + 1) * np.pi * xs)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10,
                                   err_msg=f"j = {j}")


def test_series_solution_constant_for_linear_load():
    f = linear_load_coeffs(22)
    for beta in (0.25, 0.5, 0.75):
        basis = build_basis(beta, 20)
        sol = characteristic_series_solve(basis, f, 20)
        assert sol.constant_C == pytest.approx(0.5, abs=1e-12)


def test_series_solution_reference_values():
    # tabulated midpoint values of the truncated series for F(x) = x
    f = linear_load_coeffs(30)
    expected = {5: 0.445026, 10: 0.439400, 15: 0.440180, 20: 0.441492}
    for m0, want in expected.items():
        basis = build_basis(0.5, m0)
        sol = characteristic_series_solve(basis, f[:m0 + 2], m0)
        assert sol.evaluate(0.5) == pytest.approx(want, abs=5e-4)
    basis = build_basis(0.5, 20)
    sol = characteristic_series_solve(basis, f[:22], 20)
    assert sol.evaluate(0.25) == pytest.approx(0.371442, abs=5e-4)


def test_series_solution_matches_a_50_digit_evaluation():
    # the m0 = 20 series above, b_j = 2 f_(j+1) with exact moments, summed
    # over the mpmath basis functions; the tabulated 0.441492 and 0.371442
    # miss it by 1.2e-5 and 1.7e-5, inside their 5e-4 tolerance
    basis = build_basis(0.5, 20)
    sol = characteristic_series_solve(basis, linear_load_coeffs(21), 20)
    with mpmath.workdps(50):
        b = [-4 / (mpmath.pi * (j + 1)) ** 2 if j % 2 == 0 else 0
             for j in range(21)]
        for x, pinned in ((0.5, 0.44150377611), (0.25, 0.37142526575)):
            want = mpmath.fdot(b, _mp_phi(basis.rho1, 20, x))
            assert sol.evaluate(x) == pytest.approx(float(want), abs=1e-10)
            assert float(want) == pytest.approx(pinned, abs=1e-11)


def test_series_solution_coefficients_and_endpoints():
    f = linear_load_coeffs(10)
    basis = build_basis(0.5, 8)
    sol = characteristic_series_solve(basis, f[:10], 8)
    np.testing.assert_allclose(sol.b, 2.0 * f[1:10], atol=0)
    assert sol.evaluate(0.0) == 0.0
    assert sol.evaluate(1.0) == 0.0


def test_series_solution_validates_input():
    basis = build_basis(0.5, 4)
    with pytest.raises(ValueError):
        characteristic_series_solve(basis, np.zeros(3), 4)
    with pytest.raises(ValueError):
        characteristic_series_solve(basis, np.zeros(10), 6)


def test_series_solves_equation_pointwise():
    # end-to-end residual of the truncated series under the forward
    # operator sits at the truncation plateau
    f = linear_load_coeffs(22)
    basis = build_basis(0.5, 20)
    sol = characteristic_series_solve(basis, f, 20)
    xs = np.array([0.2, 0.4, 0.6, 0.8])
    res = oracle.apply_S(sol.evaluate, 0.5, xs, oracle.PVRule(512))
    res = res + xs - sol.constant_C
    assert np.max(np.abs(res)) < 5e-3


def test_quadratic_load_constant_matches_weight_functional():
    # the partial sums converge to the weighted mean of x^2; reference
    # value from 30-digit tanh-sinh quadrature of the weighted mean
    rho1 = classify(0.5).rho1
    target = 0.348285685981702
    limit = quadratic_load_constant(rho1, 200_000)
    assert limit == pytest.approx(target, abs=1e-9)
    # in-repo cross-check through the weight functional (non-polynomial
    # data, so the Jacobi rule is only approximately exact)
    reg = classify(0.5)
    functional = (math.sin(math.pi * rho1) / 2.0
                  * solvability_functional(reg, lambda t: t * t))
    assert limit == pytest.approx(functional, abs=2e-5)
    # convergence from below with the slow 1/M tail
    c100 = quadratic_load_constant(rho1, 100)
    c1000 = quadratic_load_constant(rho1, 1000)
    assert c100 < c1000 < limit


def test_telescoping_moment_identity():
    # sum_j b_j M_{j+1} - sum_n b_{n-1} M_n vanishes identically
    basis = build_basis(0.5, 10)
    rng = np.random.default_rng(5)
    b = rng.normal(size=8)
    lhs = sum(b[j] * M_coeff(basis, j + 1) for j in range(8))
    rhs = sum(b[n - 1] * M_coeff(basis, n) for n in range(1, 9))
    assert lhs - rhs == 0.0


def test_J_integral_closed_form():
    assert J_integral(0.5, 0, 0.0) == pytest.approx(0.0, abs=1e-14)
    # j = 0 reduces to the bare weight times cot(pi alpha)
    for alpha, zeta in ((0.3, 0.2), (0.7, -0.5)):
        want = (1.0 / math.tan(math.pi * alpha)
                * (1.0 - zeta) ** (alpha - 1.0) * (1.0 + zeta) ** (-alpha))
        assert J_integral(alpha, 0, zeta) == pytest.approx(want, rel=1e-13)


def test_J_integral_domain():
    with pytest.raises(ValueError):
        J_integral(1.2, 1, 0.0)
    with pytest.raises(ValueError):
        J_integral(0.5, 1, 1.0)


def _pv_weighted_transform(alpha, j, zeta):
    # independent principal-value oracle: subtraction at the pole, split
    # there, and on each side a map that absorbs the weight's end power,
    # 1 + e = (1 + z) u^(1/(1-a)) on [-1, z] and 1 - e = (1 - z) v^(1/a)
    # on [z, 1]; tanh-sinh quadrature then converges to rounding
    from mpmath import mp, mpf, quad as mpquad, log, chebyt

    mp.dps = 25
    a, z = mpf(alpha), mpf(zeta)
    # h and the difference quotient from 1 + e and 1 - e, which keep their
    # digits at the ends
    h = lambda p, m: m ** (a - 1) * p ** (-a) * chebyt(j, p - 1)
    hz = h(1 + z, 1 - z)
    g = lambda p, m: (h(p, m) - hz) / (p - 1 - z)
    ml, mr = 1 / (1 - a), 1 / a

    def left(u):
        p = (1 + z) * u ** ml
        return g(p, 2 - p) * (1 + z) * ml * u ** (ml - 1)

    def right(v):
        m = (1 - z) * v ** mr
        return g(2 - m, m) * (1 - z) * mr * v ** (mr - 1)

    val = mpquad(left, [0, 1]) + mpquad(right, [0, 1])
    return float((val + hz * log((1 - z) / (1 + z))) / mp.pi)


@pytest.mark.parametrize("alpha,j,zeta", [
    (2.0 / 3.0, 2, 0.3),
    (0.4, 1, -0.2),
    (0.25, 4, 0.55),
    (0.55, 3, 0.0),
    (0.8, 16, 0.1),
    (0.2, 20, 0.7),
    (0.6, 30, -0.2),
])
def test_J_integral_matches_pv_quadrature(alpha, j, zeta):
    assert J_integral(alpha, j, zeta) == pytest.approx(
        _pv_weighted_transform(alpha, j, zeta), abs=1e-9)


def test_phi_equals_phi_matrix_rows_bit_for_bit():
    basis = build_basis(-0.3, 12)
    xs = np.linspace(0.0, 1.0, 37)
    rows = basis.phi_matrix(xs)
    for j in range(13):
        np.testing.assert_array_equal(basis.phi(j, xs), rows[j])
        assert basis.phi(j, xs[5]) == rows[j, 5]


def test_series_solution_is_a_complete_solution():
    from fixsing.complete import Solution

    f = linear_load_coeffs(10)
    sol = characteristic_series_solve(build_basis(0.5, 8), f[:10], 8)
    assert isinstance(sol, Solution)
    assert sol.config is None
    assert len(sol.corner_coeffs) == 0


def test_phi_matrix_rows_do_not_depend_on_the_degree():
    small, large = build_basis(0.5, 8), build_basis(0.5, 20)
    x = np.linspace(0.0, 1.0, 41)
    assert np.array_equal(small.phi_matrix(x), large.phi_matrix(x)[:9])


def test_q_rows_of_stacked_alphas_equal_each_alpha_alone():
    # _rows runs one recurrence over rho1 and 1 - rho1; each column must be
    # that alpha's own rows, bit for bit, at an array and at a scalar zeta
    for zeta in (np.cos(np.pi * np.linspace(0.0, 1.0, 41)), 0.3):
        both = _q_rows((0.7, 0.3), 20, zeta)
        for i, alpha in enumerate((0.7, 0.3)):
            assert np.array_equal(both[:, i], _q_rows(alpha, 20, zeta))
        assert _q_rows(0.7, 0, zeta).shape == (1,) + np.shape(zeta)


def test_tan_moment_sequence_short_lengths():
    e = 2.0 * 0.8 - 1.0
    assert tan_moment_sequence(0.8, 0).tolist() == [1.0]
    assert tan_moment_sequence(0.8, 1).tolist() == [1.0, -e]
    assert tan_moment_sequence(0.8, 2).tolist() == [1.0, -e, 2.0 * e * e / 2.0]
    assert tan_moment_sequence(0.8, 2).dtype == np.float64


@pytest.mark.parametrize("call,message", [
    (lambda: build_basis(0.5, 3).phi(4, 0.5), "degree 4 outside the basis"),
    (lambda: build_basis(0.5, 3).phi(-1, 0.5), "degree -1 outside the basis"),
    (lambda: basis_from_rho1(0.4, 3), "rho1 must lie in"),
    (lambda: basis_from_rho1(1.0, 3), "rho1 must lie in"),
    (lambda: N_coeff(build_basis(0.5, 3), -1), "index must be nonnegative"),
], ids=["phi-above-degree", "phi-negative", "rho1-below-half", "rho1-one",
        "N-negative-index"])
def test_spectral_arguments_outside_their_domain_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
