"""Regime classification, solvability machinery and the closed-form inverses."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixsing.regimes import (Branch, RegimeKind, classify,
                             endpoint_asymptotics, inverse_characteristic,
                             solvability_functional, solvability_weight)
from fixsing.spectral import N_coeff, build_basis
from fixsing import oracle


def test_classify_zero():
    reg = classify(0.0)
    assert reg.kind is RegimeKind.ZERO
    assert reg.rho1 == pytest.approx(0.75, abs=0)
    assert reg.delta is None and reg.epsilon is None


def test_classify_inside_unit():
    reg = classify(0.5)
    assert reg.kind is RegimeKind.INSIDE_UNIT
    assert reg.delta == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert reg.rho1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    neg = classify(-0.5)
    assert neg.delta == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert neg.rho1 == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_classify_outside_unit():
    reg = classify(2.0)
    assert reg.kind is RegimeKind.ABOVE_ONE
    assert reg.epsilon == pytest.approx(
        math.log(2.0 + math.sqrt(3.0)) / (2.0 * math.pi), abs=1e-15)
    assert reg.epsilon == pytest.approx(0.2096004, abs=1e-7)
    below = classify(-3.0)
    assert below.kind is RegimeKind.BELOW_MINUS_ONE
    assert below.branch is Branch.VANISH_AT_ZERO
    assert classify(-3.0, Branch.VANISH_AT_ONE).branch is Branch.VANISH_AT_ONE


def test_classify_unit_betas_and_errors():
    assert classify(1.0).kind is RegimeKind.PLUS_ONE
    assert classify(-1.0).kind is RegimeKind.MINUS_ONE
    with pytest.raises(ValueError):
        classify(float("nan"))


def test_rho1_is_continuous_through_zero():
    for beta in (1e-6, -1e-6, 1e-9, -1e-9):
        assert classify(beta).rho1 == pytest.approx(0.75, abs=1e-5)
    # rho1 stays in (1/2, 1) across the open unit interval
    for beta in np.linspace(-0.999, 0.999, 41):
        if beta == 0.0:
            continue
        assert 0.5 < classify(beta).rho1 < 1.0


def test_weight_values():
    assert solvability_weight(classify(0.0), 0.5) == pytest.approx(1.0)
    assert solvability_weight(classify(0.5), 0.5) == pytest.approx(2.0)
    assert solvability_weight(classify(2.0), 0.5) == pytest.approx(1.0)
    assert solvability_weight(classify(1.0), 0.3) == 1.0
    assert solvability_weight(classify(-1.0), 0.3) == 0.0


def test_weight_symmetry():
    xs = np.linspace(0.02, 0.98, 25)
    for beta in (0.3, 0.5, -0.6, 2.0, 5.0, 0.0):
        reg = classify(beta)
        np.testing.assert_allclose(solvability_weight(reg, xs),
                                   solvability_weight(reg, 1.0 - xs),
                                   atol=1e-12)


def test_weight_domain_error():
    with pytest.raises(ValueError):
        solvability_weight(classify(0.5), 0.0)
    with pytest.raises(ValueError):
        solvability_weight(classify(0.5), np.array([0.5, 1.0]))


def test_functional_of_constant_is_weight_mass():
    reg = classify(0.5)
    got = solvability_functional(reg, lambda t: np.ones_like(t))
    assert got == pytest.approx(4.0 / math.sqrt(3.0), abs=1e-10)
    assert got == pytest.approx(2.3094011, abs=1e-7)


def _functional_reference(beta, f):
    """int_0^1 V f to 50 digits, from V(d) = V(1 - d) and x = d or 1 - d.

    V(d) grows like d^-e at the end, so d = u^p with p = 1/(1 - e) makes
    the integrand bounded in u; plain mp.quad on x misses by 4e-3 at
    beta = -0.95.
    """
    from mpmath import mp, mpf

    with mp.workdps(50):
        e = mpf(classify(beta).weight_exponent)
        p = 1 / (1 - e)

        def weight(d):
            if beta == 0.0:
                return mp.cos(mp.pi * d / 2 - mp.pi / 4) / mp.sqrt(
                    mp.sin(mp.pi * d))
            t = mp.tan(mp.pi * d / 2)
            return t**e + t**-e

        def integrand(u):
            d = u**p
            return weight(d) * (f(d) + f(1 - d)) * p * u**(p - 1)

        return float(mp.quad(integrand, [0, mpf(0.5)**(1 - e)]))


@pytest.mark.parametrize("beta", [0.0, 0.3, -0.6, 0.9])
@pytest.mark.parametrize("load", ["x^2", "exp-cos"])
def test_functional_matches_mpmath(beta, load):
    from mpmath import cos as mpcos, exp as mpexp

    f, f_mp = {
        "x^2": (lambda t: t * t, lambda t: t * t),
        "exp-cos": (lambda t: np.exp(t) * np.cos(3.0 * t),
                    lambda t: mpexp(t) * mpcos(3 * t)),
    }[load]
    want = _functional_reference(beta, f_mp)
    got = solvability_functional(classify(beta), f)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("beta", [0.5, -0.5, -0.95, 0.99, -0.99])
def test_functional_mass_closed_form(beta):
    # int_0^1 (tan^e + cot^e)(pi x/2) dx = 2 / cos(pi e / 2); the weight
    # blows up like (1 - x)^-e with e -> 1 as beta -> -1
    reg = classify(beta)
    want = 2.0 / math.cos(math.pi * reg.weight_exponent / 2.0)
    got = solvability_functional(reg, np.ones_like)
    assert abs(got - want) <= 1e-12 * want


def test_zero_beta_weight_is_half_the_tan_cot_sum():
    # the functional treats V at beta = 0 as (tan^e + cot^e)/2 with e = 1/2
    x = np.linspace(0.01, 0.99, 99)
    t = np.tan(np.pi * x / 2.0)
    half_sum = 0.5 * (np.sqrt(t) + 1.0 / np.sqrt(t))
    assert classify(0.0).weight_exponent == 0.5
    np.testing.assert_allclose(solvability_weight(classify(0.0), x),
                               half_sum, rtol=1e-15, atol=0)


def test_functional_detects_constructed_orthogonal_load():
    # cos(2 pi x) shifted by its own weighted mean is orthogonal to V
    reg = classify(0.5)
    basis = build_basis(0.5, 2)
    n2 = N_coeff(basis, 2)
    got = solvability_functional(reg, lambda t: np.cos(2 * np.pi * t) - n2)
    assert abs(got) < 1e-8


def test_functional_positive_for_weight_itself():
    for beta in (0.5, 0.0, 2.0):
        reg = classify(beta)
        val = solvability_functional(reg, lambda t: solvability_weight(reg, t))
        assert val > 0.0


def test_inverse_kills_constants_inside_unit():
    xs = np.array([0.2, 0.5, 0.8])
    for beta in (0.5, -0.5, 0.0):
        reg = classify(beta)
        vals = inverse_characteristic(reg, lambda t: np.ones_like(t), xs,
                                      check_solvability=False)
        np.testing.assert_allclose(vals, 0.0, atol=1e-11)


def test_inverse_maps_cosines_to_basis():
    basis = build_basis(0.5, 4)
    reg = classify(0.5)
    xs = np.linspace(0.1, 0.9, 9)
    for j in (1, 2, 3, 4):
        got = inverse_characteristic(reg, lambda t, j=j: np.cos(np.pi * j * t),
                                     xs, check_solvability=False)
        np.testing.assert_allclose(got, -basis.phi(j - 1, xs), atol=1e-9)


def test_inverse_of_negated_cosine_at_zero_beta():
    # matches the closed-form basis limit at rho1 = 3/4: the unique bounded
    # solution of the half-weight problem, cross-checked against the
    # spectral value -sqrt(2)... the inverse is phi_0 itself
    reg = classify(0.0)
    got = inverse_characteristic(reg, lambda t: -np.cos(np.pi * t), 0.5,
                                 check_solvability=False)
    assert got == pytest.approx(-math.sqrt(2.0), abs=1e-12)


def test_inverse_warns_on_unsolvable_load():
    reg = classify(0.5)
    with pytest.warns(UserWarning, match="solvability"):
        inverse_characteristic(reg, lambda t: np.ones_like(t), 0.4)


def _oscillatory_load():
    """A solvable load for beta = -2.83 (branch vanish-at-zero): g - c h
    with c fixed by the solvability functional, as a benchmark instance
    builds it."""
    reg = classify(-2.826342903713196, Branch.VANISH_AT_ZERO)

    def g(x):
        return np.sin(np.pi * x) ** 2 * (1.0 + 0.9957346707983379 * x
                                         + 0.5956723735875387
                                         * np.cos(np.pi * x))

    def h(x):
        return np.sin(np.pi * x) ** 2 * (x - 0.5)

    c = solvability_functional(reg, g) / solvability_functional(reg, h)
    return reg, lambda x: g(x) - c * h(x)


def test_inverse_below_minus_one_roundtrip_through_graded_oracle():
    # the inverse log-oscillates at an end; a 2^-12 end panel of the
    # oracle read this roundtrip at 1.005e-6 (768 nodes), 2^-24 at 6e-10
    reg, f = _oscillatory_load()
    xs = np.linspace(0.2, 0.8, 5)

    def phi(t):
        return inverse_characteristic(reg, f, t, check_solvability=False)
    gap = oracle.apply_S(phi, reg.beta, xs, oracle.PVRule(768)) - f(xs)
    # beta < -1 reproduces the load up to an additive constant
    assert np.ptp(gap) < 1e-8


def test_inverse_checks_solvability_on_its_own_nodes():
    # solvable to 1e-13; a 256-node check read 4.6e-6 and warned
    reg, f = _oscillatory_load()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inverse_characteristic(reg, f, np.arange(1, 42) / 42.0)


def test_oscillatory_inverse_near_an_endpoint():
    # tanh(s_x) - tanh(s) is about 4 x^2 (s - s_x) near a small x, which
    # fell under the pole mask and gave phi(1e-7) = 0.098 for a phi of
    # size 1e-3 elsewhere
    reg = classify(2.0)

    def f(t):
        return np.cos(np.pi * t)
    vals = [inverse_characteristic(reg, f, 1e-7, nodes=n,
                                   check_solvability=False)
            for n in (512, 2048)]
    assert abs(vals[0]) < 1e-6
    assert vals[0] == pytest.approx(vals[1], abs=1e-15)
    xs = np.array([0.2, 0.5, 0.8])

    def phi(t):
        return inverse_characteristic(reg, f, t, check_solvability=False)
    got = oracle.apply_S(phi, 2.0, xs, oracle.PVRule(1024))
    np.testing.assert_allclose(got, f(xs), atol=1e-12)


def test_inverse_domain_error():
    reg = classify(0.5)
    with pytest.raises(ValueError):
        inverse_characteristic(reg, lambda t: np.zeros_like(t), 0.0,
                               check_solvability=False)


@pytest.mark.parametrize("beta,f", [
    (0.5, lambda t: -np.cos(np.pi * t)),
    (-0.5, lambda t: -np.cos(np.pi * t)),
    (2.0, lambda t: np.cos(np.pi * t)),
])
def test_inverse_forward_roundtrip(beta, f):
    reg = classify(beta)
    xs = np.linspace(0.1, 0.9, 9)
    phi = lambda t: inverse_characteristic(reg, f, t, check_solvability=False)
    got = oracle.apply_S(phi, beta, xs, oracle.PVRule(512))
    np.testing.assert_allclose(got, f(xs), atol=1e-6)


def test_inverse_forward_roundtrip_at_unit_betas():
    xs = np.linspace(0.15, 0.85, 8)
    # mean-zero load for beta = 1; anything for beta = -1
    for beta, f in ((1.0, lambda t: np.cos(np.pi * t)),
                    (-1.0, lambda t: np.cos(2 * np.pi * t))):
        reg = classify(beta)
        phi = lambda t: inverse_characteristic(reg, f, t,
                                               check_solvability=False)
        got = oracle.apply_S(phi, beta, xs, oracle.PVRule(768))
        np.testing.assert_allclose(got, f(xs), atol=1e-6)


def _exp_cos_mean():
    """int_0^1 e^x cos 3x dx = (e (cos 3 + 3 sin 3) - 1) / 10, as an mpf."""
    from mpmath import mp

    return (mp.e * (mp.cos(3) + 3 * mp.sin(3)) - 1) / 10


def _unit_load(beta):
    """e^x cos 3x, its mean removed at beta = 1: (numpy, mpmath) callables."""
    from mpmath import mp

    with mp.workdps(30):
        mean = _exp_cos_mean() if beta == 1.0 else 0
    return (lambda t: np.exp(t) * np.cos(3.0 * t) - float(mean),
            lambda t: mp.exp(t) * mp.cos(3 * t) - mean)


def _unit_inverse_reference(beta, f, x):
    """The beta = +-1 closed form to 30 digits, by mpmath quadrature.

    phi(x) = -(1/2) int [cot(pi(xi-x)/2) -+ cot(pi(xi+x)/2)] f(xi) dxi,
    the moving pole taken by subtracting f(x), whose principal value is
    (2/pi) ln cot(pi x/2).  Breaks at x -+ 10^k min(x, 1 - x) resolve the
    scale x (or 1 - x) of the kernels next to an end.
    """
    from mpmath import mp, mpf

    with mp.workdps(30):
        x = mpf(x)
        fx, sign = f(x), (-1 if beta == 1.0 else 1)

        def g(xi):
            # tanh-sinh nodes may round onto x itself, where the limit is
            # finite and the point has no weight
            moving = ((f(xi) - fx) * mp.cot(mp.pi * (xi - x) / 2)
                      if xi != x else 0)
            return moving + sign * mp.cot(mp.pi * (xi + x) / 2) * f(xi)

        d = min(x, 1 - x)
        breaks = {mpf(0), x, mpf(1)}
        breaks |= {y for k in range(20) for y in (x - d * 10**k, x + d * 10**k)
                   if 0 < y < 1}
        pv = mp.quad(g, sorted(breaks)) + fx * 2 / mp.pi * mp.log(
            mp.cot(mp.pi * x / 2))
        return float(-pv / 2)


@pytest.mark.parametrize("beta", [1.0, -1.0])
def test_unit_beta_inverse_matches_mpmath_next_to_the_ends(beta):
    # at 1 - 1e-8, tan(pi x/2) itself rounds at 1e-8 relative
    f, f_mp = _unit_load(beta)
    cases = [(1e-12, 1e-12), (1e-8, 1e-12), (1e-4, 1e-12), (0.3, 1e-12),
             (1.0 - 1e-4, 1e-12), (1.0 - 1e-8, 1e-9)]
    xs = np.array([x for x, _ in cases])
    got = inverse_characteristic(classify(beta), f, xs,
                                 check_solvability=False)
    for (x, tol), val in zip(cases, got):
        want = _unit_inverse_reference(beta, f_mp, x)
        assert abs(val - want) <= tol * max(1.0, abs(want)), x


@pytest.mark.parametrize("beta, tol", [(1.0, 1e-12), (-1.0, 1e-8)])
@pytest.mark.parametrize("nodes", [512, 768, 1024, 2048])
def test_unit_beta_roundtrip_at_every_oracle_budget(beta, tol, nodes):
    # at 1024 nodes the oracle's panels have the inverse's own order
    f, _ = _unit_load(beta)
    reg = classify(beta)
    phi = lambda t: inverse_characteristic(reg, f, t, check_solvability=False)
    xs = np.linspace(0.2, 0.8, 5)
    got = oracle.apply_S(phi, beta, xs, oracle.PVRule(nodes))
    assert np.max(np.abs(got - f(xs))) <= tol


@pytest.mark.parametrize("beta", [1.0, -1.0])
def test_unit_beta_inverse_is_finite_at_the_extreme_doubles(beta):
    f, _ = _unit_load(beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = inverse_characteristic(classify(beta), f,
                                      np.array([5e-324, 1.0 - 2.0**-53]))
    assert np.all(np.isfinite(vals))


def test_plus_one_functional_matches_mpmath():
    from mpmath import mp

    reg = classify(1.0)
    assert abs(solvability_functional(reg, lambda t: t) - 0.5) <= 5e-15
    with mp.workdps(30):
        want = float(_exp_cos_mean())
    got = solvability_functional(reg, lambda t: np.exp(t) * np.cos(3.0 * t))
    assert abs(got - want) <= 5e-15


def test_inside_unit_inverse_converges_with_its_budget():
    # x^2 has nonzero end slopes, which are sqrt(1 -+ zeta) terms in
    # zeta = cos(pi x): a rule in zeta stalls, one in x converges
    reg = classify(-1.0 / 3.0)
    c = (solvability_functional(reg, lambda t: t * t, 4096)
         / solvability_functional(reg, np.ones_like, 4096))

    def g(t):
        return t * t - c
    xs = np.linspace(0.1, 0.9, 5)
    for nodes, tol in ((512, 5e-6), (2048, 5e-8)):
        def phi(t):
            return inverse_characteristic(reg, g, t, nodes=nodes,
                                          check_solvability=False)
        got = oracle.apply_S(phi, reg.beta, xs, oracle.PVRule(2048))
        assert np.max(np.abs(got - g(xs))) <= tol


def _inverse_reference(beta, f, x):
    """The |beta| < 1 closed form to 30 digits, by mpmath quadrature.

    phi(x) = (sin pi x / 2) [T^-e int tan^e(pi y/2) D(y) dy
                             + T^e int tan^-e(pi y/2) D(y) dy]
    with T = tan(pi x/2) and D(y) = (f(y) - f(x)) / (cos pi y - cos pi x).
    Each integral is split at x and taken from the nearer end, in y on
    [0, x] and in v = 1 - y on [x, 1]; d = u^p with p = 1/(1 - e) makes
    the end powers d^-e bounded in u.
    """
    from mpmath import mp, mpf

    with mp.workdps(30):
        e = mpf(classify(beta).weight_exponent)
        p = 1 / (1 - e)
        x = mpf(x)
        cx, fx = mp.cos(mp.pi * x), f(x)

        def d(fy, cy):
            # tanh-sinh nodes may round onto x itself, where D is 0/0
            return (fy - fx) / (cy - cx) if cy != cx else mpf(0)

        def from_end(g, a):
            return mp.quad(lambda u: g(u**p) * p * u**(p - 1),
                           [0, a**(1 / p)])

        parts = []
        for s in (e, -e):
            parts.append(
                from_end(lambda y: mp.tan(mp.pi * y / 2)**s
                         * d(f(y), mp.cos(mp.pi * y)), x)
                + from_end(lambda v: mp.cot(mp.pi * v / 2)**s
                           * d(f(1 - v), -mp.cos(mp.pi * v)), 1 - x))
        t = mp.tan(mp.pi * x / 2)
        return float(mp.sin(mp.pi * x) / 2 * (parts[0] / t**e
                                              + parts[1] * t**e))


@pytest.mark.parametrize("beta", [0.5, -0.5, 0.0])
@pytest.mark.parametrize("power", [2, 3])
def test_inside_unit_inverse_matches_mpmath_closed_form(beta, power):
    xs = np.array([0.05, 0.3, 0.7, 0.95])
    got = inverse_characteristic(classify(beta), lambda t: t**power, xs,
                                 check_solvability=False)
    for x, val in zip(xs, got):
        want = _inverse_reference(beta, lambda t: t**power, x)
        assert abs(val - want) <= 1e-11 * max(1.0, abs(want))


def test_inverse_and_its_check_share_one_rule():
    from fixsing import _quad

    _quad._gauss_jacobi_cached.cache_clear()
    # cos(pi x) is odd about x = 1/2 and V is even, so the load is solvable
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inverse_characteristic(classify(0.37), lambda t: np.cos(np.pi * t),
                               np.array([0.2, 0.6]))
    assert _quad._gauss_jacobi_cached.cache_info().currsize == 1


def test_endpoint_asymptotics_table():
    a = endpoint_asymptotics(classify(0.0))
    assert (a.exponent_at_0, a.exponent_at_1) == (0.5, 0.5)
    assert not a.oscillatory_at_0 and a.log_frequency == 0.0

    a = endpoint_asymptotics(classify(0.5))
    assert a.exponent_at_0 == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert a.exponent_at_1 == pytest.approx(2.0 / 3.0, abs=1e-14)

    a = endpoint_asymptotics(classify(-0.5))
    assert a.exponent_at_0 == pytest.approx(1.0 / 3.0, abs=1e-14)

    reg = classify(2.0)
    a = endpoint_asymptotics(reg)
    assert (a.exponent_at_0, a.exponent_at_1) == (1.0, 1.0)
    assert a.oscillatory_at_0 and a.oscillatory_at_1
    assert a.log_frequency == pytest.approx(2.0 * reg.epsilon)

    a = endpoint_asymptotics(classify(-2.0, Branch.VANISH_AT_ZERO))
    assert (a.exponent_at_0, a.exponent_at_1) == (2.0, 0.0)
    a = endpoint_asymptotics(classify(-2.0, Branch.VANISH_AT_ONE))
    assert (a.exponent_at_0, a.exponent_at_1) == (0.0, 2.0)


@pytest.mark.parametrize("beta", [0.5, -0.5, 0.0])
def test_inverse_endpoint_exponent_fit(beta):
    reg = classify(beta)
    want = endpoint_asymptotics(reg).exponent_at_0
    pts = np.array([1e-3, 1e-2])
    vals = inverse_characteristic(reg, lambda t: -np.cos(np.pi * t), pts,
                                  check_solvability=False)
    fit = math.log(abs(vals[1] / vals[0])) / math.log(pts[1] / pts[0])
    assert abs(fit - want) / want < 0.05


def test_below_minus_one_branches():
    # construct a load satisfying the branch's solvability condition and
    # check the solution dies at the right end
    for branch, dead_end in ((Branch.VANISH_AT_ONE, 0.999),
                             (Branch.VANISH_AT_ZERO, 0.001)):
        reg = classify(-2.0, branch)
        base = lambda t: np.sin(np.pi * t) ** 2
        tilt = lambda t: np.sin(np.pi * t) ** 2 * (t - 0.5)
        i0 = solvability_functional(reg, base)
        i1 = solvability_functional(reg, tilt)
        c = -i0 / i1
        f = lambda t: base(t) * (1.0 + c * (t - 0.5))
        assert abs(solvability_functional(reg, f)) < 1e-10
        live_end = 1.0 - dead_end
        vals = inverse_characteristic(reg, f, np.array([dead_end, live_end]),
                                      check_solvability=False)
        assert abs(vals[0]) < 0.05 * max(abs(vals[1]), 1e-3)


def test_oscillatory_inverse_below_minus_one_consistent_up_to_constant():
    # the closed forms in this regime reproduce the load only modulo an
    # additive constant (the applications carry a free constant on the
    # right-hand side, which absorbs it); the forward image of the inverse
    # must therefore be f plus an x-independent shift
    reg = classify(-2.0, Branch.VANISH_AT_ONE)
    base = lambda t: np.sin(np.pi * t) ** 2
    tilt = lambda t: np.sin(np.pi * t) ** 2 * (t - 0.5)
    c = -solvability_functional(reg, base) / solvability_functional(reg, tilt)
    f = lambda t: base(t) * (1.0 + c * (t - 0.5))
    xs = np.linspace(0.2, 0.8, 5)
    phi = lambda t: inverse_characteristic(reg, f, t, check_solvability=False)
    got = oracle.apply_S(phi, -2.0, xs, oracle.PVRule(768))
    gap = got - f(xs)
    assert np.ptp(gap) < 1e-6


@pytest.mark.parametrize("beta", [2.0, 3.5])
def test_oscillatory_inverse_vanishes_linearly_close_to_both_ends(beta):
    # the endpoint exponent is 1 for beta > 1; at x = 1e-12 the pole
    # s_x = log tan(pi x / 2) = -27 lies 7 inside the default window
    # |s| <= 34, too close for its e^-|s - s_x| tail
    reg = classify(beta)
    f = lambda t: np.cos(np.pi * t)
    x = np.array([1e-8, 1e-10, 1e-12])
    near0 = inverse_characteristic(reg, f, x, check_solvability=False)
    near1 = inverse_characteristic(reg, f, 1.0 - x, check_solvability=False)
    assert np.all(np.abs(near0) <= 10.0 * x)
    assert np.all(np.abs(near1) <= 10.0 * x)


def test_widened_oscillatory_window_keeps_the_values_inside():
    reg = classify(2.0)
    f = lambda t: np.cos(np.pi * t)
    mid = np.linspace(0.05, 0.95, 19)
    alone = inverse_characteristic(reg, f, mid, check_solvability=False)
    widened = inverse_characteristic(reg, f, np.append(mid, 1e-12),
                                     check_solvability=False)
    assert np.max(np.abs(widened[:-1] - alone)) < 1e-14
    # however close to an end, a point widens the window without overflow
    far = inverse_characteristic(reg, f, np.append(mid, 1e-200),
                                 check_solvability=False)
    assert np.all(np.isfinite(far)) and abs(far[-1]) <= 1e-13


ODD_LOADS = [lambda t: np.cos(np.pi * t), lambda t: np.cos(3.0 * np.pi * t),
             lambda t: t - 0.5]


@pytest.mark.parametrize("beta", [1.2, 2.0, 3.5])
@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize("load", range(len(ODD_LOADS)))
def test_oscillatory_inverse_is_finite_at_every_interior_double(beta, branch,
                                                                load):
    # the linear end decay puts phi below 1e-13 at each point; none of the
    # far rule's overflows (exp(s), sinh(ds) past 709) may warn
    xs = np.array([1e-149, 1e-200, 1e-300, 5e-324, 1.0 - 2.0**-53])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = inverse_characteristic(classify(beta, branch),
                                      ODD_LOADS[load], xs)
    assert np.all(np.isfinite(vals)) and np.max(np.abs(vals)) <= 1e-13


def test_below_minus_one_inverse_is_finite_next_to_its_vanishing_end():
    reg = classify(-2.0, Branch.VANISH_AT_ZERO)
    base = lambda t: np.sin(np.pi * t) ** 2
    tilt = lambda t: np.sin(np.pi * t) ** 2 * (t - 0.5)
    c = -solvability_functional(reg, base) / solvability_functional(reg, tilt)
    f = lambda t: base(t) * (1.0 + c * (t - 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = inverse_characteristic(reg, f, np.array([1e-300, 5e-324]))
    assert np.all(np.isfinite(vals)) and np.max(np.abs(vals)) <= 1e-13


@pytest.mark.parametrize("beta", [-1.7, -2.0, -3.0])
def test_below_minus_one_inverse_is_finite_at_its_oscillatory_end(beta):
    # below x ~ 1e-293 the distance ds from s_x to the window passes 709,
    # where e^{ds} and sinh(ds) alone would overflow
    reg = classify(beta, Branch.VANISH_AT_ONE)
    base = lambda t: np.sin(np.pi * t) ** 2
    tilt = lambda t: np.sin(np.pi * t) ** 2 * (t - 0.5)
    c = -solvability_functional(reg, base) / solvability_functional(reg, tilt)
    f = lambda t: base(t) * (1.0 + c * (t - 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = inverse_characteristic(reg, f, np.array([1e-295, 1e-300,
                                                        5e-324]))
    assert np.all(np.isfinite(vals)) and np.max(np.abs(vals)) <= 10.0


@settings(max_examples=50, deadline=None)
@given(beta=st.floats(1.05, 4.0), a=st.floats(-1.0, 1.0),
       b=st.floats(-1.0, 1.0), c=st.floats(-1.0, 1.0),
       k=st.integers(3, 323))
def test_oscillatory_inverse_vanishes_linearly_at_both_ends(beta, a, b, c, k):
    # a load odd about x = 1/2 is solvable for beta > 1, and its solution
    # decays like the distance to either end
    f = lambda t: (a * np.cos(np.pi * t) + b * np.cos(3.0 * np.pi * t)
                   + c * (t - 0.5))
    x = 10.0 ** -k
    xs = np.array([x, 1.0 - x] if k <= 15 else [x])
    vals = inverse_characteristic(classify(beta), f, xs)
    bound = 20.0 * (abs(a) + abs(b) + abs(c)) * np.minimum(xs, 1.0 - xs)
    assert np.all(np.isfinite(vals))
    assert np.all(np.abs(vals) <= bound + 1e-12)


@pytest.mark.parametrize("beta", [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
@pytest.mark.parametrize("nodes", [-1, 0, 8, 15])
def test_node_budget_below_16_raises_in_every_regime(beta, nodes):
    reg = classify(beta)
    f = lambda t: np.cos(np.pi * t)
    with pytest.raises(ValueError, match="need at least 16 nodes"):
        solvability_functional(reg, f, nodes)
    for check in (True, False):
        with pytest.raises(ValueError, match="need at least 16 nodes"):
            inverse_characteristic(reg, f, 0.3, nodes=nodes,
                                   check_solvability=check)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, -1.0, 2.0, -2.0])
def test_scalar_load_is_broadcast(beta):
    reg = classify(beta)
    xs = np.linspace(0.1, 0.9, 7)
    const, full = (lambda t: 0.7), (lambda t: np.full_like(t, 0.7))
    assert (solvability_functional(reg, const)
            == solvability_functional(reg, full))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = inverse_characteristic(reg, const, xs)
        want = inverse_characteristic(reg, full, xs)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("beta", [-1.7, -2.0, -3.0])
@pytest.mark.parametrize("branch", list(Branch))
def test_functional_below_minus_one_integrates_the_weight(beta, branch):
    from scipy.integrate import quad

    reg = classify(beta, branch)
    f = lambda t: np.sin(np.pi * t) ** 2 * (1.0 + t)
    want, _ = quad(lambda t: solvability_weight(reg, t) * f(t), 0.0, 1.0,
                   epsabs=1e-13, epsrel=1e-13, limit=200)
    assert abs(solvability_functional(reg, f) - want) <= 1e-11


@pytest.mark.parametrize("beta, exponent", [(1.0, 1.0), (-1.0, 0.0)])
def test_endpoint_asymptotics_at_unit_betas(beta, exponent):
    a = endpoint_asymptotics(classify(beta))
    assert (a.exponent_at_0, a.exponent_at_1) == (exponent, exponent)
    assert not a.oscillatory_at_0 and not a.oscillatory_at_1
    assert a.log_frequency == 0.0


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, -1.0, 2.0, -2.0])
def test_nonfinite_load_raises_from_the_inverse(beta):
    with pytest.raises(ValueError, match="not finite"):
        inverse_characteristic(classify(beta), lambda t: np.nan * t,
                               np.linspace(0.1, 0.9, 5))


@pytest.mark.parametrize("beta", [0.0, 0.5, -0.5, 1.0, 2.0, -2.0])
def test_nonfinite_load_raises_from_the_functional(beta):
    with pytest.raises(ValueError, match="not finite"):
        solvability_functional(classify(beta), lambda t: np.nan * t)


def test_functional_at_minus_one_does_not_sample_the_load():
    assert solvability_functional(classify(-1.0), lambda t: np.nan * t) == 0.0
