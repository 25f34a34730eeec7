"""Problem kernels: antiplane reflection series, plane-strain constants,
the endpoint-exponent root, and stable kernel evaluation."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fixsing.kernels import (_TAYLOR_RADIUS, AntiplaneParams, NoBracketError,
                             PlaneStrainParams, _polylog, _reflection_rows,
                             antiplane_D, antiplane_R, antiplane_kernel,
                             cot_gap, fixed_gap, gamma0_root, lambda_fn,
                             plane_strain_coeffs, plane_strain_kernel)
from fixsing.complete import SolveConfig, _corner_symbol, solve
from fixsing import cauchy, oracle
from plane_strain_reference import elastic_constants, first_root, mellin_symbol


def test_antiplane_params():
    p = AntiplaneParams(lam=0.5)
    assert p.beta == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert abs(AntiplaneParams(lam=3.0).beta) < 1.0
    with pytest.raises(ValueError):
        AntiplaneParams(lam=0.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_antiplane_params_reject_nonfinite(lam):
    with pytest.raises(ValueError, match="finite"):
        AntiplaneParams(lam=lam)


def test_reflection_series_vanishes_without_contrast():
    assert antiplane_D(0.3, 0.0) == 0.0


def test_reflection_series_log_identity():
    # at argument zero the series telescopes to -(1/2) ln(1 - beta^2)
    got = antiplane_D(0.0, 0.5, tol=1e-14)
    assert got == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)


def test_reflection_series_against_direct_summation():
    x = np.array([1.0])
    direct = sum(0.9 ** (2 * j) / (1.0 + 2 * j) for j in range(1, 2001))
    got = antiplane_D(x, 0.9, tol=1e-12)[0]
    assert got == pytest.approx(direct, abs=1e-11)


def test_reflection_series_tail_bound():
    grid = np.linspace(0.0, 1.9, 9)
    for beta in (0.3, 0.6, 0.9):
        direct = np.zeros_like(grid)
        for j in range(1, 3001):
            direct += beta ** (2 * j) / (grid + 2 * j)
        for tol in (1e-6, 1e-10):
            got = antiplane_D(grid, beta, tol=tol)
            assert np.max(np.abs(got - direct)) < tol


def test_reflection_series_domain():
    with pytest.raises(ValueError):
        antiplane_D(-2.5, 0.5)


def test_cot_gap_diagonal_and_high_precision_reference():
    assert cot_gap(0.0) == 0.0
    from mpmath import mp, mpf, cot as mpcot, pi as mppi

    mp.dps = 40
    # the direct float difference loses eight digits here; both branches
    # must track the high-precision value instead
    for u in (5e-5, -5e-5, 1.2e-4, -1.2e-4, 5e-4, 0.3):
        ref = float(1 / (mppi * mpf(u)) - mpcot(mppi * mpf(u) / 2) / 2)
        assert cot_gap(u) == pytest.approx(ref, rel=1e-11, abs=1e-18)
    # continuity across the switch radius: only the genuine slope remains
    delta = 1e-8
    jump = cot_gap(1e-4 + delta) - cot_gap(1e-4 - delta)
    assert abs(jump) < np.pi / 12.0 * 2.0 * delta + 1e-11


def test_fixed_gap_regular_at_both_corners():
    v = np.array([1e-9, 0.5, 1.0, 1.5, 2.0 - 1e-9])
    vals = fixed_gap(v)
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(-1.0 / (2.0 * np.pi), abs=1e-6)
    assert vals[-1] == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-6)
    # antisymmetric about the midpoint of its range
    assert fixed_gap(0.7) == pytest.approx(-fixed_gap(1.3), abs=1e-14)


def test_antiplane_kernel_without_contrast():
    kern = antiplane_kernel(AntiplaneParams(lam=1.0))
    want = 1.0 / (np.pi * 0.4) - 0.5 / np.tan(0.2 * np.pi)
    assert kern.regular_part(0.3, 0.7) == pytest.approx(want, rel=1e-13)
    assert kern.beta == 0.0


def test_antiplane_kernel_against_high_precision_reference():
    # term-by-term re-evaluation in 40-digit arithmetic
    from mpmath import mp, mpf, cot as mpcot, pi as mppi

    mp.dps = 40
    lam, x, xi = mpf("0.5"), mpf("0.25"), mpf("0.75")
    beta = (lam - 1) / (lam + 1)

    def d_mp(y):
        return sum(beta ** (2 * j) / (y + 2 * j) for j in range(1, 400))

    s, u = xi + x, x - xi
    r = (beta * (d_mp(s) - d_mp(2 - s))
         + beta**2 * (d_mp(2 - u) - d_mp(2 + u) + 2 * u / (4 - u * u)))
    ref = ((1 / (xi - x) + beta / s + beta / (s - 2) + r) / mppi
           - mpcot(mppi * (xi - x) / 2) / 2 - beta / 2 * mpcot(mppi * s / 2))
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    assert kern.regular_part(0.25, 0.75) == pytest.approx(float(ref),
                                                          abs=1e-13)


def test_antiplane_kernel_finite_on_diagonal():
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    xs = np.linspace(0.01, 0.99, 21)
    vals = kern.regular_part(xs, xs)
    assert np.all(np.isfinite(vals))


def test_plane_strain_coeffs_homogeneous():
    p = plane_strain_coeffs(1.0, 1.0, 0.3, 0.3)
    assert p.mu0 == pytest.approx(1.0)
    assert p.nu0 == pytest.approx(0.0, abs=1e-15)
    assert p.delta0 == pytest.approx(16.0)
    assert (p.b1, p.b2, p.b3) == (0.0, 0.0, 0.0)


def test_plane_strain_coeffs_validation():
    with pytest.raises(ValueError):
        plane_strain_coeffs(-1.0, 1.0, 0.3, 0.3)
    with pytest.raises(ValueError):
        plane_strain_coeffs(1.0, 1.0, 0.0, 0.3)


def test_plane_strain_params_derive_their_constants():
    # the constructor takes the four elastic constants and derives the
    # rest; a derived field can no longer be left at a default
    p = PlaneStrainParams(2.0, 1.0, 0.3, 0.3)
    assert p == plane_strain_coeffs(2.0, 1.0, 0.3, 0.3)
    assert p.gamma0 == 0.5661093343051119
    x, xi = np.meshgrid(np.linspace(0.05, 0.95, 7), np.linspace(0.1, 0.9, 5))
    np.testing.assert_array_equal(
        plane_strain_kernel(p).regular_part(x, xi),
        plane_strain_kernel(plane_strain_coeffs(2.0, 1.0, 0.3, 0.3))
        .regular_part(x, xi))


@pytest.mark.parametrize("args", [(-1.0, 1.0, 0.3, 0.3),
                                  (1.0, 1.0, 0.0, 0.3),
                                  (1.0, 1.0, 0.3, 0.6)])
def test_plane_strain_params_validate_at_construction(args):
    with pytest.raises(ValueError):
        PlaneStrainParams(*args)


@settings(max_examples=200, deadline=None)
@given(g1=st.floats(1e-150, 1e150), g2=st.floats(1e-150, 1e150),
       nu1=st.floats(0.0, 0.5, exclude_min=True),
       nu2=st.floats(0.0, 0.5, exclude_min=True))
@example(g1=1e-150, g2=1e150, nu1=0.5, nu2=1e-300)
@example(g1=1e150, g2=1e-150, nu1=1e-300, nu2=0.5)
@example(g1=1e-150, g2=1e150, nu1=1e-300, nu2=0.5)
@example(g1=1e150, g2=1e-150, nu1=0.5, nu2=1e-300)
def test_delta0_exceeds_two_on_the_validated_domain(g1, g2, nu1, nu2):
    # nu0 lies in (-mu0, 1), so 3 + mu0 - nu0 > 2 and 1 + 3 mu0 + nu0 > 1:
    # delta0 > 2 for any accepted constants, and no division by it fails.
    # The moduli stay within 1e+-150, so that mu0 ~ G1/G2 is a finite
    # float; at the largest ratios delta0 ~ mu0^2 overflows, and the
    # constants are rejected as not finite
    try:
        p = PlaneStrainParams(g1, g2, nu1, nu2)
    except ValueError as exc:
        assert "finite" in str(exc) and g1 / g2 > 1e150
        return
    assert p.delta0 > 2.0
    assert all(map(math.isfinite, (p.delta0, p.b1, p.b2, p.b3)))


def test_plane_strain_params_reject_derived_arguments():
    with pytest.raises(TypeError):
        PlaneStrainParams(1.0, 1.0, 0.3, 0.3, b1=0.0)


@pytest.mark.parametrize("args", [(math.nan, 1.0, 0.3, 0.3),
                                  (math.inf, 1.0, 0.3, 0.3),
                                  (1.0, math.inf, 0.3, 0.3),
                                  (1.0, 1.0, 0.3, math.nan),
                                  # delta0 overflows, b1 is NaN
                                  (1e154, 1.0, 0.3, 0.3),
                                  # mu0 overflows; G2 (1 - nu1) underflows
                                  (1.0, 5e-324, 0.3, 0.3),
                                  (1.0, 5e-324, 0.5, 0.3)])
def test_plane_strain_params_reject_nonfinite(args):
    with pytest.raises(ValueError):
        plane_strain_coeffs(*args)
    with pytest.raises(ValueError, match="finite"):
        PlaneStrainParams(*args)


def test_exponent_function_homogeneous_values():
    p = plane_strain_coeffs(1.0, 1.0, 0.3, 0.3)
    assert lambda_fn(0.5, p) == pytest.approx(0.0, abs=1e-12)
    assert lambda_fn(0.0, p) == pytest.approx(16.0)


def test_exponent_root_homogeneous():
    p = plane_strain_coeffs(1.0, 1.0, 0.3, 0.3)
    g = gamma0_root(p)
    assert g == pytest.approx(0.5, abs=1e-10)
    assert p.beta_eff == pytest.approx(0.0, abs=1e-12)


def test_exponent_root_large_stiffness_limit():
    # the root of the exponent equation at lambda = 1e8 (reference value
    # from 50-digit evaluation of the same equation)
    p = plane_strain_coeffs(1e8, 1.0, 0.3, 0.3)
    g = gamma0_root(p)
    assert g == pytest.approx(0.7111729278, abs=1e-8)


def test_exponent_root_is_independently_confirmed():
    # endpoint analysis of the kernel gives the equivalent equation
    # 2 cos(pi g) + b1 (g+1)(g+2) - b2 g(g+1) - b3 g(1-g) = 0, derived via
    # the Mellin transform of the cubic-denominator terms: its 60-digit root
    # from constants rebuilt in mpmath confirms gamma0 over lambda in
    # [1e-4, 1e6], and the kernel's own corner symbol vanishes there
    for k in range(-8, 13):
        lam = 10.0 ** (k / 2)
        p = plane_strain_coeffs(lam, 1.0, 0.3, 0.3)
        g = gamma0_root(p)
        want = first_root(mellin_symbol(elastic_constants(lam, 0.3, 0.3, 60)),
                          dps=60)
        assert abs(g - want) <= 1e-12 * want, lam
        kern = plane_strain_kernel(p)
        assert abs(_corner_symbol(kern.beta, kern.corner_form, g)[0]) <= 1e-14


def test_exponent_root_monotone_trend():
    gs = []
    for lam in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
        p = plane_strain_coeffs(lam, 1.0, 0.3, 0.3)
        gs.append(gamma0_root(p))
    assert np.all(np.diff(gs) > 0.0)
    assert gs[0] < 0.5 and gs[1] < 0.5  # stiffer strip pulls the root down


def test_exponent_root_residual_and_simple_root():
    p = plane_strain_coeffs(0.5, 1.0, 0.3, 0.3)
    g = gamma0_root(p)
    assert abs(lambda_fn(g, p)) < 1e-9
    h = 1e-6
    slope = (lambda_fn(g + h, p) - lambda_fn(g - h, p)) / (2.0 * h)
    assert abs(slope) > 1.0


def test_exponent_root_no_bracket(monkeypatch):
    p = plane_strain_coeffs(1.0, 1.0, 0.3, 0.3)
    monkeypatch.setattr("fixsing.kernels._corner_symbol",
                        lambda beta, form, a: (np.ones_like(a), np.ones_like(a)))
    with pytest.raises(NoBracketError):
        gamma0_root(p)


def test_exponent_root_newton_leaving_the_bracket(monkeypatch):
    # a sign change in [0.300, 0.301] whose slope points the wrong way:
    # the Newton iterates run off, and the bracket's guarantee holds
    p = plane_strain_coeffs(1.0, 1.0, 0.3, 0.3)
    monkeypatch.setattr("fixsing.kernels._corner_symbol",
                        lambda beta, form, a: (a - 0.3004, -np.ones_like(a)))
    with pytest.raises(NoBracketError, match="left the exponent bracket"):
        gamma0_root(p)


def test_plane_strain_kernel_homogeneous_reduces_to_difference_kernel():
    p = plane_strain_coeffs(1.0, 1.0, 0.3, 0.3)
    gamma0_root(p)
    kern = plane_strain_kernel(p)
    ref = antiplane_kernel(AntiplaneParams(lam=1.0))
    rng = np.random.default_rng(1)
    x = rng.uniform(0.01, 0.99, 200)
    xi = rng.uniform(0.01, 0.99, 200)
    np.testing.assert_allclose(kern.regular_part(x, xi),
                               ref.regular_part(x, xi), atol=1e-13)


def test_plane_strain_kernel_split_is_exact():
    # singular part plus regular part reassembles the dominant kernel
    p = plane_strain_coeffs(0.5, 1.0, 0.3, 0.3)
    gamma0_root(p)
    kern = plane_strain_kernel(p)
    rng = np.random.default_rng(2)
    x = rng.uniform(0.01, 0.99, 500)
    xi = rng.uniform(0.01, 0.99, 500)
    sing = (0.5 / np.tan(np.pi * (xi - x) / 2.0)
            + p.beta_eff * 0.5 / np.tan(np.pi * (xi + x) / 2.0))
    q = (p.b1 * xi**2 + p.b2 * xi * x + p.b3 * x**2) / (xi + x) ** 3
    qm = (p.b1 * (xi - 1) ** 2 + p.b2 * (xi - 1) * (x - 1)
          + p.b3 * (x - 1) ** 2) / (xi + x - 2) ** 3
    direct = (1.0 / (xi - x) + q + qm) / np.pi
    np.testing.assert_allclose(sing + kern.regular_part(x, xi), direct,
                               rtol=1e-12, atol=1e-12)


def test_plane_strain_kernel_center_value_reference():
    # 40-digit term-by-term evaluation at the center point
    from mpmath import mp, mpf, cot as mpcot, pi as mppi

    mp.dps = 40
    p = plane_strain_coeffs(0.5, 1.0, 0.3, 0.3)
    gamma0_root(p)
    kern = plane_strain_kernel(p)
    x = xi = mpf("0.25")
    beta = mpf(p.beta_eff)
    s, sm = xi + x, xi + x - 2
    q = (mpf(p.b1) * xi**2 + mpf(p.b2) * xi * x + mpf(p.b3) * x**2) / s**3
    qm = (mpf(p.b1) * (xi - 1) ** 2 + mpf(p.b2) * (xi - 1) * (x - 1)
          + mpf(p.b3) * (x - 1) ** 2) / sm**3
    # on the diagonal the moving difference vanishes and the rational
    # beta/s + beta/sm pieces cancel against their cot counterparts
    ref = (q + qm) / mppi - beta / 2 * mpcot(mppi * s / 2)
    assert kern.regular_part(0.25, 0.25) == pytest.approx(float(ref),
                                                          abs=1e-13)


def test_plane_strain_corner_weighted_integrability():
    # | quadratic remainder | against the solution's endpoint power stays
    # integrable toward the corner: grid refinement converges
    from fixsing.regimes import classify

    p = plane_strain_coeffs(0.5, 1.0, 0.3, 0.3)
    gamma0_root(p)
    rho1 = classify(p.beta_eff).rho1
    vals = []
    for n in (1000, 2000, 4000):
        g = (np.arange(n) + 0.5) / n * 0.1
        x, xi = np.meshgrid(g, g)
        s = xi + x
        r = np.abs((p.b1 * xi**2 + p.b2 * xi * x + p.b3 * x**2
                    - p.beta_eff * s * s) / s**3)
        vals.append(float(np.sum(r * xi ** (2.0 - 2.0 * rho1))
                          * (0.1 / n) ** 2))
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
    assert abs(vals[2] - vals[1]) / vals[2] < 1e-3


def test_opening_grows_as_strip_stiffens():
    vals = []
    for lam in (0.5, 1.0, 2.0):
        if lam == 1.0:
            sol = cauchy.cauchy_solve(lambda x, xi: np.zeros_like(x * xi),
                                      lambda x: x, N=8)
        else:
            kern = antiplane_kernel(AntiplaneParams(lam=lam))
            sol = solve(kern, lambda x: x, SolveConfig(N=10, t1=100, t2=110),
                        diagnostics=False)
        vals.append(sol.evaluate(0.5))
    assert vals[0] > vals[1] > vals[2]


def _cot_gap_two_branch(u):
    """cot_gap as both np.where branches over the whole array."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < _TAYLOR_RADIUS
    safe = np.where(small, 1.0, u)
    direct = 1.0 / (np.pi * safe) - 0.5 / np.tan(np.pi * safe / 2.0)
    u2 = u * u
    series = u * (np.pi / 12.0
                  + u2 * (np.pi**3 / 720.0 + u2 * np.pi**5 / 30240.0))
    out = np.where(small, series, direct)
    return out if u.ndim else float(out)


def _fixed_gap_two_branch(v):
    """fixed_gap with one cot_gap per pole over the whole array."""
    v = np.asarray(v, dtype=float)
    lower = v < 1.0
    out = np.where(
        lower,
        _cot_gap_two_branch(v) + 1.0 / (np.pi * (np.where(lower, v, 0.0) - 2.0)),
        _cot_gap_two_branch(v - 2.0) + 1.0 / (np.pi * np.where(lower, 2.0, v)),
    )
    return out if v.ndim else float(out)


def test_gap_blocks_equal_the_two_branch_formulas():
    r = _TAYLOR_RADIUS
    u = np.concatenate([np.linspace(-1.5, 1.5, 3001),
                        np.linspace(-2.0 * r, 2.0 * r, 4001),
                        [0.0, r, -r, np.nextafter(r, 0.0),
                         np.nextafter(-r, 0.0)]])
    np.testing.assert_array_equal(cot_gap(u), _cot_gap_two_branch(u))
    grid = u[:3000].reshape(60, 50)
    np.testing.assert_array_equal(cot_gap(grid), _cot_gap_two_branch(grid))
    v = np.concatenate([np.linspace(1e-3, 2.0 - 1e-3, 3001),
                        np.linspace(0.99, 1.01, 2001),
                        [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]])
    np.testing.assert_array_equal(fixed_gap(v), _fixed_gap_two_branch(v))
    for s in (0.0, 0.5 * r, r, -0.3, 1.5):
        got = cot_gap(s)
        assert type(got) is float and got == _cot_gap_two_branch(s)
    for s in (0.5 * r, 0.5, 1.0, 1.5, 2.0 - 0.5 * r):
        got = fixed_gap(s)
        assert type(got) is float and got == _fixed_gap_two_branch(s)
    assert cot_gap(0.0) == 0.0


@pytest.mark.parametrize("kern", [
    *(antiplane_kernel(AntiplaneParams(lam=lam))
      for lam in (1e-4, 0.01, 0.5, 100.0, 1e4)),
    *(plane_strain_kernel(plane_strain_coeffs(lam, 1.0, 0.3, 0.3))
      for lam in (0.01, 2.0, 100.0))],
    ids=["antiplane-1e-4", "antiplane-0.01", "antiplane-0.5",
         "antiplane-100", "antiplane-1e4", "plane-strain-0.01",
         "plane-strain-2", "plane-strain-100"])
def test_factory_kernels_are_odd_under_reflection(kern):
    # the crack spans the strip: K(1 - x, 1 - xi) = -K(x, xi); the bound is
    # per point, not scaled by max |K|, which is only 6e-4 at
    # lambda = 1e+-4 against O(1) cot terms
    x, xi = np.random.default_rng(18).uniform(0.001, 0.999, (2, 400))
    k = kern.regular_part(x, xi)
    gap = np.abs(kern.regular_part(1.0 - x, 1.0 - xi) + k)
    assert np.all(gap <= 1e-13 * np.maximum(1.0, np.abs(k)))


def test_plane_strain_params_are_frozen_and_derive_the_root():
    p = plane_strain_coeffs(0.5, 1.0, 0.3, 0.3)
    g = gamma0_root(p)
    # the root call leaves the constants untouched
    assert p == plane_strain_coeffs(0.5, 1.0, 0.3, 0.3)
    assert p.gamma0 == g
    assert p.beta_eff == -math.cos(math.pi * g)
    with pytest.raises(AttributeError):
        p.gamma0 = 0.3
    with pytest.raises(AttributeError):
        p.b1 = 0.0
    # no root call is needed before the kernel is built
    fresh = plane_strain_coeffs(0.5, 1.0, 0.3, 0.3)
    assert plane_strain_kernel(fresh).beta == p.beta_eff


def test_root_call_then_kernel_scans_once(monkeypatch):
    # gamma0_root and the kernel share one root per params, and one scan
    # of the corner symbol finds it
    import fixsing.kernels as kernels

    scans = []

    def counted(beta, form, a):
        if np.ndim(a):
            scans.append(len(a))
        return _corner_symbol(beta, form, a)

    monkeypatch.setattr(kernels, "_corner_symbol", counted)
    p = plane_strain_coeffs(0.123, 1.0, 0.3, 0.3)
    g = gamma0_root(p)
    plane_strain_kernel(p)
    assert p.gamma0 == g
    assert gamma0_root(p) == g
    assert scans == [999]


_REFLECTION_X = np.array([0.0, 1.0, 0.0, 0.37, 0.92, 0.05, 0.61])
_REFLECTION_XI = np.array([0.0, 1.0, 1.0, 0.58, 0.11, 0.97, 0.61])


@functools.lru_cache(maxsize=None)
def _reflection_reference(beta):
    """30-digit R at the points above, from the Lerch form of the series,
    D(y) = (b^2/2) Phi(b^2, 1, y/2 + 1) (DLMF 25.14.1)."""
    from mpmath import lerchphi, mp, mpf

    mp.dps = 30
    b = mpf(beta)
    z = b * b

    def d_mp(y):
        return z / 2 * lerchphi(z, 1, y / 2 + 1)

    out = []
    for xa, xb in zip(_REFLECTION_X, _REFLECTION_XI):
        s, u = mpf(xa) + mpf(xb), mpf(xa) - mpf(xb)
        out.append(float(b * (d_mp(s) - d_mp(2 - s))
                         + z * (d_mp(2 - u) - d_mp(2 + u)
                                + 2 * u / (4 - u * u))))
    return np.array(out)


@pytest.mark.parametrize("lam", [1e-8, 1e-4, 5e-4, 1e-3, 0.1, 0.5, 3.0,
                                 100.0, 1e3, 2e3, 1e4, 1e8])
def test_paired_reflection_sums_against_lerch_reference(lam):
    beta = AntiplaneParams(lam=lam).beta
    got = antiplane_R(_REFLECTION_X, _REFLECTION_XI, beta)
    want = _reflection_reference(beta)
    assert np.max(np.abs(got - want)) < 2e-15


_POLYLOG_Z = [1e-3, 0.3, 0.5, 0.5 + 1e-12, 0.9, 1.0 - 1e-12]


@pytest.mark.parametrize("z", _POLYLOG_Z)
def test_dilog_against_mpmath(z):
    # the series below 1/2, the expansion in ln z from there on
    from mpmath import mp, mpf, polylog

    mp.dps = 30
    want = polylog(2, mpf(z))
    assert abs(_polylog(2, z) - want) <= 4e-16 * want


@pytest.mark.parametrize("s", [4, 6])
@pytest.mark.parametrize("z", _POLYLOG_Z)
def test_polylog_against_mpmath(s, z):
    from mpmath import mp, mpf, polylog

    mp.dps = 30
    want = polylog(s, mpf(z))
    assert abs(_polylog(s, z) - want) <= 4e-16 * want


@functools.lru_cache(maxsize=None)
def _rows_reference(beta):
    """Rows c_m, c'_m of antiplane_R to 40 digits from their closed forms
    in Li_s, s = 2m + 2 and b = |beta|, with the digits that the
    subtractions cancel at small b added."""
    from mpmath import mp, mpf, polylog

    rows = np.zeros((2, 16))
    if beta == 0.0:
        return rows
    with mp.workdps(40 - 2 * math.floor(math.log10(abs(beta)))):
        b = abs(mpf(beta))
        for m in range(16):
            s = 2 * m + 2
            li_b2 = polylog(s, b * b)
            rows[:, m] = (float((polylog(s, b) - li_b2 / 2**s) / b - 1),
                          float((li_b2 / (b * b) - 1) / 2**s))
    return rows


def _assert_rows_match_reference(beta):
    got, want = _reflection_rows(beta), _rows_reference(beta)
    assert np.all(np.isfinite(got))
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 2.5e-15 * scale)


# lambda = 19 and 21 lie on either side of the switch from 200 direct
# terms to the polylogarithms for the m <= 2 pairs
@pytest.mark.parametrize("lam", [10.0 ** (k / 4) for k in range(-32, 33) if k]
                         + [19.0, 21.0])
def test_reflection_rows_against_polylog_reference(lam):
    _assert_rows_match_reference(AntiplaneParams(lam=lam).beta)


@settings(max_examples=25, deadline=None)
@given(u=st.floats(-15.0, 15.0))
def test_every_stiffness_gives_a_kernel_with_accurate_rows(u):
    params = AntiplaneParams(lam=10.0 ** u)
    assume(abs(params.beta) != 1.0)
    kern = antiplane_kernel(params)
    assert np.isfinite(kern.regular_part(0.3, 0.6))
    _assert_rows_match_reference(params.beta)


def test_paired_reflection_sums_vanish_without_contrast():
    assert antiplane_R(0.3, 0.6, 0.0) == 0.0
    assert not np.any(antiplane_R(_REFLECTION_X, _REFLECTION_XI, 0.0))


def test_paired_reflection_sums_domain():
    with pytest.raises(ValueError, match="strip"):
        antiplane_R(0.0, 2.5, 0.5)
    with pytest.raises(ValueError, match="strip"):
        antiplane_R(-3.0, -1.5, 0.5)


def test_antiplane_solves_across_the_widened_stiffness_range():
    # the ends of the physical range; the oracle residual at the reference
    # setup is truncation-limited near 6e-4
    xs = np.array([0.2, 0.5, 0.8])
    for lam in (1e-4, 1e4):
        kern = antiplane_kernel(AntiplaneParams(lam=lam))
        sol = solve(kern, lambda x: x, SolveConfig(), diagnostics=False)
        assert np.all(np.isfinite(sol.b)) and np.isfinite(sol.constant_C)
        res = oracle.full_residual(sol, kern, lambda x: x, xs)
        assert np.max(np.abs(res)) <= 2e-3


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_series_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tolerance"):
        antiplane_D(0.5, 0.5, tol=tol)


# The summation loop antiplane_D had before it was sized ahead of its
# passes, kept verbatim as the reference it must reproduce bit for bit
# (term counts, rounding and failures alike).

def _loop_D(x, beta, tol=1e-12):
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
        np.add(x, 2.0 * j, out=term)
        np.divide(power, term, out=term)
        total += term
        if power * b2 / ((xmin + 2.0 * (j + 1)) * (1.0 - b2)) < tol:
            break
        if j > 10_000:
            raise RuntimeError("series failed to converge")
    return total if x.ndim else float(total)


def _outcome(fn, *args):
    try:
        return fn(*args).tobytes()
    except RuntimeError as exc:
        return repr(exc)


@pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-14])
@pytest.mark.parametrize("lam", np.geomspace(4e-4, 2.5e3, 18).tolist())
def test_shared_image_sum_reproduces_the_summation_loops(lam, tol):
    beta = AntiplaneParams(lam=lam).beta
    d_args = (np.linspace(0.0, 3.0, 13), beta, tol)
    assert _outcome(antiplane_D, *d_args) == _outcome(_loop_D, *d_args)


@pytest.mark.parametrize("fn, args", [
    (antiplane_D, (np.linspace(0.0, 3.0, 40),)),
], ids=["D"])
def test_unconverged_antiplane_D_raises_before_any_array_pass(fn, args,
                                                             monkeypatch):
    calls = []
    divide = np.divide

    def counted(*a, **k):
        calls.append(1)
        return divide(*a, **k)

    monkeypatch.setattr(np, "divide", counted)
    beta = AntiplaneParams(lam=1e4).beta
    with pytest.raises(RuntimeError, match="converge"):
        fn(*args, beta)
    assert len(calls) == 0
