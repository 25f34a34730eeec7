"""Galerkin solver for the complete equation: assembly, truncation,
reference tables and structural identities."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad

import fixsing.complete as complete
from fixsing._quad import _GRID_BLOCK
from fixsing.complete import (KernelSpec, SingularSystemError, SolveConfig,
                              fourier_load_coeffs, kernel_matrix, solve)
from fixsing.kernels import (AntiplaneParams, antiplane_kernel,
                             plane_strain_coeffs, plane_strain_kernel)
from fixsing.oracle import apply_S
from fixsing.spectral import (SpectralBasis, build_basis,
                              characteristic_series_solve)


ZERO_KERNEL = KernelSpec(beta=0.5,
                         regular_part=lambda x, xi: np.zeros_like(x * xi))


def test_fourier_coeffs_linear_load():
    # midpoint moments: exact for the mean and the even harmonics of x,
    # second-order accurate for the odd ones
    f = fourier_load_coeffs(lambda x: x, 1000, 4)
    assert f[0] == pytest.approx(0.5, abs=1e-15)
    assert f[1] == pytest.approx(-2.0 / np.pi**2, abs=2e-7)
    assert f[2] == pytest.approx(0.0, abs=1e-15)


def test_fourier_coeffs_constant_and_cosine():
    f = fourier_load_coeffs(lambda x: np.ones_like(x), 64, 5)
    assert f[0] == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(f[1:], 0.0, atol=1e-15)
    f = fourier_load_coeffs(lambda x: np.cos(3 * np.pi * x), 64, 5)
    assert f[3] == pytest.approx(0.5, abs=1e-14)
    np.testing.assert_allclose(np.delete(f, 3), 0.0, atol=1e-14)


def test_fourier_coeffs_aliasing_guard():
    with pytest.raises(ValueError):
        fourier_load_coeffs(lambda x: x, 16, 16)


def test_kernel_matrix_zero_kernel():
    basis = build_basis(0.5, 5)
    k = kernel_matrix(ZERO_KERNEL, basis, SolveConfig(N=5, t1=40, t2=42), 5)
    np.testing.assert_allclose(k, 0.0, atol=0)


def test_kernel_matrix_against_adaptive_2d_quadrature():
    # stiffness-matched antiplane kernel (pure difference kernel) against
    # a generic adaptive 2-d rule
    kern = antiplane_kernel(AntiplaneParams(lam=1.0))
    basis = build_basis(0.5, 3)
    k = kernel_matrix(kern, basis, SolveConfig(N=3, t1=400, t2=410), 2)
    for (n, j) in ((0, 0), (1, 1), (2, 1)):
        ref, _ = dblquad(
            lambda xi, x: (kern.regular_part(x, xi) * basis.phi(j, xi)
                           * np.cos(n * np.pi * x)),
            0.0, 1.0, 0.0, 1.0, epsabs=1e-10)
        assert k[n, j] == pytest.approx(ref, abs=1e-6)


def test_solve_matches_characteristic_series():
    cfg = SolveConfig(N=12, t1=100, t2=110)
    sol = solve(ZERO_KERNEL, lambda x: x, cfg, diagnostics=False)
    f = fourier_load_coeffs(lambda x: x, cfg.t1, cfg.N)
    series = characteristic_series_solve(sol.basis, f, cfg.N - 2)
    xs = np.linspace(0.0, 1.0, 21)
    np.testing.assert_allclose(sol.evaluate(xs), series.evaluate(xs),
                               atol=1e-6)
    assert sol.constant_C == pytest.approx(0.5, abs=1e-12)


def test_solve_antiplane_reference_table_in_truncation():
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    expected = {5: 0.582829, 10: 0.601814, 15: 0.602258, 20: 0.601812}
    for n_cut, want in expected.items():
        sol = solve(kern, lambda x: x, SolveConfig(N=n_cut, t1=200, t2=210),
                    diagnostics=False)
        assert sol.evaluate(0.5) == pytest.approx(want, abs=1e-3)


def test_solve_antiplane_reference_table_in_nodes():
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    for t1, t2, want in ((100, 110, 0.601067), (300, 310, 0.601123)):
        sol = solve(kern, lambda x: x, SolveConfig(N=17, t1=t1, t2=t2),
                    diagnostics=False)
        assert sol.evaluate(0.5) == pytest.approx(want, abs=1e-3)


def test_truncation_plateau():
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    vals = {}
    for n_cut in (5, 10, 15, 20):
        sol = solve(kern, lambda x: x, SolveConfig(N=n_cut, t1=200, t2=210),
                    diagnostics=False)
        vals[n_cut] = sol.evaluate(0.5)
    first_jump = abs(vals[10] - vals[5])
    assert abs(vals[15] - vals[10]) < first_jump / 10.0
    assert abs(vals[20] - vals[15]) < first_jump / 10.0


def test_solve_linearity():
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    cfg = SolveConfig(N=10, t1=80, t2=90)
    f1 = lambda x: x
    f2 = lambda x: np.sin(np.pi * x)
    s1 = solve(kern, f1, cfg, diagnostics=False)
    s2 = solve(kern, f2, cfg, diagnostics=False)
    s3 = solve(kern, lambda x: 2.0 * f1(x) - 3.0 * f2(x), cfg,
               diagnostics=False)
    np.testing.assert_allclose(2.0 * s1.b - 3.0 * s2.b, s3.b, atol=1e-10)
    assert 2.0 * s1.constant_C - 3.0 * s2.constant_C == pytest.approx(
        s3.constant_C, abs=1e-10)


@pytest.mark.parametrize("kind", ["antiplane", "plane-strain"])
@settings(max_examples=20, deadline=None)
@given(u=st.floats(-4.0, 4.0), a=st.floats(-2.0, 2.0),
       c=st.floats(-2.0, 2.0))
def test_solve_is_linear_in_the_load_with_a_finite_report(kind, u, a, c):
    # every route (Cauchy, spectral, corner functions) is linear in F:
    # b, the corner weights and C of a x + c x^2/2 combine those of the two
    # loads; the scale is the uncancelled combination, and products below
    # the normal range are held to an absolute floor
    lam = 10.0 ** u
    kern = (antiplane_kernel(AntiplaneParams(lam=lam)) if kind == "antiplane"
            else plane_strain_kernel(plane_strain_coeffs(lam, 1.0, 0.3, 0.3)))
    s1 = solve(kern, lambda x: x, diagnostics=False)
    s2 = solve(kern, lambda x: x**2 / 2.0, diagnostics=False)
    s = solve(kern, lambda x: a * x + c * x**2 / 2.0)
    for one, two, both in ((s1.b, s2.b, s.b),
                           (s1.corner_coeffs, s2.corner_coeffs,
                            s.corner_coeffs),
                           (s1.constant_C, s2.constant_C, s.constant_C)):
        one, two, both = map(np.atleast_1d, (one, two, both))
        scale = np.max(np.abs(a * one) + np.abs(c * two), initial=0.0)
        assert np.max(np.abs(a * one + c * two - both),
                      initial=0.0) <= 1e-12 * scale + 1e-300
    assert all(np.isfinite(v) for v in s.residual_report.values())


def test_reflection_relabeling():
    # mirroring the kernel and the load mirrors the solution exactly:
    # phi[K, F](x) corresponds to phi[-K(1-x,1-xi), -F(1-x)](1-x) with
    # the constant negated
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    mirrored = KernelSpec(
        beta=kern.beta,
        regular_part=lambda x, xi: -kern.regular_part(1.0 - x, 1.0 - xi))
    cfg = SolveConfig(N=12, t1=120, t2=130)
    sol = solve(kern, lambda x: x, cfg, diagnostics=False)
    ref = solve(mirrored, lambda x: -(1.0 - x), cfg, diagnostics=False)
    xs = np.linspace(0.05, 0.95, 19)
    np.testing.assert_allclose(ref.evaluate(xs), sol.evaluate(1.0 - xs),
                               atol=1e-10)
    assert ref.constant_C == pytest.approx(-sol.constant_C, abs=1e-10)


def test_solvability_identity_residual():
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    sol = solve(kern, lambda x: x, SolveConfig(N=17, t1=100, t2=110),
                diagnostics=False)
    assert sol.residual_report["solvability_identity"] < 1e-10


def test_n0_row_defines_constant():
    # the identity behind the constant: sum_j (N_{j+1} + k_{0j}) b_j
    # + f_0 - C = 0 by construction
    from fixsing.spectral import N_coeff
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    cfg = SolveConfig(N=10, t1=100, t2=110)
    sol = solve(kern, lambda x: x, cfg, diagnostics=False)
    f = fourier_load_coeffs(lambda x: x, cfg.t1, cfg.N - 1)
    k = kernel_matrix(kern, sol.basis, cfg, cfg.N - 1)
    acc = sum((N_coeff(sol.basis, j + 1) + k[0, j]) * sol.b[j]
              for j in range(len(sol.b)))
    assert acc + f[0] - sol.constant_C == pytest.approx(0.0, abs=1e-14)


def test_evaluate_endpoints_and_zero_vector():
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    sol = solve(kern, lambda x: x, SolveConfig(N=8, t1=60, t2=64),
                diagnostics=False)
    assert sol.evaluate(0.0) == 0.0
    assert sol.evaluate(1.0) == 0.0
    zero = complete.Solution(basis=sol.basis, b=np.zeros_like(sol.b),
                             constant_C=0.0, config=sol.config)
    assert zero.evaluate(0.37) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(N=0)
    with pytest.raises(ValueError):
        SolveConfig(N=20, t1=10, t2=210)


def test_singular_system_detection(monkeypatch):
    monkeypatch.setattr(complete, "COND_LIMIT", 1e-2)
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    with pytest.raises(SingularSystemError):
        solve(kern, lambda x: x, SolveConfig(N=8, t1=60, t2=64),
              diagnostics=False)


def test_diagnostics_report():
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    sol = solve(kern, lambda x: x, SolveConfig(N=10, t1=100, t2=110))
    rep = sol.residual_report
    assert rep["linear_residual"] < 1e-12
    assert rep["equation_residual_max"] < 5e-3
    assert rep["regularization_constant_gap"] < 1e-4
    assert rep["condition_number"] < 10.0


def _plane_strain(lam):
    from fixsing.kernels import (gamma0_root, plane_strain_coeffs,
                                 plane_strain_kernel)
    params = plane_strain_coeffs(lam, 1.0, 0.3, 0.3)
    gamma0_root(params)
    return plane_strain_kernel(params)


@pytest.mark.parametrize("kind,lam", [("antiplane", 0.5),
                                      ("antiplane", 100.0),
                                      ("plane-strain", 2.0)])
def test_linear_load_constant_is_exact_to_N41(kind, lam):
    # C = 1/2 for F = x at every truncation, without a warning or a
    # singular system
    kern = (antiplane_kernel(AntiplaneParams(lam=lam))
            if kind == "antiplane" else _plane_strain(lam))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (17, 25, 33, 41):
            sol = solve(kern, lambda x: x, SolveConfig(N=n, t1=200, t2=210),
                        diagnostics=False)
            assert sol.constant_C == pytest.approx(0.5, abs=1e-12), n


def test_corner_functions_parity_and_endpoint_power():
    even, odd = complete.corner_functions(1.6)
    x = np.linspace(0.05, 0.45, 9)
    np.testing.assert_allclose(even(1.0 - x), even(x), rtol=1e-14)
    np.testing.assert_allclose(odd(1.0 - x), -odd(x), rtol=1e-12)
    assert even(0.0) == 0.0 and even(1.0) == 0.0 and odd(1.0) == 0.0
    small = np.array([1e-6, 1e-5])
    slope = np.log(even(small[1]) / even(small[0])) / np.log(10.0)
    assert slope == pytest.approx(1.6, abs=1e-9)


def test_kernel_matrix_extra_columns_and_rows():
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    basis = build_basis(kern.beta, 4)
    cfg = SolveConfig(N=4, t1=60, t2=64)
    g = lambda t: t * (1.0 - t)
    plain = kernel_matrix(kern, basis, cfg, 3)
    k = kernel_matrix(kern, basis, cfg, 3, extra=(g,))
    assert k.shape == (5, 5)
    np.testing.assert_allclose(k[:4, :4], plain, rtol=1e-13, atol=1e-16)
    x = complete._midpoints(cfg.t1)
    xi = complete._midpoints(cfg.t2)
    inner = kern.regular_part(x[:, None], xi[None, :]) @ g(xi) / cfg.t2
    want = np.cos(np.pi * np.outer(np.arange(5), x)) @ inner / cfg.t1
    np.testing.assert_allclose(k[:, 4], want, rtol=1e-12, atol=1e-15)


def test_antiplane_solve_has_no_corner_functions():
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    assert kern.corner_form is None
    sol = solve(kern, lambda x: x, SolveConfig(N=8, t1=60, t2=64),
                diagnostics=False)
    assert len(sol.corner_coeffs) == 0


def test_plane_strain_solve_with_corner_functions():
    # the corner functions keep the n = 0 row identity exact, vanish at
    # the ends and bring the forward residual to truncation level at
    # N = 10 (7.4e-3 without them)
    from fixsing.oracle import PVRule, full_residual
    kern = _plane_strain(0.5)
    assert kern.corner_form is not None
    sol = solve(kern, lambda x: x, SolveConfig(N=10, t1=200, t2=210),
                diagnostics=False)
    rep = sol.residual_report
    assert len(sol.corner_coeffs) == 2
    assert rep["linear_residual"] < 1e-12
    assert rep["solvability_identity"] < 1e-10
    assert sol.evaluate(0.0) == 0.0 and sol.evaluate(1.0) == 0.0
    res = full_residual(sol, kern, lambda x: x,
                        np.linspace(0.05, 0.95, 7), PVRule(1024))
    assert np.max(np.abs(res)) < 1e-3


def test_plane_strain_moments_are_node_converged_at_small_stiffness():
    # the graded xi-rule resolves the corner singularity that made the
    # midpoint moments move by 3e-2 to 6e-2 between 210 and 410 nodes
    kern = _plane_strain(0.03)
    vals = [solve(kern, lambda x: x, SolveConfig(N=17, t1=t, t2=t + 10),
                  diagnostics=False).evaluate(0.5) for t in (200, 400)]
    assert abs(vals[1] - vals[0]) < 1e-3


def test_zero_beta_routes_to_cauchy():
    # at lambda = 1 the antiplane remainder after the Cauchy split is
    # exactly zero, so the routed solve is the bare Cauchy one bit for bit
    from fixsing.cauchy import cauchy_solve

    kern = antiplane_kernel(AntiplaneParams(lam=1.0))
    assert kern.beta == 0.0
    sol = solve(kern, lambda x: x, SolveConfig(N=8, t1=60, t2=64))
    ref = cauchy_solve(lambda x, xi: np.zeros_like(x * xi), lambda x: x,
                       N=8, t1=60, t2=64)
    np.testing.assert_array_equal(sol.b, ref.b)
    assert sol.constant_C == ref.constant_C


def test_routing_threshold():
    # just above CAUCHY_BETA the spectral route is taken
    for beta, spectral in ((0.5 * complete.CAUCHY_BETA, False),
                           (2.0 * complete.CAUCHY_BETA, True)):
        sol = solve(KernelSpec(beta=beta, regular_part=ZERO_KERNEL.regular_part),
                    lambda x: x, SolveConfig(N=6, t1=60, t2=64),
                    diagnostics=False)
        assert isinstance(sol.basis, SpectralBasis) is spectral


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("lam, load", [
    (0.5, lambda x: np.nan * x), (1.0, lambda x: np.inf * x)],
    ids=["spectral-nan", "cauchy-inf"])
def test_nonfinite_load_is_rejected(lam, load):
    with pytest.raises(ValueError, match="not finite"):
        solve(antiplane_kernel(AntiplaneParams(lam=lam)), load,
              SolveConfig(N=8, t1=60, t2=64), diagnostics=False)


def test_empty_truncation_rejects_nonfinite_load():
    # N = 1 leaves no row, so only the n = 0 moment, which sets C, sees
    # the load
    with pytest.raises(ValueError, match="not finite"):
        solve(antiplane_kernel(AntiplaneParams(lam=0.5)), lambda x: np.nan * x,
              SolveConfig(N=1, t1=60, t2=64), diagnostics=False)


def test_empty_truncation_solves_to_the_load_mean():
    # N = 1 leaves an empty system: no coefficients, phi = 0, and C is
    # the n = 0 moment of the load
    cfg = SolveConfig(N=1, t1=60, t2=64)
    sol = solve(antiplane_kernel(AntiplaneParams(lam=0.5)), lambda x: x, cfg)
    assert sol.b.shape == (0,) and sol.corner_coeffs.shape == (0,)
    f0 = fourier_load_coeffs(lambda x: x, cfg.t1, 0)[0]
    assert sol.constant_C == f0 == pytest.approx(0.5, abs=1e-15)
    assert np.all(sol.evaluate(np.linspace(0.0, 1.0, 11)) == 0.0)
    report = sol.residual_report
    assert report["condition_number"] == 1.0
    assert report["linear_residual"] == 0.0
    assert all(np.isfinite(v) for v in report.values())


def test_truncation_ladder_evaluates_the_solve_grid_once():
    base = antiplane_kernel(AntiplaneParams(lam=0.5))
    t1, t2 = 200, 210
    rows = []

    def counted(x, xi):
        if np.shape(xi)[-1] == t2:
            rows.append(np.shape(x)[0])
        return base.regular_part(x, xi)

    kern = KernelSpec(beta=base.beta, regular_part=counted)
    for n in (5, 9, 13, 17, 21):
        solve(kern, lambda x: x, SolveConfig(N=n, t1=t1, t2=t2),
              diagnostics=False)
    sol = solve(kern, lambda x: x, SolveConfig(N=21, t1=t1, t2=t2))
    assert "equation_residual_max" in sol.residual_report
    assert sum(rows) == t1
    # a new node budget is a new grid
    solve(kern, lambda x: x, SolveConfig(N=5, t1=t1 + 20, t2=t2),
          diagnostics=False)
    assert sum(rows) == 2 * t1 + 20
    # an analytic kernel is sampled once on the Chebyshev tensor, never on
    # a t2-wide grid
    rows.clear()
    shapes = []

    def tensor_counted(x, xi):
        shapes.append(np.broadcast_shapes(np.shape(x), np.shape(xi)))
        return counted(x, xi)

    analytic = dataclasses.replace(kern, regular_part=tensor_counted,
                                   analytic=True)
    for n in (5, 9, 13, 17, 21):
        solve(analytic, lambda x: x, SolveConfig(N=n, t1=t1, t2=t2),
              diagnostics=False)
    assert rows == []
    assert shapes == [(complete.CHEB_ORDER, complete.CHEB_ORDER)]


def test_cross_check_evaluates_k_phi_on_one_64_row_grid():
    # the diagnostics' apply_K calls integrate on the graded PV rule; the
    # five-point equation residual comes first, then the regularization
    # cross-check, whose weight functional evaluates F + K[phi] once
    base = antiplane_kernel(AntiplaneParams(lam=0.5))
    width = len(complete.graded_rule(complete.PV_NODES)[0])
    rows = []

    def counted(x, xi):
        if np.shape(xi)[-1] == width:
            rows.append(np.shape(x)[0])
        return base.regular_part(x, xi)

    kern = KernelSpec(beta=base.beta, regular_part=counted)
    sol = solve(kern, lambda x: x, SolveConfig(N=9, t1=60, t2=64))
    assert "regularization_constant_gap" in sol.residual_report
    assert rows == [5, 64]


@pytest.mark.parametrize("kind", ["antiplane", "plane-strain"])
def test_diagnostics_kernel_budget(kind):
    # an analytic kernel's diagnostics sample K once, on the graded PV rule
    # at the five residual points and the CHEB_ORDER Chebyshev points; the
    # plane-strain corner part is applied at the weight rule's points from
    # its own formula, not through regular_part
    base = (antiplane_kernel(AntiplaneParams(lam=0.5)) if kind == "antiplane"
            else _plane_strain(2.0))
    points = []

    def counted(x, xi):
        points.append(np.broadcast(x, xi).size)
        return base.regular_part(x, xi)

    kern = dataclasses.replace(base, regular_part=counted)
    counts = []
    for diagnostics in (False, True):
        complete._kernel_tensor.cache_clear()
        complete._kernel_grid.cache_clear()
        points.clear()
        solve(kern, lambda x: x, SolveConfig(N=9, t1=60, t2=64),
              diagnostics=diagnostics)
        counts.append(sum(points))
    width = len(complete.graded_rule(complete.PV_NODES)[0])
    assert kern.analytic
    assert counts[1] - counts[0] <= (5 + complete.CHEB_ORDER) * width


def _check_cross_check_against_the_exact_one(kern):
    from fixsing import oracle
    from fixsing.regimes import classify, solvability_functional

    for load in (lambda x: x * x / 2.0, lambda x: x ** 3 / 3.0):
        sol = solve(kern, load)

        def load_plus_k(x):
            return load(x) + oracle.apply_K(kern, sol.evaluate, x,
                                            complete.PV_NODES)

        c_reg = (np.sin(np.pi * sol.basis.rho1) / 2.0
                 * solvability_functional(classify(kern.beta), load_plus_k,
                                          complete.PV_NODES))
        gap = sol.residual_report["regularization_constant_gap"]
        assert gap > 1e-7
        assert gap == pytest.approx(abs(c_reg - sol.constant_C), abs=1e-14)


@pytest.mark.parametrize("lam", [1e-4, 0.1, 0.5, 10.0, 1e4])
def test_interpolated_cross_check_matches_the_exact_one(lam):
    # the reported gap comes from K[phi] interpolated from the Chebyshev
    # points; the referee applies the exact kernel at the weight rule's
    # points.  These loads have a gap from 1e-6 (lambda = 1e4) to 6e-3
    # (lambda = 1e-4) at N = 17, so a wrong interpolant shows
    _check_cross_check_against_the_exact_one(
        antiplane_kernel(AntiplaneParams(lam=lam)))


@pytest.mark.parametrize("lam", [1e-4, 0.01, 0.05, 2.0, 1e4])
def test_split_cross_check_matches_the_exact_one(lam):
    # plane strain: the analytic half of K[phi] is interpolated, the corner
    # half applied exactly at the weight rule's points; the referee applies
    # the whole kernel there
    _check_cross_check_against_the_exact_one(_plane_strain(lam))


@pytest.mark.parametrize("kern", [
    antiplane_kernel(AntiplaneParams(lam=3.0)), _plane_strain(2.0)],
    ids=["antiplane", "plane-strain"])
def test_kernel_matrix_equals_the_unblocked_formula(kern):
    # 300 x-nodes make the grid span more than one row block
    cfg = SolveConfig(N=8, t1=300, t2=310)
    basis = build_basis(kern.beta, 7)
    x = complete._midpoints(cfg.t1)
    if kern.corner_form is not None:
        xi, w = complete.graded_rule(cfg.t2)
        pmat, scale = basis.phi_matrix(xi)[:8] * w, cfg.t1
    else:
        xi = complete._midpoints(cfg.t2)
        pmat, scale = basis.phi_matrix(xi)[:8], cfg.t1 * cfg.t2
    kmat = np.asarray(kern.regular_part(*np.ix_(x, xi)), dtype=float)
    assert kmat.size > _GRID_BLOCK
    cosmat = np.cos(np.pi * np.outer(np.arange(8), x))
    want = cosmat @ kmat @ pmat.T / scale
    # the grid route: an analytic kernel would take the Chebyshev tensor
    grid = dataclasses.replace(kern, analytic=False)
    np.testing.assert_array_equal(kernel_matrix(grid, basis, cfg, 7), want)
    # K is odd and phi_j has the parity (-1)^j about x = 1/2, so k_nj
    # vanishes for even n + j up to rounding
    n, j = np.indices(want.shape)
    assert (np.max(np.abs(want[(n + j) % 2 == 0]))
            <= 1e-15 * np.max(np.abs(want)))


def test_caller_kernel_is_not_assumed_analytic():
    # a caller's own kernel keeps the defaults and is solved on the grid
    kern = KernelSpec(beta=0.5, regular_part=lambda x, xi: x * xi)
    assert not kern.analytic
    sol = solve(kern, lambda x: x, SolveConfig(N=12, t1=120, t2=130))
    assert sol.residual_report["equation_residual_max"] <= 5e-3


def test_corner_form_takes_three_finite_coefficients():
    for form in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (1.0, np.nan, 0.0),
                 (np.inf, 0.0, 0.0)):
        with pytest.raises(ValueError, match="three finite coefficients"):
            KernelSpec(beta=0.5, regular_part=ZERO_KERNEL.regular_part,
                       corner_form=form, analytic=True)
    # any sequence is held as a tuple of floats, so the spec stays a key
    kern = KernelSpec(beta=0.5, regular_part=ZERO_KERNEL.regular_part,
                      corner_form=np.array([1, 2, 3]), analytic=True)
    assert kern.corner_form == (1.0, 2.0, 3.0)
    assert hash(kern) == hash(dataclasses.replace(kern))


@pytest.mark.parametrize("lam", [1e-4, 1e-3, 0.01, 0.3, 0.5, 2.0, 100.0,
                                 1e3, 1e4])
def test_chebyshev_tensor_matches_the_grid_route(lam):
    kern = antiplane_kernel(AntiplaneParams(lam=lam))
    assert kern.analytic
    # the interpolant against the exact solve grid, absolute
    t1, t2 = 200, 210
    x, xi = complete._midpoints(t1), complete._midpoints(t2)
    interp = (complete._chebyshev_interpolation(t1)
              @ complete._kernel_tensor(kern)
              @ complete._chebyshev_interpolation(t2).T)
    exact = kern.regular_part(*np.ix_(x, xi))
    assert np.max(np.abs(interp - exact)) <= 1e-14
    # solves against the grid route, relative
    grid = dataclasses.replace(kern, analytic=False)
    xs = np.linspace(0.0, 1.0, 41)
    for N in (5, 17, 21, 41):
        for load in (lambda x: x, lambda x: x * x / 2.0):
            got, want = (solve(k, load, SolveConfig(N=N), diagnostics=False)
                         for k in (kern, grid))
            np.testing.assert_allclose(got.b, want.b, rtol=0,
                                       atol=1e-13 * np.max(np.abs(want.b)))
            assert got.constant_C == pytest.approx(want.constant_C,
                                                   rel=1e-13)
            phi = want.evaluate(xs)
            np.testing.assert_allclose(got.evaluate(xs), phi, rtol=0,
                                       atol=1e-13 * np.max(np.abs(phi)))


@pytest.mark.parametrize("k", range(-8, 9))
def test_plane_strain_split_matches_the_grid_route(k):
    # the analytic half on the Chebyshev tensor plus the corner half from
    # the lambda-free tables against the whole kernel on the graded grid
    # (lambda = 1 takes the Cauchy route on both)
    kern = _plane_strain(10.0 ** (k / 2.0))
    assert kern.analytic and kern.corner_form is not None
    grid = dataclasses.replace(kern, analytic=False)
    xs = np.linspace(0.0, 1.0, 41)
    for N in (10, 17, 21):
        for load in (lambda x: x, lambda x: x * x / 2.0):
            got, want = (solve(spec, load, SolveConfig(N=N),
                               diagnostics=False) for spec in (kern, grid))
            for a, b in ((got.b, want.b),
                         (got.corner_coeffs, want.corner_coeffs),
                         (got.evaluate(xs), want.evaluate(xs))):
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-13 * np.max(
                    np.abs(b), initial=0.0)
            assert got.constant_C == pytest.approx(want.constant_C,
                                                   rel=1e-13)


def test_plane_strain_ladder_samples_only_the_chebyshev_tensor(monkeypatch):
    # two kernels' ladders build the lambda-free corner tables once and
    # sample each regular part on the CHEB_ORDER^2 tensor alone: no grid of
    # the t2 budget is filled from regular_part
    shapes, grids = [], []
    kernel_grid = complete.kernel_grid

    def counted_grid(k, x, xi):
        grids.append((len(x), len(xi)))
        return kernel_grid(k, x, xi)

    monkeypatch.setattr(complete, "kernel_grid", counted_grid)
    complete._corner_tables.cache_clear()
    for lam in (0.3, 30.0):
        base = _plane_strain(lam)

        def counted(x, xi, base=base):
            shapes.append(np.broadcast_shapes(np.shape(x), np.shape(xi)))
            return base.regular_part(x, xi)

        kern = dataclasses.replace(base, regular_part=counted)
        for n in (5, 9, 13, 17, 21):
            solve(kern, lambda x: x, SolveConfig(N=n), diagnostics=False)
    assert complete._corner_tables.cache_info().misses == 1
    tensor = (complete.CHEB_ORDER, complete.CHEB_ORDER)
    assert shapes == [tensor] * 2
    assert grids == [tensor] * 2


def test_cosine_tables_are_cached_and_read_only():
    table = complete._cosines(9, 60)
    assert table is complete._cosines(9, 60)
    assert not table.flags.writeable
    want = np.cos(np.pi * np.outer(np.arange(9), complete._midpoints(60)))
    assert table.tobytes() == want.tobytes()


def test_corner_images_apply_S_once_on_the_chebyshev_points(monkeypatch):
    points = []

    def counted(g, beta, x, rule):
        points.append(len(x))
        return apply_S(g, beta, x, rule)

    monkeypatch.setattr(complete, "apply_S", counted)
    complete._corner_images.cache_clear()
    try:
        # a new node budget reuses the images of the first
        for t1 in (61, 200):
            solve(_plane_strain(2.0), lambda x: x,
                  SolveConfig(N=9, t1=t1, t2=t1 + 10), diagnostics=False)
    finally:
        complete._corner_images.cache_clear()
    assert points == [complete.CHEB_ORDER] * 2


@pytest.mark.parametrize("t1", [61, 200, 201])
def test_interpolated_corner_images_match_apply_S(t1):
    # the images are analytic on [0, 1], so their interpolant from the
    # Chebyshev points reproduces S[g] at every midpoint.  The referee is
    # apply_S itself, which loses up to 1e-13 relative at a point near one
    # of its rule's nodes, where phi(xi) - phi(x) cancels (x = 0.3209 at
    # 512 nodes, 0.2811 at 2048); the rules of 512 and 1024 nodes miss at
    # different midpoints, so each midpoint is held to the nearer of them
    x = complete._midpoints(t1)
    interp = complete._chebyshev_interpolation(t1)
    for lam in (1e-4, 0.01, 2.0, 100.0, 1e4):
        beta = _plane_strain(lam).beta
        power = 2.0 * build_basis(beta, 1).rho1
        got = complete._corner_images(beta, power) @ interp.T
        gaps = [np.abs(got - [apply_S(g, beta, x, complete.PVRule(n))
                              for g in complete.corner_functions(power)])
                for n in (complete.PV_NODES, 2 * complete.PV_NODES)]
        assert np.max(np.minimum(*gaps)) <= 1e-14 * np.max(np.abs(got))


@pytest.mark.parametrize("lam", [0.5, 1.0], ids=["spectral", "cauchy"])
def test_scalar_load_is_broadcast(lam):
    kern = antiplane_kernel(AntiplaneParams(lam=lam))
    cfg = SolveConfig(N=9, t1=60, t2=64)
    got = solve(kern, lambda x: 2.5, cfg)
    want = solve(kern, lambda x: np.full_like(x, 2.5), cfg)
    assert got.b.tobytes() == want.b.tobytes()
    assert got.constant_C == want.constant_C
    assert got.residual_report == want.residual_report
    # a constant load is balanced by C alone
    assert np.max(np.abs(got.b)) <= 1e-14
    assert got.constant_C == pytest.approx(2.5, abs=1e-14)
    assert (fourier_load_coeffs(lambda x: 2.5, 60, 8).tobytes()
            == fourier_load_coeffs(lambda x: np.full_like(x, 2.5), 60, 8
                                   ).tobytes())


@pytest.mark.parametrize("kind", ["antiplane", "plane-strain"])
def test_diagnostics_sample_the_exact_kernel_at_the_five_points(kind):
    # the exact pass is the equation residual's alone; the cross-check
    # takes K[phi] at the Chebyshev points from the solve's tensor
    base = (antiplane_kernel(AntiplaneParams(lam=0.5)) if kind == "antiplane"
            else _plane_strain(2.0))
    shapes = []

    def counted(x, xi):
        shapes.append(np.broadcast_shapes(np.shape(x), np.shape(xi)))
        return base.regular_part(x, xi)

    kern = dataclasses.replace(base, regular_part=counted)
    solve(kern, lambda x: x, SolveConfig(N=9, t1=60, t2=64),
          diagnostics=False)
    shapes.clear()
    sol = solve(kern, lambda x: x, SolveConfig(N=9, t1=60, t2=64))
    assert "regularization_constant_gap" in sol.residual_report
    width = len(complete.graded_rule(complete.PV_NODES)[0])
    assert shapes == [(5, width)]


def test_diagnosed_solve_evaluates_phi_once(monkeypatch):
    # after a ladder the xi-tables are warm, and the diagnostics sample phi
    # once for apply_S, apply_K and the cross-check together
    kern = antiplane_kernel(AntiplaneParams(lam=0.7))
    for n in (5, 9, 13, 17, 21):
        solve(kern, lambda x: x, SolveConfig(N=n), diagnostics=False)
    calls = []
    phi_matrix = SpectralBasis.phi_matrix

    def counted(self, x):
        calls.append(np.shape(x))
        return phi_matrix(self, x)

    monkeypatch.setattr(SpectralBasis, "phi_matrix", counted)
    solve(kern, lambda x: x, SolveConfig(N=21))
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["antiplane", "plane-strain"])
def test_ladder_builds_at_most_two_xi_tables(kind, monkeypatch):
    # the rows of phi_j do not depend on the degree, so a ladder shares a
    # table of 17 rows up to N = 17 and one of 33 rows beyond; its
    # solutions equal those of uncached solves on a table of their own
    # degree
    kern = (antiplane_kernel(AntiplaneParams(lam=3.0)) if kind == "antiplane"
            else _plane_strain(3.0))
    ladder = (5, 9, 13, 17, 21)
    complete._xi_basis.cache_clear()
    shared = [solve(kern, lambda x: x * x / 2.0, SolveConfig(N=n),
                    diagnostics=False) for n in ladder]
    assert complete._xi_basis.cache_info().misses <= 2
    build = complete._xi_basis.__wrapped__
    for n, got in zip(ladder, shared):
        monkeypatch.setattr(complete, "_xi_basis",
                            lambda rho1, degree, t2, graded:
                            build(rho1, n - 1, t2, graded))
        want = solve(kern, lambda x: x * x / 2.0, SolveConfig(N=n),
                     diagnostics=False)
        assert np.array_equal(got.b, want.b)
        assert np.array_equal(got.corner_coeffs, want.corner_coeffs)
        assert got.constant_C == want.constant_C
    monkeypatch.undo()
    xi, w = complete._xi_rule(kern, 210)
    table = complete._xi_basis(build_basis(kern.beta, 1).rho1, 16, 210,
                               w is not None)
    assert table.shape == (17, len(xi)) and not table.flags.writeable


@pytest.mark.parametrize("kind", ["antiplane", "plane-strain"])
def test_exact_residual_sees_a_perturbed_tensor(kind, monkeypatch):
    # the cross-check now shares the solve's tensor, so the five-point
    # exact pass is what referees it: a tensor off by 1e-6 moves the
    # residual by 1e-6 times the integral of phi
    kern = (antiplane_kernel(AntiplaneParams(lam=0.5)) if kind == "antiplane"
            else _plane_strain(2.0))
    clean = solve(kern, lambda x: x).residual_report["equation_residual_max"]
    tensor = complete._kernel_tensor(kern) + 1e-6
    monkeypatch.setattr(complete, "_kernel_tensor", lambda k: tensor)
    off = solve(kern, lambda x: x).residual_report["equation_residual_max"]
    assert abs(off - clean) > 1e-7
