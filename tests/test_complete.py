"""Galerkin solver for the complete equation: assembly, truncation,
reference tables and structural identities."""

import numpy as np
import pytest
from scipy.integrate import dblquad

import fixsing.complete as complete
from fixsing.complete import (KernelSpec, SingularSystemError, SolveConfig,
                              fourier_load_coeffs, kernel_matrix, solve)
from fixsing.kernels import AntiplaneParams, antiplane_kernel
from fixsing.spectral import build_basis, characteristic_series_solve


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


def test_unstable_truncation_warns():
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    with pytest.warns(UserWarning, match="stable range"):
        solve(kern, lambda x: x, SolveConfig(N=26, t1=200, t2=210),
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
    assert not kern.homogeneous_corners
    sol = solve(kern, lambda x: x, SolveConfig(N=8, t1=60, t2=64),
                diagnostics=False)
    assert len(sol.corner_coeffs) == 0


def test_plane_strain_solve_with_corner_functions():
    # the corner functions keep the n = 0 row identity exact, vanish at
    # the ends and bring the forward residual to truncation level at
    # N = 10 (7.4e-3 without them)
    from fixsing.oracle import PVRule, full_residual
    kern = _plane_strain(0.5)
    assert kern.homogeneous_corners
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
    from fixsing.cauchy import CauchySolution, cauchy_solve

    kern = antiplane_kernel(AntiplaneParams(lam=1.0))
    assert kern.beta == 0.0
    sol = solve(kern, lambda x: x, SolveConfig(N=8, t1=60, t2=64))
    ref = cauchy_solve(lambda x, xi: np.zeros_like(x * xi), lambda x: x,
                       N=8, t1=60, t2=64)
    assert isinstance(sol, CauchySolution)
    np.testing.assert_array_equal(sol.b, ref.b)
    assert sol.constant_C == ref.constant_C


def test_routing_threshold():
    # just above CAUCHY_BETA the spectral route is taken
    for beta, spectral in ((0.5 * complete.CAUCHY_BETA, False),
                           (2.0 * complete.CAUCHY_BETA, True)):
        sol = solve(KernelSpec(beta=beta, regular_part=ZERO_KERNEL.regular_part),
                    lambda x: x, SolveConfig(N=6, t1=60, t2=64),
                    diagnostics=False)
        assert isinstance(sol, complete.Solution) is spectral


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("lam, load", [
    (0.5, lambda x: np.nan * x), (1.0, lambda x: np.inf * x)],
    ids=["spectral-nan", "cauchy-inf"])
def test_nonfinite_load_is_rejected(lam, load):
    with pytest.raises(ValueError, match="not finite"):
        solve(antiplane_kernel(AntiplaneParams(lam=lam)), load,
              SolveConfig(N=8, t1=60, t2=64), diagnostics=False)
