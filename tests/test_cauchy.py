"""Pure Cauchy-kernel solver: the classical second-kind Chebyshev scheme."""

import numpy as np
import pytest

from fixsing.cauchy import (cauchy_inverse, cauchy_solve,
                            u_weighted_cauchy_transform)
from fixsing.specfun import chebyshev_T, chebyshev_U


ZERO_K = lambda x, xi: np.zeros_like(x * xi)


def test_weighted_transform_identity():
    # pv-int sqrt(xi(1-xi)) U_j(2xi-1)/(xi-x) dxi = -(pi/2) T_{j+1}(2x-1)
    xs = np.linspace(1.0 / 12.0, 11.0 / 12.0, 11)
    for j in range(7):
        got = u_weighted_cauchy_transform(j, xs, 512)
        want = -np.pi / 2.0 * chebyshev_T(j + 1, 2.0 * xs - 1.0)
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_weighted_transform_at_node_collisions():
    # x = 1/4 and 3/4 place the pole exactly on Chebyshev nodes for node
    # counts divisible by 3; the removable limit must be used there
    xs = np.array([0.25, 0.5, 0.75])
    for nodes in (512, 513):
        for j in (1, 4):
            got = u_weighted_cauchy_transform(j, xs, nodes)
            want = -np.pi / 2.0 * chebyshev_T(j + 1, 2.0 * xs - 1.0)
            np.testing.assert_allclose(got, want, atol=1e-8)


def test_inverse_of_constant_vanishes():
    xs = np.linspace(1.0 / 12.0, 11.0 / 12.0, 11)
    vals = cauchy_inverse(lambda t: np.ones_like(t), xs)
    np.testing.assert_allclose(vals, 0.0, atol=1e-10)


def test_inverse_of_identity_load():
    # the weighted transform of xi is pi, so the inverse of the identity
    # is minus the half-circle profile
    xs = np.linspace(0.05, 0.95, 11)
    got = cauchy_inverse(lambda t: t, xs)
    np.testing.assert_allclose(got, -np.sqrt(xs * (1.0 - xs)), atol=1e-12)


def test_inverse_of_first_kind_polynomials():
    # T_{j+1}(2xi-1) maps to -2 sqrt(x(1-x)) U_j(2x-1): the weighted
    # transform of T_n carries a factor 2 on the unit interval
    xs = np.linspace(0.1, 0.9, 9)
    for j in range(5):
        got = cauchy_inverse(lambda t, j=j: chebyshev_T(j + 1, 2.0 * t - 1.0),
                             xs)
        want = -2.0 * np.sqrt(xs * (1.0 - xs)) * chebyshev_U(j, 2.0 * xs - 1.0)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_inverse_self_convergence():
    xs = np.linspace(0.1, 0.9, 5)
    lo = cauchy_inverse(lambda t: np.exp(t), xs, nodes=96)
    hi = cauchy_inverse(lambda t: np.exp(t), xs, nodes=960)
    np.testing.assert_allclose(lo, hi, atol=1e-10)


def test_inverse_domain():
    with pytest.raises(ValueError):
        cauchy_inverse(lambda t: t, 1.0)


def test_solve_characteristic_case_exactly():
    sol = cauchy_solve(ZERO_K, lambda x: x, N=8)
    assert sol.constant_C == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(sol.b[1:], 0.0, atol=1e-12)
    assert sol.b[0] == pytest.approx(1.0, abs=1e-12)
    xs = np.linspace(0.0, 1.0, 21)
    np.testing.assert_allclose(sol.evaluate(xs),
                               np.sqrt(xs * (1.0 - xs)), atol=1e-8)


def test_solution_vanishes_at_endpoints():
    sol = cauchy_solve(ZERO_K, lambda x: np.sin(np.pi * x), N=6)
    assert sol.evaluate(0.0) == 0.0
    assert sol.evaluate(1.0) == 0.0


def test_solution_endpoint_exponent_half():
    sol = cauchy_solve(ZERO_K, lambda x: x, N=8)
    pts = np.array([1e-2, 1e-3, 1e-4])
    slope = np.polyfit(np.log(pts), np.log(np.abs(sol.evaluate(pts))), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.01)


def test_solvability_identity_residual():
    kern = lambda x, xi: np.exp(-((x - xi) ** 2))
    sol = cauchy_solve(kern, lambda x: x * (1 - x), N=12, t1=150, t2=160)
    assert sol.residual_report["solvability_identity"] < 1e-10
    assert sol.residual_report["linear_residual"] < 1e-12


def test_solve_against_forward_operator():
    # residual of the solved complete equation under independent
    # principal-value quadrature of the Cauchy operator
    kern = lambda x, xi: np.cos(np.pi * x) * xi
    sol = cauchy_solve(kern, lambda x: x, N=14, t1=200, t2=210)
    xs = np.linspace(0.15, 0.85, 5)
    # S_hat[phi](x) = (1/pi) pv-int phi(xi)/(xi - x) dxi via the inverse of
    # the transform identity: expand phi in the solved basis directly
    shat = np.zeros_like(xs)
    for j, bj in enumerate(sol.b):
        shat += bj / np.pi * u_weighted_cauchy_transform(j, xs, 512)
    from fixsing.oracle import apply_K
    kv = apply_K(kern, sol.evaluate, xs, 512) / np.pi
    res = shat + kv - (sol.constant_C - xs)
    np.testing.assert_allclose(res, 0.0, atol=1e-6)


def test_matches_near_zero_spectral_runs():
    # with no quadratic remainders the dominant plane-strain equation is the
    # bare Cauchy one; spectral runs at beta = +-0.01 bracket it by
    # continuity
    from fixsing.complete import KernelSpec, SolveConfig, solve
    from fixsing.kernels import cot_gap, fixed_gap

    exact = cauchy_solve(ZERO_K, lambda x: x, N=8)
    xs = np.linspace(0.1, 0.9, 9)
    for beta in (0.01, -0.01):
        def reg(x, xi, beta=beta):
            s = xi + x
            return (cot_gap(xi - x) + beta * fixed_gap(s)
                    - beta / np.pi * (1.0 / s + 1.0 / (s - 2.0)))
        sol = solve(KernelSpec(beta=beta, regular_part=reg), lambda x: x,
                    SolveConfig(N=16, t1=200, t2=210), diagnostics=False)
        np.testing.assert_allclose(sol.evaluate(xs), exact.evaluate(xs),
                                   atol=2e-3)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_load_is_rejected():
    with pytest.raises(ValueError, match="not finite"):
        cauchy_solve(ZERO_K, lambda x: np.inf * x, N=8)


def test_singular_system_uses_the_shared_ceiling(monkeypatch):
    import fixsing.complete as complete

    monkeypatch.setattr(complete, "COND_LIMIT", 1e-3)
    with pytest.raises(complete.SingularSystemError):
        cauchy_solve(ZERO_K, lambda x: x, N=8)


def test_basis_rows_are_weighted_second_kind_polynomials():
    from fixsing.cauchy import CauchyBasis

    xs = np.linspace(0.0, 1.0, 23)
    rows = CauchyBasis(9).phi_matrix(xs)
    assert rows.shape == (10, 23)
    w = np.sqrt(xs * (1.0 - xs))
    for j in range(10):
        np.testing.assert_allclose(rows[j], w * chebyshev_U(j, 2.0 * xs - 1.0),
                                   rtol=0, atol=1e-13)


def test_routed_solve_reports_diagnostics():
    from fixsing.cauchy import CauchyBasis
    from fixsing.complete import KernelSpec, SolveConfig, solve

    cfg = SolveConfig(N=8, t1=60, t2=64)
    sol = solve(KernelSpec(beta=0.0, regular_part=ZERO_K), lambda x: x, cfg)
    assert isinstance(sol.basis, CauchyBasis)
    assert sol.config == cfg
    assert sol.residual_report["equation_residual_max"] < 1e-7
    assert "regularization_constant_gap" not in sol.residual_report
    bare = solve(KernelSpec(beta=0.0, regular_part=ZERO_K), lambda x: x, cfg,
                 diagnostics=False)
    assert "equation_residual_max" not in bare.residual_report


def test_scalar_load_is_broadcast():
    got = cauchy_solve(ZERO_K, lambda x: 1.5, N=6, t1=40, t2=44)
    want = cauchy_solve(ZERO_K, lambda x: np.full_like(x, 1.5), N=6, t1=40,
                        t2=44)
    assert got.b.tobytes() == want.b.tobytes()
    assert got.constant_C == want.constant_C == pytest.approx(1.5, abs=1e-14)
    assert np.max(np.abs(got.b)) <= 1e-14
    xs = np.linspace(0.1, 0.9, 5)
    assert (cauchy_inverse(lambda x: 1.5, xs).tobytes()
            == cauchy_inverse(lambda x: np.full_like(x, 1.5), xs).tobytes())


@pytest.mark.parametrize("n", [0, -3])
def test_truncation_order_must_be_positive(n):
    with pytest.raises(ValueError, match="truncation order must be positive"):
        cauchy_solve(lambda x, xi: np.zeros_like(x * xi), lambda x: x, N=n)
