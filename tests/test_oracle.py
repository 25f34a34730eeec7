"""Forward-operator oracle: quadrature schemes, linearity and residuals."""

import numpy as np
import pytest

from fixsing.oracle import PVRule, apply_K, apply_S, full_residual
from fixsing.complete import KernelSpec, SolveConfig, solve
from fixsing.kernels import AntiplaneParams, antiplane_kernel
from fixsing.spectral import (N_coeff, build_basis,
                              characteristic_series_solve)
from fixsing.regimes import classify, inverse_characteristic


def test_rule_validation():
    with pytest.raises(ValueError):
        PVRule(nodes=8)


def test_apply_S_odd_symmetry_at_center():
    got = apply_S(lambda t: np.sin(np.pi * t), 0.0, 0.5)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_apply_S_domain():
    with pytest.raises(ValueError):
        apply_S(lambda t: t * (1 - t), 0.5, 1.0)


def test_apply_S_linearity():
    phi1 = lambda t: t * (1.0 - t)
    phi2 = lambda t: np.sin(np.pi * t) ** 2
    xs = np.array([0.3, 0.7])
    lhs = apply_S(lambda t: 2.0 * phi1(t) - 0.5 * phi2(t), 0.4, xs)
    rhs = 2.0 * apply_S(phi1, 0.4, xs) - 0.5 * apply_S(phi2, 0.4, xs)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_apply_S_grid_convergence():
    basis = build_basis(0.5, 3)
    xs = np.array([0.2, 0.5, 0.8])
    lo = apply_S(lambda t: basis.phi(2, t), 0.5, xs, PVRule(512))
    hi = apply_S(lambda t: basis.phi(2, t), 0.5, xs, PVRule(1024))
    np.testing.assert_allclose(lo, hi, atol=1e-6)


def test_apply_S_spectral_images():
    basis = build_basis(-0.3, 4)
    xs = np.linspace(0.1, 0.9, 9)
    for j in range(5):
        got = apply_S(lambda t, j=j: basis.phi(j, t), -0.3, xs, PVRule(512))
        want = N_coeff(basis, j + 1) - np.cos((j + 1) * np.pi * xs)
        np.testing.assert_allclose(got, want, atol=1e-6)


def test_apply_S_at_panel_midpoint_evaluation_points():
    # x values sitting exactly on dyadic panel midpoints must not lose the
    # removable-diagonal contribution
    basis = build_basis(0.5, 2)
    for x in (0.375, 0.625, 0.75):
        got = apply_S(lambda t: basis.phi(1, t), 0.5, x, PVRule(512))
        want = N_coeff(basis, 2) - np.cos(2 * np.pi * x)
        assert got == pytest.approx(want, abs=1e-6)


def test_apply_S_of_inverse_is_identity():
    reg = classify(0.5)
    f = lambda t: -np.cos(np.pi * t)
    phi = lambda t: inverse_characteristic(reg, f, t, check_solvability=False)
    xs = np.linspace(0.2, 0.8, 7)
    np.testing.assert_allclose(apply_S(phi, 0.5, xs, PVRule(512)), f(xs),
                               atol=1e-6)


def test_apply_K_zero_kernel():
    xs = np.array([0.2, 0.8])
    got = apply_K(lambda x, xi: np.zeros_like(x * xi),
                  lambda t: np.ones_like(t), xs)
    np.testing.assert_allclose(got, 0.0, atol=0)


def test_apply_K_self_convergence():
    kern = antiplane_kernel(AntiplaneParams(lam=1.0))
    xs = np.array([0.25, 0.5, 0.75])
    lo = apply_K(kern, lambda t: np.ones_like(t), xs, nodes=256)
    hi = apply_K(kern, lambda t: np.ones_like(t), xs, nodes=2560)
    np.testing.assert_allclose(lo, hi, atol=1e-8)


def test_apply_K_parity_cancellation():
    # even symmetrized kernel against an odd-about-center density
    sym = lambda x, xi: np.sin(np.pi * x) * np.sin(np.pi * xi)
    got = apply_K(sym, lambda t: np.sin(2.0 * np.pi * t), 0.5, nodes=512)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_full_residual_zero_solution():
    class Zero:
        constant_C = 0.0

        @staticmethod
        def evaluate(x):
            return np.zeros_like(np.asarray(x, dtype=float))

    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    res = full_residual(Zero(), kern, lambda x: np.zeros_like(x),
                        np.array([0.3, 0.6]))
    np.testing.assert_allclose(res, 0.0, atol=0)


def test_full_residual_of_characteristic_series():
    basis = build_basis(0.5, 20)
    n = np.arange(0, 22)
    f = np.where(n == 0, 0.5,
                 ((-1.0) ** n - 1.0) / (np.pi ** 2 * np.maximum(n, 1) ** 2))
    sol = characteristic_series_solve(basis, f, 20)
    kern = KernelSpec(beta=0.5, regular_part=lambda x, xi: np.zeros_like(x * xi))
    res = full_residual(sol, kern, lambda x: x, np.array([0.2, 0.4, 0.6, 0.8]))
    assert np.max(np.abs(res)) < 5e-3


def test_full_residual_drops_to_plateau_with_truncation():
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    xs = np.array([0.2, 0.5, 0.8])
    norms = []
    for n_cut in (5, 10, 15):
        sol = solve(kern, lambda x: x, SolveConfig(N=n_cut, t1=200, t2=210),
                    diagnostics=False)
        res = full_residual(sol, kern, lambda x: x, xs)
        norms.append(np.max(np.abs(res)))
    # big drop from the coarse truncation, then the oscillatory plateau
    assert norms[1] < norms[0] / 5.0
    assert norms[2] < norms[0] / 5.0


def test_zero_beta_inverse_matches_algebraic_form():
    # under zeta = cos(pi x) the half-weight inverse becomes a weighted
    # Cauchy transform on (-1, 1); evaluate that form directly and compare
    from fixsing._quad import gauss_jacobi

    def algebraic_form(f, x, n=200):
        zeta = np.cos(np.pi * np.atleast_1d(x))
        out = np.zeros_like(zeta)
        fz = f(np.atleast_1d(x))
        for sign in (1.0, -1.0):
            a = (sign * 0.5 - 1.0) / 2.0
            h, w = gauss_jacobi(n, a, -1.0 - a)
            ft = f(np.arccos(h) / np.pi)
            num = ft[None, :] - fz[:, None]
            ratio = num / (h[None, :] - zeta[:, None])
            power = ((1.0 + zeta) / (1.0 - zeta)) ** (sign * 0.25)
            out += (ratio @ w) * power
        return np.sin(np.pi * np.atleast_1d(x)) / (2.0 * np.pi) * out

    reg = classify(0.0)
    f = lambda t: -np.cos(np.pi * t)
    xs = np.linspace(1.0 / 12.0, 11.0 / 12.0, 11)
    got = inverse_characteristic(reg, f, xs, check_solvability=False)
    np.testing.assert_allclose(got, algebraic_form(f, xs), atol=1e-8)


def test_scalar_trial_function_is_broadcast():
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    xs = np.linspace(0.1, 0.9, 5)
    got = apply_K(kern, lambda t: 1.0, xs, 64)
    want = apply_K(kern, lambda t: np.full_like(t, 1.0), xs, 64)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("nodes", [64, 512, 1024])
def test_apply_S_and_apply_K_sample_phi_at_the_same_nodes(nodes):
    # one graded rule for both operators: apply_S samples phi at x and
    # then at the rule's nodes, apply_K at those nodes alone
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    xs = np.array([0.3, 0.7])
    seen = {"S": [], "K": []}

    def recording(key):
        def phi(t):
            seen[key].append(np.array(t, copy=True))
            return t * (1.0 - t)
        return phi

    apply_S(recording("S"), kern.beta, xs, PVRule(nodes))
    apply_K(kern, recording("K"), xs, nodes)
    assert len(seen["S"]) == 2 and len(seen["K"]) == 1
    assert np.array_equal(seen["S"][1], seen["K"][0])
    assert seen["K"][0].min() < 2.0 ** -23


def test_full_residual_samples_phi_once():
    # S[phi] and K[phi] share one sample of phi at xs and the rule's nodes
    kern = antiplane_kernel(AntiplaneParams(lam=0.5))
    sol = solve(kern, lambda x: x, SolveConfig(N=9, t1=60, t2=64),
                diagnostics=False)
    calls = []

    class Counted:
        constant_C = sol.constant_C

        @staticmethod
        def evaluate(x):
            calls.append(np.size(x))
            return sol.evaluate(x)

    xs = np.array([0.2, 0.4, 0.6])
    res = full_residual(Counted(), kern, lambda x: x, xs, PVRule(512))
    assert calls == [3 + len(PVRule(512).quadrature()[0])]
    want = (apply_S(sol.evaluate, kern.beta, xs, PVRule(512))
            + apply_K(kern, sol.evaluate, xs, 512) + xs - sol.constant_C)
    np.testing.assert_allclose(res, want, rtol=0, atol=1e-15)
