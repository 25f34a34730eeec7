"""Machine-checkable invariant suites behind the `fixsing verify` command.

Each check recomputes one structural identity of the library with an
independent route (quadrature against closed form, forward operator
against inverse, reference value against solver) and reports the measured
residual next to its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import cauchy, complete, kernels, oracle, regimes, spectral, specfun
from ._quad import check_nodes, gauss_jacobi, graded_rule


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["residual"] = float(d["residual"])
        d["tolerance"] = float(d["tolerance"])
        d["passed"] = self.passed
        return d


def _specfun_checks(nodes):
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, 64)
    err = 0.0
    for n in range(1, 12):
        err = max(err, float(np.max(np.abs(
            specfun.chebyshev_T(n + 1, x)
            - (2.0 * x * specfun.chebyshev_T(n, x)
               - specfun.chebyshev_T(n - 1, x))))))
        err = max(err, float(np.max(np.abs(
            specfun.chebyshev_U(n + 1, x)
            - (2.0 * x * specfun.chebyshev_U(n, x)
               - specfun.chebyshev_U(n - 1, x))))))
    yield CheckResult("specfun", "chebyshev-recurrence", err, 1e-10)

    # reference by the graded rule in x = (1 + z)/2, where 1 - z = 2(1 - x)
    # and 1 + z = 2x keep their relative precision at both endpoints
    x, w = graded_rule(2048, levels=40)
    for tag, fn, poly in (("first-kind", specfun.jacobi_chebyshev_integral_T,
                           specfun.chebyshev_T),
                          ("second-kind", specfun.jacobi_chebyshev_integral_U,
                           specfun.chebyshev_U)):
        a1, a2, j = (0.3, 0.6, 3) if tag == "first-kind" else (0.4, -0.2, 4)
        ref = 2.0 * float(np.dot(w, (2.0 * (1.0 - x))**a1 * (2.0 * x)**a2
                                 * poly(j, 2.0 * x - 1.0)))
        got = fn(a1, a2, j)
        yield CheckResult("specfun", f"jacobi-integral-{tag}",
                          abs(got - ref) / abs(ref), 1e-9)

    basis = spectral.build_basis(0.5, 4)
    rho1 = basis.rho1
    tie = abs(2.0 / np.pi
              * specfun.jacobi_chebyshev_integral_T(rho1 - 1.0, -rho1, 2)
              - spectral.M_coeff(basis, 2))
    yield CheckResult("specfun", "weight-moment-tie", tie, 1e-10)


def _regimes_checks(nodes):
    r_plus = regimes.classify(1e-9)
    r_minus = regimes.classify(-1e-9)
    yield CheckResult("regimes", "rho1-continuity-at-zero",
                      max(abs(r_plus.rho1 - 0.75), abs(r_minus.rho1 - 0.75)),
                      1e-6)

    xs = np.linspace(0.05, 0.45, 9)
    err = 0.0
    for beta in (0.5, -0.5, 2.0):
        reg = regimes.classify(beta)
        err = max(err, float(np.max(np.abs(
            regimes.solvability_weight(reg, xs)
            - regimes.solvability_weight(reg, 1.0 - xs)))))
    yield CheckResult("regimes", "weight-symmetry", err, 1e-12)

    # int V = 2 / cos(pi e / 2) for V = tan^e + cot^e (pi x / 2); the
    # weight grows like (1 - x)^-e, e -> 1 as beta -> -1
    err = 0.0
    for beta in (0.5, -0.5, -0.95, -0.99):
        reg = regimes.classify(beta)
        mass = regimes.solvability_functional(reg, np.ones_like, nodes)
        err = max(err, float(abs(mass / 2.0 * np.cos(
            np.pi * reg.weight_exponent / 2.0) - 1.0)))
    yield CheckResult("regimes", "weight-functional-mass", err, 1e-11)

    xs = np.array([0.2, 0.5, 0.8])
    err = 0.0
    for beta, f in ((0.5, lambda t: -np.cos(np.pi * t)),
                    (2.0, lambda t: np.cos(np.pi * t))):
        reg = regimes.classify(beta)
        phi = lambda t, reg=reg, f=f: regimes.inverse_characteristic(
            reg, f, t, nodes=nodes, check_solvability=False)
        got = oracle.apply_S(phi, beta, xs, oracle.PVRule(nodes))
        err = max(err, float(np.max(np.abs(got - f(xs)))))
    yield CheckResult("regimes", "inverse-forward-roundtrip", err, 1e-5)

    reg = regimes.classify(0.5)
    pts = np.array([1e-3, 1e-2])
    vals = regimes.inverse_characteristic(reg, lambda t: -np.cos(np.pi * t),
                                          pts, nodes=nodes,
                                          check_solvability=False)
    fit = np.log(abs(vals[1] / vals[0])) / np.log(pts[1] / pts[0])
    want = regimes.endpoint_asymptotics(reg).exponent_at_0
    yield CheckResult("regimes", "endpoint-exponent-fit",
                      abs(fit - want) / want, 0.05)


def _spectral_checks(nodes):
    xs = np.linspace(1.0 / 8.0, 7.0 / 8.0, 7)
    err = 0.0
    for beta in (0.5, -0.3):
        basis = spectral.build_basis(beta, 4)
        for j in range(4):
            got = oracle.apply_S(lambda t, j=j, b=basis: b.phi(j, t), beta,
                                 xs, oracle.PVRule(nodes))
            want = spectral.N_coeff(basis, j + 1) - np.cos((j + 1) * np.pi * xs)
            err = max(err, float(np.max(np.abs(got - want))))
    yield CheckResult("spectral", "spectral-relation", err, 1e-5)

    basis = spectral.build_basis(0.5, 4)
    err = max(abs(_parity_product(basis, 1, 0)),
              abs(_parity_product(basis, 3, 2)))
    yield CheckResult("spectral", "parity-orthogonality", err, 1e-8)

    bad = 0
    grid = np.linspace(1e-4, 1.0 - 1e-4, 4001)
    basis6 = spectral.build_basis(0.5, 6)
    for j in range(7):
        signs = np.sign(basis6.phi(j, grid))
        flips = int(np.sum(signs[:-1] * signs[1:] < 0))
        bad += abs(flips - j)
    yield CheckResult("spectral", "root-count", float(bad), 0.0)

    n = np.arange(0, 22)
    f = np.where(n == 0, 0.5, ((-1.0)**n - 1) / (np.pi**2 * np.maximum(n, 1)**2))
    basis20 = spectral.build_basis(0.5, 20)
    sol = spectral.characteristic_series_solve(basis20, f, 20)
    yield CheckResult("spectral", "linear-load-reference-value",
                      abs(sol.evaluate(0.5) - 0.441492), 5e-4)
    yield CheckResult("spectral", "linear-load-constant",
                      abs(sol.constant_C - 0.5), 1e-12)

    err = 0.0
    for j in range(0, 12, 2):
        err = max(err, abs(spectral.N_coeff(basis, j)
                           - specfun.hyp3F2_terminating(j, basis.rho1, 1.0)))
    yield CheckResult("spectral", "moment-recurrence-vs-sum", err, 1e-9)


def _parity_product(basis, ja, jb, n: int = 120):
    """Weighted product integral int phi_ja phi_jb sin^(2 rho1 - 2)(pi x) dx.

    Under zeta = cos(pi x) the product splits into three Jacobi weights
    times polynomials, each integrated exactly by Gauss-Jacobi: with
    r = rho1 the weight pairs are (1/2-r, 3r-3/2) for the leading-branch
    square, (r-1/2, r-1/2) for the cross term, and the mirror image for
    the conjugate-branch square.
    """
    r = basis.rho1
    total = 0.0
    pieces = (((0.5 - r, 3.0 * r - 1.5), "rho"),
              ((r - 0.5, r - 0.5), "cross"),
              ((3.0 * r - 1.5, 0.5 - r), "conj"))
    for (alpha, beta_w), kind in pieces:
        z, w = gauss_jacobi(n, alpha, beta_w)
        # z = cos(pi x) is the argument of the U-series
        q, qc = spectral._q_rows((r, 1.0 - r), max(ja, jb), z).swapaxes(0, 1)
        if kind == "rho":
            poly = q[ja] * q[jb]
        elif kind == "conj":
            poly = qc[ja] * qc[jb]
        else:
            poly = q[ja] * qc[jb] + qc[ja] * q[jb]
        total += float(np.dot(w, poly))
    return total / (4.0 * np.pi)


def _cauchy_checks(nodes):
    xs = np.linspace(1.0 / 12.0, 11.0 / 12.0, 11)
    err = 0.0
    for j in range(5):
        got = cauchy.u_weighted_cauchy_transform(j, xs, nodes)
        want = -np.pi / 2.0 * specfun.chebyshev_T(j + 1, 2.0 * xs - 1.0)
        err = max(err, float(np.max(np.abs(got - want))))
    yield CheckResult("cauchy", "weighted-transform-identity", err, 1e-8)

    sol = cauchy.cauchy_solve(lambda x, xi: np.zeros_like(x * xi),
                              lambda x: x, N=8)
    exact = lambda x: np.sqrt(x * (1.0 - x))
    pts = np.linspace(0.05, 0.95, 11)
    err = float(np.max(np.abs(sol.evaluate(pts) - exact(pts))))
    err = max(err, abs(sol.constant_C - 0.5))
    yield CheckResult("cauchy", "characteristic-roundtrip", err, 1e-8)

    vals = cauchy.cauchy_inverse(lambda t: np.ones_like(t), pts, nodes)
    yield CheckResult("cauchy", "inverse-of-constant",
                      float(np.max(np.abs(vals))), 1e-10)


def _complete_checks(nodes):
    zero = complete.KernelSpec(beta=0.5,
                               regular_part=lambda x, xi: np.zeros_like(x * xi))
    cfg = complete.SolveConfig(N=12, t1=100, t2=110)
    sol = complete.solve(zero, lambda x: x, cfg, diagnostics=False)
    f = complete.fourier_load_coeffs(lambda x: x, cfg.t1, cfg.N)
    series = spectral.characteristic_series_solve(sol.basis, f, cfg.N - 2)
    pts = np.linspace(0.1, 0.9, 9)
    err = float(np.max(np.abs(sol.evaluate(pts) - series.evaluate(pts))))
    err = max(err, abs(sol.constant_C - 0.5))
    yield CheckResult("complete", "characteristic-equivalence", err, 1e-6)

    kern = kernels.antiplane_kernel(kernels.AntiplaneParams(lam=0.5))
    s1 = complete.solve(kern, lambda x: x, cfg, diagnostics=False)
    s2 = complete.solve(kern, lambda x: np.sin(np.pi * x), cfg,
                        diagnostics=False)
    s3 = complete.solve(kern, lambda x: 2.0 * x - 3.0 * np.sin(np.pi * x),
                        cfg, diagnostics=False)
    err = float(np.max(np.abs(2.0 * s1.b - 3.0 * s2.b - s3.b)))
    yield CheckResult("complete", "linearity", err, 1e-10)

    table_cfg = complete.SolveConfig(N=10, t1=200, t2=210)
    sol = complete.solve(kern, lambda x: x, table_cfg, diagnostics=False)
    yield CheckResult("complete", "antiplane-reference-value",
                      abs(sol.evaluate(0.5) - 0.601814), 1e-3)
    yield CheckResult("complete", "solvability-identity",
                      sol.residual_report["solvability_identity"], 1e-10)


def _kernels_checks(nodes):
    p = kernels.plane_strain_coeffs(1.0, 1.0, 0.3, 0.3)
    g = kernels.gamma0_root(p)
    yield CheckResult("kernels", "homogeneous-exponent", abs(g - 0.5), 1e-10)
    yield CheckResult("kernels", "homogeneous-effective-beta",
                      abs(p.beta_eff), 1e-12)
    yield CheckResult("kernels", "exponent-equation-residual",
                      abs(kernels.lambda_fn(g, p)), 1e-8)

    gs = []
    for lam in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
        pp = kernels.plane_strain_coeffs(lam, 1.0, 0.3, 0.3)
        gs.append(kernels.gamma0_root(pp))
    mono = float(np.min(np.diff(gs)))
    yield CheckResult("kernels", "exponent-monotone-in-stiffness",
                      max(0.0, -mono), 0.0)

    x = np.linspace(0.0, 1.9, 7)
    direct = np.zeros_like(x)
    for j in range(1, 2001):
        direct += 0.8 ** (2 * j) / (x + 2 * j)
    got = kernels.antiplane_D(x, 0.8, tol=1e-12)
    yield CheckResult("kernels", "reflection-series-tail-bound",
                      float(np.max(np.abs(got - direct))), 1e-11)

    # antiplane_R's power series against the one-sided form, with the four
    # D arguments in one call: the two are independent algorithms (Horner
    # in a^2 and u^2 against D's image loop), and the direct sum above
    # checks D
    x, xi = np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9))
    s, u = x + xi, x - xi
    err = 0.0
    for beta in (0.3, 0.8, 0.99):
        d = kernels.antiplane_D(np.stack([s, 2.0 - s, 2.0 - u, 2.0 + u]), beta)
        one_sided = (beta * (d[0] - d[1])
                     + beta**2 * (d[2] - d[3] + 2.0 * u / (4.0 - u * u)))
        err = max(err, float(np.max(np.abs(
            kernels.antiplane_R(x, xi, beta) - one_sided))))
    yield CheckResult("kernels", "paired-reflection-sums", err, 1e-11)

    cfg = complete.SolveConfig(N=10, t1=100, t2=110)
    vals = []
    for lam in (0.5, 1.0, 2.0):  # lambda = 1 takes the Cauchy route
        kern = kernels.antiplane_kernel(kernels.AntiplaneParams(lam=lam))
        sol = complete.solve(kern, lambda x: x, cfg, diagnostics=False)
        vals.append(sol.evaluate(0.5))
    mono = float(np.min(-np.diff(vals)))
    yield CheckResult("kernels", "opening-decreases-with-stiffness",
                      max(0.0, -mono), 0.0)


_SUITES = {
    "specfun": _specfun_checks,
    "regimes": _regimes_checks,
    "spectral": _spectral_checks,
    "cauchy": _cauchy_checks,
    "complete": _complete_checks,
    "kernels": _kernels_checks,
}


def run(suites=None, nodes: int = 512):
    """Run the named suites (all by default); returns a list of CheckResult."""
    check_nodes(nodes)
    names = list(_SUITES) if not suites else list(suites)
    results = []
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; "
                             f"choose from {sorted(_SUITES)}")
        results.extend(_SUITES[name](nodes))
    return results
