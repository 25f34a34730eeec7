"""Galerkin solver for the complete singular integral equation.

The equation

    int_0^1 [S(x, xi) + K(x, xi)] phi(xi) dxi = -F(x) + C,     0 < x < 1,

with the fixed-singularity kernel S and a regular kernel K, is solved in
the bounded class by expanding phi in the spectral basis phi_j.  The image
S[phi_j] = N_{j+1} - cos((j+1) pi x) and cosine orthogonality turn the
equation into the infinite algebraic system

    n = 0:      sum_j (N_{j+1} + k_{0j}) b_j = C - f_0,
    n >= 1:     -b_{n-1}/2 + sum_j k_{nj} b_j = -f_n,

with k_{nj} the double cosine moments of K against phi_j and f_n the
cosine moments of F.  The rows n = 1..N are truncated and solved densely;
the n = 0 row then defines C and doubles as the solvability condition,
to which it is algebraically identical.

Every phi_j carries the two endpoint powers x^(2 - 2 rho1) and x^(2 rho1)
of the characteristic operator in a ratio fixed by j.  A corner part of
the regular kernel, homogeneous of degree -1 at the corners (the
plane-strain remainder), changes the second power of the solution, so its
expansion in phi_j converges only algebraically.  The trial space then
two corner functions with the power x^(2 rho1) at both ends, one even
and one odd about x = 1/2; they free that power at each endpoint.
Their images under S are analytic on [0, 1] (see _corner_images): they
come from the principal-value rule of fixsing.oracle at the CHEB_ORDER
Chebyshev points and enter the cosine moments through their interpolant.
The system gains one cosine row per function, and the kernel moments use
an endpoint-graded rule in xi (see kernel_matrix).

The moments k_{nj} are double midpoint sums over the t1 x t2 grid.  A
regular part declared analytic on the closed square, less any corner
part, enters them through its interpolant on a fixed tensor of
CHEB_ORDER^2 Chebyshev points; a corner part is linear in its three
coefficients, whose lambda-free grids serve every kernel.  Only an
undeclared kernel is evaluated on the grid.  The phi_j come at the
xi-nodes from one table per rho1 and rule, which serves a whole
truncation ladder, since a row does not depend on the degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np

from ._quad import graded_rule, kernel_grid, values_at
from .oracle import PVRule, apply_K, apply_S
from .regimes import classify, solvability_functional
from .spectral import SpectralBasis, M_coeff, _moment_table, build_basis

if TYPE_CHECKING:
    from .cauchy import CauchyBasis

#: condition-number ceiling before a truncated system counts as singular
COND_LIMIT = 1e12

#: |beta| below which solve hands the equation to the Cauchy solver
CAUCHY_BETA = 1e-9

#: node budget of the principal-value rule behind the corner functions'
#: S-images and the diagnostics of solve
PV_NODES = 512

#: points per variable of the Chebyshev tensor that samples an analytic
#: regular part.  The antiplane kernel's nearest singularities lie at
#: xi - x = +-2, a Bernstein ellipse with rho = 3 + sqrt(8) for every beta,
#: so the truncation error, of order rho^-24 ~ 4e-19, is below rounding
CHEB_ORDER = 24


class SingularSystemError(RuntimeError):
    """Truncated system numerically rank-deficient."""


@dataclass(frozen=True)
class KernelSpec:
    """Evaluatable regular kernel with its singular parameter.

    regular_part(x, xi) must accept broadcastable arrays and return finite
    values on the open square and the diagonal; corner growth (toward
    xi = x = 0 and xi = x = 1) is allowed since quadrature nodes are
    interior midpoints.  It must be a pure function of (x, xi): solve caches
    the samples of one spec, keyed by the spec itself, and reuses them for
    every truncation order (see _kernel_grid and _kernel_tensor).
    corner_form = (c1, c2, c3) states that regular_part contains the corner
    part _corner_part(c, x, xi), homogeneous of degree -1 at both
    corners; solve then adds the corner trial functions.  analytic declares
    regular_part, less that corner part, analytic on a neighbourhood of the
    closed square, so that solve samples it on the CHEB_ORDER^2 Chebyshev
    tensor instead of the grid; it is never assumed.  The kernel factories
    of fixsing.kernels build one and declare what holds; so can any caller
    with its own kernel.
    """

    beta: float
    regular_part: Callable
    corner_form: tuple | None = None
    analytic: bool = False

    def __post_init__(self):
        if self.corner_form is not None:
            form = tuple(map(float, self.corner_form))
            if len(form) != 3 or not np.all(np.isfinite(form)):
                raise ValueError("corner_form takes three finite coefficients")
            object.__setattr__(self, "corner_form", form)


@dataclass(frozen=True)
class SolveConfig:
    """Truncation order and Gauss node counts.

    N is the truncation parameter as reported in the reference tables: the
    dense system keeps the cosine rows n = 1 .. N-1 and the basis modes
    j = 0 .. N-2.  Defaults follow the reference setup (N = 17, 200/210
    nodes); unequal t1 and t2 keep the two midpoint grids from sharing
    nodes.  For kernels with a corner form t2 is the budget of the graded
    xi-rule.  The principal-value rule of the corner functions'
    S-images and of the diagnostics has the fixed budget PV_NODES.
    """

    N: int = 17
    t1: int = 200
    t2: int = 210

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("truncation order must be positive")
        if min(self.t1, self.t2) < self.N:
            raise ValueError("node counts t1 and t2 must be at least N "
                             "(t1 to avoid cosine aliasing)")


@lru_cache(maxsize=32)
def corner_functions(power: float):
    """Trial functions sin(pi x)^p and sin(pi x)^p cos(pi x).

    Both behave like x^p at 0 and like (1 - x)^p at 1; the first is even
    and the second odd about x = 1/2.  Both vanish exactly at the ends.
    One pair per power serves every Solution that carries it.
    """
    def even(x):
        x = np.asarray(x, dtype=float)
        return np.sin(np.pi * np.minimum(x, 1.0 - x)) ** power

    def odd(x):
        return even(x) * np.cos(np.pi * np.asarray(x, dtype=float))

    return even, odd


@dataclass(frozen=True)
class Solution:
    """Truncated solution phi(x) = sum_j b_j phi_j(x) with its constant.

    The result of every solver: basis is a SpectralBasis, or a CauchyBasis
    on the beta = 0 route; config is None unless solve made it.
    corner_coeffs holds the weights of extra_functions, the trial functions
    added to the basis (the corner functions of a kernel's corner form).
    """

    basis: SpectralBasis | CauchyBasis
    b: np.ndarray
    constant_C: float
    config: SolveConfig | None = None
    residual_report: dict = field(default_factory=dict)
    corner_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    extra_functions: tuple = ()

    def evaluate(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        vals = self.b @ self.basis.phi_matrix(x_arr)[: len(self.b)]
        vals = vals + sum(c * g(x_arr) for c, g in
                          zip(self.corner_coeffs, self.extra_functions))
        return vals if np.ndim(x) else float(vals[0])


def _midpoints(t: int) -> np.ndarray:
    return (2.0 * np.arange(1, t + 1) - 1.0) / (2.0 * t)


@lru_cache(maxsize=32)
def _cosines(rows: int, t: int) -> np.ndarray:
    """cos(n pi x) for n < rows at the t midpoints (read-only)."""
    table = np.cos(np.pi * np.outer(np.arange(rows), _midpoints(t)))
    table.setflags(write=False)
    return table


def fourier_load_coeffs(F, t1: int, n_max: int) -> np.ndarray:
    """Cosine moments f_n = int_0^1 F(x) cos(n pi x) dx, n = 0..n_max.

    Midpoint rule on t1 nodes, which is the Gauss-Chebyshev rule under
    zeta = cos(pi x); exact for cosine harmonics below the aliasing limit,
    hence the precondition n_max < t1.
    """
    if n_max >= t1:
        raise ValueError("n_max must stay below the node count")
    values = values_at(F, _midpoints(t1))
    with np.errstate(over="ignore", invalid="ignore"):  # the solvers raise
        return _cosines(n_max + 1, t1) @ values / t1


@lru_cache(maxsize=32)
def _corner_images(beta: float, power: float):
    """S[g] of both corner functions g at the CHEB_ORDER Chebyshev points
    (read-only, shared by every truncation order and node budget).  The
    Mellin symbol -(cos pi s + beta)/sin pi s of S vanishes at s = 2 rho1
    = power and is 2-periodic, so S maps every term x^(power + 2k) of g
    to a function without a singular part, at either end: both images are
    analytic on [0, 1] (Duduchava, Integral Equations with Fixed
    Singularities, 1979), and their interpolant stands in for them at the
    midpoints, as the tensor does for an analytic kernel.
    """
    x, rule = _chebyshev_points(), PVRule(PV_NODES)
    images = np.array([apply_S(g, beta, x, rule)
                       for g in corner_functions(power)])
    images.setflags(write=False)
    return images


def _xi_rule(kernel: KernelSpec, t2: int):
    """xi-nodes of the kernel moments and their weights (None for the
    midpoint rule)."""
    if kernel.corner_form is not None:
        return graded_rule(t2)
    return _midpoints(t2), None


@lru_cache(maxsize=2)
def _xi_basis(rho1: float, degree: int, t2: int, graded: bool) -> np.ndarray:
    """phi_0 .. phi_degree at the xi-nodes of _xi_rule (read-only)."""
    table = SpectralBasis(rho1, degree).phi_matrix(
        graded_rule(t2)[0] if graded else _midpoints(t2))
    table.setflags(write=False)
    return table


def _corner_sides(x, xi):
    """Sides (a, b, k) of the corner part at (0, 0) and (1, 1): a = x and
    b = xi, or x - 1 and xi - 1, with k = 1/(pi (a + b)^3).  Term i, the
    sum of a^i b^(2-i) k over both, is lambda-free, and the corner part
    (q + q_m)/pi of form c is sum_i c_i term i (see plane_strain_kernel)."""
    return [(a, b, 1.0 / (np.pi * s * s * s))
            for a, b in ((x, xi), (x - 1.0, xi - 1.0)) for s in (a + b,)]


def _corner_part(form, x, xi):
    """The corner part of form (c1, c2, c3) at broadcastable (x, xi)."""
    c1, c2, c3 = form
    return sum(((c1 * b + c2 * a) * b + c3 * a * a) * k
               for a, b, k in _corner_sides(x, xi))


@lru_cache(maxsize=4)
def _corner_tables(t1: int, t2: int) -> np.ndarray:
    """The three terms of _corner_sides at the t1 x-midpoints against
    graded_rule(t2), in one pass (read-only, for every corner form)."""
    p = np.arange(3.0)[:, None, None]
    tables = sum(a ** p * b ** (2.0 - p) * k for a, b, k in
                 _corner_sides(_midpoints(t1)[:, None], graded_rule(t2)[0]))
    tables.setflags(write=False)
    return tables


@lru_cache(maxsize=1)
def _kernel_grid(kernel: KernelSpec, t1: int, t2: int):
    """K, or its corner part alone if analytic, at the t1 x-midpoints
    against the xi-nodes of _xi_rule (read-only, for every truncation)."""
    grid = (np.tensordot(kernel.corner_form, _corner_tables(t1, t2), 1)
            if kernel.analytic else
            kernel_grid(kernel.regular_part, _midpoints(t1),
                        _xi_rule(kernel, t2)[0]))
    grid.setflags(write=False)
    return grid


def _chebyshev_points() -> np.ndarray:
    """The CHEB_ORDER first-kind Chebyshev points of [0, 1], ascending."""
    theta = (2.0 * np.arange(CHEB_ORDER) + 1.0) * np.pi / (2.0 * CHEB_ORDER)
    return (1.0 - np.cos(theta)) / 2.0


def _barycentric(x) -> np.ndarray:
    """(len(x), CHEB_ORDER) barycentric matrix from values at the Chebyshev
    points to their interpolant at the points x.  The weights of first-kind
    points are (-1)^k sin(theta_k) (Berrut and Trefethen, SIAM Review
    2004); a point on a Chebyshev point takes its value."""
    k = np.arange(CHEB_ORDER)
    weights = (-1.0) ** k * np.sin((2.0 * k + 1.0) * np.pi / (2 * CHEB_ORDER))
    diff = np.asarray(x, dtype=float)[:, None] - _chebyshev_points()
    hit = diff == 0.0
    mat = weights / np.where(hit, 1.0, diff)
    on_node = hit.any(axis=1)
    mat[on_node] = hit[on_node]
    mat /= mat.sum(axis=1, keepdims=True)
    return mat


@lru_cache(maxsize=8)
def _chebyshev_interpolation(t: int, graded: bool = False) -> np.ndarray:
    """The barycentric matrix to the t midpoints or graded nodes (read-only)."""
    mat = _barycentric(graded_rule(t)[0] if graded else _midpoints(t))
    mat.setflags(write=False)
    return mat


def _interpolant_cosine_moments(rows: int, t1: int) -> np.ndarray:
    """(rows, CHEB_ORDER) map from values at the Chebyshev points to the
    t1-point midpoint moments against cos(n pi x), n < rows, of their
    interpolant."""
    return _cosines(rows, t1) @ _chebyshev_interpolation(t1) / t1


@lru_cache(maxsize=1)
def _kernel_tensor(kernel: KernelSpec) -> np.ndarray:
    """K less its corner part on the CHEB_ORDER^2 Chebyshev tensor (read-only,
    shared by every truncation order and node budget of one kernel)."""
    nodes = _chebyshev_points()
    tensor = kernel_grid(kernel.regular_part, nodes, nodes)
    if kernel.corner_form is not None:
        tensor -= _corner_part(kernel.corner_form, nodes[:, None], nodes)
    tensor.setflags(write=False)
    return tensor


def kernel_matrix(kernel: KernelSpec, basis: SpectralBasis,
                  config: SolveConfig, n_max: int, extra=()) -> np.ndarray:
    """Moments k_{nj} = int int K(x, xi) phi_j(xi) cos(n pi x) dxi dx.

    Double midpoint rule with t1 x-nodes and t2 xi-nodes; nodes are
    interior, so the fixed-singularity corners are never touched.  A
    kernel with a corner form makes the xi-integrand singular at xi = 0
    and 1, where the midpoint rule converges only algebraically (slowest
    for small gamma0); its xi-nodes come from the endpoint-graded rule
    with a budget of t2 nodes instead.
    Returns shape (n_max+1, n_max+1) with j = 0..n_max columns.  Each
    further trial function in extra appends one column after the basis
    and one cosine row, so the matrix stays square.
    An analytic kernel replaces the grid by its Chebyshev interpolant
    L_x V L_xi^T, V the tensor samples and L the barycentric matrices to
    the nodes, and the moments become (cos @ L_x / t1) @ V @
    (L_xi^T @ pmat^T / t2) without a grid-sized product; a corner part
    alone keeps the grid, from the lambda-free tables.
    """
    if basis.max_degree < n_max:
        raise ValueError("basis degree too small for requested moments")
    xi, w = _xi_rule(kernel, config.t2)
    # 2^k + 1 rows, at least 17, so that a ladder shares its tables
    degree = max(16, 1 << (n_max - 1).bit_length())
    pmat = _xi_basis(basis.rho1, degree, config.t2, w is not None)[: n_max + 1]
    if extra:
        pmat = np.vstack([pmat] + [g(xi) for g in extra])
    scale = config.t1 if w is not None else config.t1 * config.t2
    if w is not None:
        pmat = pmat * w
    if kernel.analytic:
        left = _interpolant_cosine_moments(len(pmat), config.t1)
        right = (_chebyshev_interpolation(config.t2, w is not None).T
                 @ pmat.T / (scale / config.t1))
        moments = left @ _kernel_tensor(kernel) @ right
        if kernel.corner_form is None:
            return moments
    kmat = _kernel_grid(kernel, config.t1, config.t2)
    grid = _cosines(len(pmat), config.t1) @ kmat @ pmat.T / scale
    return moments + grid if kernel.analytic else grid


def dense_solve(a: np.ndarray, f: np.ndarray):
    """x, cond(a) and max |a x - rhs| for the truncated system
    a x = rhs = -f[1:] of either route, f being the load moments from
    n = 0.  A non-finite moment raises ValueError, f[0] included (no row
    uses it, but C does); cond(a) > COND_LIMIT SingularSystemError."""
    if not np.all(np.isfinite(f)):
        raise ValueError("load moments are not finite")
    rhs = -f[1:]
    if not len(rhs):
        return np.zeros(0), 1.0, 0.0
    cond = float(np.linalg.cond(a))
    if cond > COND_LIMIT:
        raise SingularSystemError(
            f"truncated system is numerically singular (cond {cond:.2e})"
        )
    x = np.linalg.solve(a, rhs)
    return x, cond, float(np.max(np.abs(a @ x - rhs)))


def _cauchy_remainder(kernel: KernelSpec):
    """pi (K - cot_gap(xi - x) - beta fixed_gap(xi + x)), the kernel of the
    Cauchy form up to the fixed rational terms of order beta."""
    from .kernels import cot_gap, fixed_gap

    def remainder(x, xi):
        return np.pi * (kernel.regular_part(x, xi) - cot_gap(xi - x)
                        - kernel.beta * fixed_gap(xi + x))

    return remainder


def solve(kernel: KernelSpec, F, config: SolveConfig | None = None,
          diagnostics: bool = True) -> Solution:
    """Solve the complete equation for |beta| < 1.

    Below CAUCHY_BETA the equation is the classical Cauchy one and goes,
    with the same N, t1 and t2, to fixsing.cauchy.cauchy_solve; its
    Solution is over a CauchyBasis.  Otherwise the truncated rows
    n = 1..N are assembled and solved densely, then C is recovered from
    the n = 0 row.  A kernel with a corner form adds the two corner
    trial functions and the rows n = N, N+1 (see the module docstring).
    The residual report of either route carries the linear-system residual
    and the solvability-identity residual (exactly the n = 0 row restated,
    on the spectral route through the weight moments).  When diagnostics
    is set it adds the full equation residual at five interior points,
    where the exact kernel referees the solve and its tensor, and, on the
    spectral route, the regularization-constant cross-check of C, which
    takes an analytic kernel's K[phi] from the tensor.
    """
    config = config or SolveConfig()
    if abs(kernel.beta) < CAUCHY_BETA:
        from .cauchy import cauchy_solve
        solution = replace(
            cauchy_solve(_cauchy_remainder(kernel), F, N=config.N,
                         t1=config.t1, t2=config.t2), config=config)
    else:
        solution = _galerkin_solve(kernel, F, config)
    if diagnostics:
        solution = replace(solution, residual_report={
            **solution.residual_report, **_diagnostics(solution, kernel, F)})
    return solution


def _galerkin_solve(kernel: KernelSpec, F, config: SolveConfig) -> Solution:
    """The spectral route of solve, without diagnostics."""
    rows = config.N - 1
    basis = build_basis(kernel.beta, max(rows, 1))
    extra, images = ((corner_functions(2.0 * basis.rho1),
                      _corner_images(kernel.beta, 2.0 * basis.rho1))
                     if kernel.corner_form is not None else ((), ()))
    f = fourier_load_coeffs(F, config.t1, rows + len(extra))
    k = kernel_matrix(kernel, basis, config, rows, extra)
    if extra:
        # the unused column phi_rows goes; the extra columns gain the
        # cosine moments of their S-images
        k = np.delete(k, rows, axis=1)
        k[:, rows:] += (_interpolant_cosine_moments(len(k), config.t1)
                        @ images.T)
    n_unknowns = rows + len(extra)

    a = k[1:, :n_unknowns].copy()
    a[np.arange(rows), np.arange(rows)] -= 0.5
    coeffs, cond, linear = dense_solve(a, f)

    # N_j, zero for odd j, and M_j = M_0 N_j (N_0 = 1)
    n_all = np.where(np.arange(n_unknowns + 1) % 2, 0.0,
                     _moment_table(basis.rho1, n_unknowns)[:n_unknowns + 1])
    n_coeffs = np.concatenate([n_all[1:rows + 1], np.zeros(len(extra))])
    c = float(f[0] + (n_coeffs + k[0, :n_unknowns]) @ coeffs)

    report = {"condition_number": cond, "linear_residual": linear}
    m_coeffs = M_coeff(basis, 0) * n_all
    lhs = m_coeffs[0] * (c - f[0] - k[0, :n_unknowns] @ coeffs)
    rhs = 2.0 * m_coeffs[1:] @ (f[1:] + k[1:, :n_unknowns] @ coeffs)
    report["solvability_identity"] = float(abs(lhs - rhs))

    return Solution(basis=basis, b=coeffs[:rows], constant_C=c,
                    config=config, residual_report=report,
                    corner_coeffs=coeffs[rows:], extra_functions=extra)


def _diagnostics(solution: Solution, kernel: KernelSpec, F) -> dict:
    xs = np.linspace(0.1, 0.9, 5)
    # phi once, at the five points and at the nodes of apply_S and apply_K
    xi, w = graded_rule(PV_NODES)
    at = (xs, graded_rule(PV_NODES, levels=24)[0], xi)
    values = np.split(values_at(solution.evaluate, np.concatenate(at)),
                      np.cumsum([len(a) for a in at[:-1]]))
    phi_xi = values[-1]

    def phi(x):
        hit = [v for a, v in zip(at, values) if a is x]
        return hit[0] if hit else solution.evaluate(x)

    # the exact kernel, at the five points only: the referee of the tensor
    res = (apply_S(phi, kernel.beta, xs, PVRule(PV_NODES))
           + apply_K(kernel, phi, xs, PV_NODES) + values_at(F, xs)
           - solution.constant_C)
    report = {"equation_residual_max": float(np.max(np.abs(res)))}
    if not isinstance(solution.basis, SpectralBasis):
        # the beta = 0 weight is half the beta -> 0 limit of tan^e + cot^e:
        # the cross-check would need a factor 2 here, so it stays spectral
        return report

    # cross-check of C through the regularization constant: C equals the
    # weight functional of F + K[phi]
    regime = classify(kernel.beta)
    p = np.arange(3.0)

    def load_plus_k(x):
        if not kernel.analytic:
            return values_at(F, x) + apply_K(kernel, phi, x, PV_NODES)
        # K[phi] less its corner part is analytic in x if that part of K
        # is: the solve's tensor gives it at the Chebyshev points.  The
        # rational corner part is applied exactly, one side at a time:
        # sum_i c_i a^i k @ b^(2-i) w phi
        k = _barycentric(x) @ (_kernel_tensor(kernel) @ (
            _chebyshev_interpolation(PV_NODES, graded=True).T @ (w * phi_xi)))
        for a, b, r in (_corner_sides(x[:, None], xi)
                        if kernel.corner_form else ()):
            k = k + (r @ (b ** (2.0 - p[:, None]) * w * phi_xi).T
                     * a ** p) @ kernel.corner_form
        return values_at(F, x) + k

    c_reg = (np.sin(np.pi * solution.basis.rho1) / 2.0
             * solvability_functional(regime, load_plus_k, PV_NODES))
    report["regularization_constant_gap"] = abs(c_reg - solution.constant_C)
    return report
