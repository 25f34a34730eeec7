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
of the characteristic operator in a ratio fixed by j.  A regular kernel
that stays homogeneous of degree -1 at the corners (the plane-strain
remainder) changes the second power of the solution, so its expansion in
phi_j converges only algebraically.  For such kernels the trial space
gets two corner functions with the power x^(2 rho1) at both ends, one
even and one odd about x = 1/2; they free that power at each endpoint.
Their images under S come from the principal-value rule of
fixsing.oracle, the system gains one cosine row per function, and the
kernel moments use an endpoint-graded rule in xi (see kernel_matrix).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from ._quad import graded_rule
from .oracle import PVRule, apply_S
from .spectral import SpectralBasis, N_coeff, M_coeff, build_basis

#: condition-number ceiling before a truncated system counts as singular
COND_LIMIT = 1e12

#: |beta| below which solve hands the equation to the Cauchy solver
CAUCHY_BETA = 1e-9


class SingularSystemError(RuntimeError):
    """Truncated system numerically rank-deficient."""


@dataclass(frozen=True)
class KernelSpec:
    """Evaluatable regular kernel with its singular parameter.

    regular_part(x, xi) must accept broadcastable arrays and return finite
    values on the open square and the diagonal; corner growth (toward
    xi = x = 0 and xi = x = 1) is allowed since quadrature nodes are
    interior midpoints.  homogeneous_corners marks a regular part that is
    homogeneous of degree -1 at both corners; solve then adds the corner
    trial functions.
    """

    beta: float
    regular_part: Callable
    name: str = "kernel"
    homogeneous_corners: bool = False


@dataclass(frozen=True)
class SolveConfig:
    """Truncation order and Gauss node counts.

    N is the truncation parameter as reported in the reference tables: the
    dense system keeps the cosine rows n = 1 .. N-1 and the basis modes
    j = 0 .. N-2.  Defaults follow the reference setup (N = 17, 200/210
    nodes); unequal t1 and t2 keep the two midpoint grids from sharing
    nodes.  For kernels with homogeneous corners t2 is the budget of the
    graded xi-rule and pv_nodes that of the corner functions' S-images;
    otherwise pv_nodes only sizes the diagnostics.
    """

    N: int = 17
    t1: int = 200
    t2: int = 210
    pv_nodes: int = 512

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("truncation order must be positive")
        if self.t1 < self.N:
            raise ValueError("t1 must be at least N to avoid cosine aliasing")
        if min(self.t1, self.t2) < self.N:
            raise ValueError("node counts must be at least N")


def corner_functions(power: float):
    """Trial functions sin(pi x)^p and sin(pi x)^p cos(pi x).

    Both behave like x^p at 0 and like (1 - x)^p at 1; the first is even
    and the second odd about x = 1/2.  Both vanish exactly at the ends.
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

    corner_coeffs holds the weights of the corner trial functions with
    power 2 rho1 (empty unless the kernel has homogeneous corners).
    """

    basis: SpectralBasis
    b: np.ndarray
    constant_C: float
    config: SolveConfig
    residual_report: dict = field(default_factory=dict)
    corner_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def evaluate(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        vals = self.b @ self.basis.phi_matrix(x_arr)[: len(self.b)]
        if len(self.corner_coeffs):
            fns = corner_functions(2.0 * self.basis.rho1)
            vals = vals + sum(c * g(x_arr)
                              for c, g in zip(self.corner_coeffs, fns))
        return vals if np.ndim(x) else float(vals[0])


def _midpoints(t: int) -> np.ndarray:
    return (2.0 * np.arange(1, t + 1) - 1.0) / (2.0 * t)


def fourier_load_coeffs(F, t1: int, n_max: int) -> np.ndarray:
    """Cosine moments f_n = int_0^1 F(x) cos(n pi x) dx, n = 0..n_max.

    Midpoint rule on t1 nodes, which is the Gauss-Chebyshev rule under
    zeta = cos(pi x); exact for cosine harmonics below the aliasing limit,
    hence the precondition n_max < t1.
    """
    if n_max >= t1:
        raise ValueError("n_max must stay below the node count")
    x = _midpoints(t1)
    n = np.arange(n_max + 1)
    return np.cos(np.pi * np.outer(n, x)) @ np.asarray(F(x), dtype=float) / t1


@lru_cache(maxsize=32)
def _corner_images(beta: float, power: float, t1: int, nodes: int):
    """S[g](x) of both corner functions g at the t1 midpoints (read-only,
    shared by every truncation order of one kernel)."""
    x = _midpoints(t1)
    rule = PVRule(nodes)
    images = np.array([apply_S(g, beta, x, rule)
                       for g in corner_functions(power)])
    images.setflags(write=False)
    return images


def kernel_matrix(kernel: KernelSpec, basis: SpectralBasis,
                  config: SolveConfig, n_max: int, extra=()) -> np.ndarray:
    """Moments k_{nj} = int int K(x, xi) phi_j(xi) cos(n pi x) dxi dx.

    Double midpoint rule with t1 x-nodes and t2 xi-nodes; nodes are
    interior, so the fixed-singularity corners are never touched.  A
    kernel with homogeneous corners makes the xi-integrand singular at
    xi = 0 and 1, where the midpoint rule converges only algebraically
    (slowest for small gamma0); its xi-nodes come from the
    endpoint-graded rule with a budget of t2 nodes instead.
    Returns shape (n_max+1, n_max+1) with j = 0..n_max columns.  Each
    further trial function in extra appends one column after the basis
    and one cosine row, so the matrix stays square.
    """
    if basis.max_degree < n_max:
        raise ValueError("basis table too small for requested moments")
    x = _midpoints(config.t1)
    if kernel.homogeneous_corners:
        xi, w = graded_rule(config.t2)
        scale = config.t1
    else:
        xi, w = _midpoints(config.t2), None
        scale = config.t1 * config.t2
    kmat = np.asarray(kernel.regular_part(x[:, None], xi[None, :]), dtype=float)
    pmat = basis.phi_matrix(xi)[: n_max + 1]
    if extra:
        pmat = np.vstack([pmat] + [g(xi) for g in extra])
    if w is not None:
        pmat = pmat * w
    cosmat = np.cos(np.pi * np.outer(np.arange(len(pmat)), x))
    return cosmat @ kmat @ pmat.T / scale


def dense_solve(a: np.ndarray, rhs: np.ndarray):
    """x, cond(a) and max |a x - rhs| for the truncated system of either
    route; a non-finite rhs raises ValueError, cond(a) > COND_LIMIT
    SingularSystemError."""
    if not np.all(np.isfinite(rhs)):
        raise ValueError("load moments are not finite")
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
          diagnostics: bool = True):
    """Solve the complete equation for |beta| < 1.

    Below CAUCHY_BETA the equation is the classical Cauchy one and goes,
    with the same N, t1 and t2, to fixsing.cauchy.cauchy_solve, which
    returns a CauchySolution without diagnostics.  Otherwise the truncated
    rows n = 1..N are assembled and solved densely, then C is recovered
    from the n = 0 row.  A kernel with homogeneous corners adds the two
    corner trial functions and the rows n = N, N+1 (see the module
    docstring).  The residual report carries the linear-system residual,
    the solvability-identity residual (exactly the n = 0 row restated
    through the weight moments), the regularization-constant cross-check
    of C, and, when diagnostics is set, the full equation residual at five
    interior points.
    """
    config = config or SolveConfig()
    if abs(kernel.beta) < CAUCHY_BETA:
        from .cauchy import cauchy_solve
        return cauchy_solve(_cauchy_remainder(kernel), F, N=config.N,
                            t1=config.t1, t2=config.t2)
    rows = config.N - 1
    basis = build_basis(kernel.beta, max(rows, 1))
    extra = (corner_functions(2.0 * basis.rho1)
             if kernel.homogeneous_corners else ())
    f = fourier_load_coeffs(F, config.t1, rows + len(extra))
    k = kernel_matrix(kernel, basis, config, rows, extra)
    if extra:
        # the unused column phi_rows goes; the corner columns gain the
        # cosine moments of their S-images
        k = np.delete(k, rows, axis=1)
        images = _corner_images(kernel.beta, 2.0 * basis.rho1, config.t1,
                                config.pv_nodes)
        x = _midpoints(config.t1)
        cosmat = np.cos(np.pi * np.outer(np.arange(len(k)), x))
        k[:, rows:] += cosmat @ images.T / config.t1
    n_unknowns = rows + len(extra)

    a = k[1:, :n_unknowns].copy()
    a[np.arange(rows), np.arange(rows)] -= 0.5
    coeffs, cond, linear = dense_solve(a, -f[1:])
    if config.N > 25:
        warnings.warn(
            f"truncation order {config.N} is beyond the stable range; "
            f"condition number {cond:.2e}",
            stacklevel=2,
        )

    n_coeffs = np.array([N_coeff(basis, j + 1) for j in range(rows)]
                        + [0.0] * len(extra))
    c = float(f[0] + (n_coeffs + k[0, :n_unknowns]) @ coeffs)

    report = {"condition_number": cond, "linear_residual": linear}
    m_coeffs = np.array([M_coeff(basis, n) for n in range(n_unknowns + 1)])
    lhs = m_coeffs[0] * (c - f[0] - k[0, :n_unknowns] @ coeffs)
    rhs = 2.0 * m_coeffs[1:] @ (f[1:] + k[1:, :n_unknowns] @ coeffs)
    report["solvability_identity"] = float(abs(lhs - rhs))

    solution = Solution(basis=basis, b=coeffs[:rows], constant_C=c,
                        config=config, residual_report=report,
                        corner_coeffs=coeffs[rows:])
    if diagnostics:
        _attach_diagnostics(solution, kernel, F, report)
    return solution


def _attach_diagnostics(solution: Solution, kernel: KernelSpec, F, report):
    from . import oracle
    from .regimes import classify, solvability_functional

    xs = np.linspace(0.1, 0.9, 5)
    rule = oracle.PVRule(nodes=solution.config.pv_nodes)
    res = oracle.full_residual(solution, kernel, F, xs, rule)
    report["equation_residual_max"] = float(np.max(np.abs(res)))

    # cross-check of C through the regularization constant: C equals the
    # weight functional of F + K[phi]
    regime = classify(kernel.beta)
    nodes = solution.config.pv_nodes

    def load_plus_k(x):
        return (np.asarray(F(x), dtype=float)
                + oracle.apply_K(kernel, solution.evaluate, x, nodes))

    c_reg = (np.sin(np.pi * solution.basis.rho1) / 2.0
             * solvability_functional(regime, load_plus_k, nodes))
    report["regularization_constant_gap"] = abs(c_reg - solution.constant_C)
