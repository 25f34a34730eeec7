"""Brute-force forward application of the singular operator and residuals.

This is the verification backbone: apply_S evaluates S[phi](x) directly by
principal-value quadrature, independent of every closed form the rest of
the package trades on, so spectral images, inverses and solver output can
all be checked end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import (check_nodes, graded_rule, interior_points, kernel_grid,
                    log_cot_half, safe_ratio, values_at)


@dataclass(frozen=True)
class PVRule:
    """Node budget of the principal-value rule of apply_S."""

    nodes: int = 512

    def __post_init__(self):
        check_nodes(self.nodes)


def apply_S(phi, beta: float, x, rule: PVRule | None = None):
    """Forward operator S[phi](x) by singularity-subtraction quadrature.

    S[phi](x) = int_0^1 S(x,xi) [phi(xi) - phi(x)] dxi
                + phi(x) (1 + beta)/pi * ln cot(pi x / 2),

    where the compensator is the exact principal value of int S(x,xi) dxi.
    After subtraction the integrand is analytic across xi = x, so a fixed
    endpoint-graded rule integrates it; phi must vanish at the ends, which
    keeps the fixed-singularity term regular.
    """
    rule = rule or PVRule()
    xs = interior_points(x)
    # graded to 2^-24: a 2^-12 end panel does not resolve a bounded phi
    # that log-oscillates at an end, such as every beta < -1 inverse
    xi, w = graded_rule(rule.nodes, levels=24)
    phix = values_at(phi, xs)
    phixi = values_at(phi, xi)

    dmov = np.tan(np.pi * (xi[None, :] - xs[:, None]) / 2.0)
    # the pole entries are zeroed, though kern * diff has a finite limit
    # there (see safe_ratio)
    kern = safe_ratio(0.5, dmov)
    kern += beta * 0.5 / np.tan(np.pi * (xi[None, :] + xs[:, None]) / 2.0)
    diff = phixi[None, :] - phix[:, None]
    vals = (kern * diff) @ w + phix * (1.0 + beta) / np.pi * log_cot_half(xs)
    return vals if np.ndim(x) else float(vals[0])


def apply_K(kernel, phi, x, nodes: int = 512):
    """Plain quadrature of int_0^1 K(x, xi) phi(xi) dxi.

    kernel may be a KernelSpec or a bare (x, xi) callable.  The graded rule
    doubles as corner refinement for kernels growing toward the corners.
    """
    k = getattr(kernel, "regular_part", kernel)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    xi, w = graded_rule(nodes)
    vals = kernel_grid(k, xs, xi) @ (w * values_at(phi, xi))
    return vals if np.ndim(x) else float(vals[0])


def full_residual(solution, kernel, F, xs, rule: PVRule | None = None):
    """Residual S[phi] + K[phi] + F(x) - C of a solved instance at points xs.

    Near-zero values certify the solve end to end; solution only needs an
    evaluate method and a constant_C attribute.
    """
    rule = rule or PVRule()
    xs = np.asarray(xs, dtype=float)
    vals = apply_S(solution.evaluate, kernel.beta, xs, rule)
    vals = vals + apply_K(kernel, solution.evaluate, xs, rule.nodes)
    return vals + values_at(F, xs) - solution.constant_C
