"""Brute-force forward application of the singular operator and residuals.

This is the verification backbone: apply_S evaluates S[phi](x) directly by
principal-value quadrature, independent of every closed form the rest of
the package trades on, so spectral images, inverses and solver output can
all be checked end to end.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._quad import graded_rule, log_cot_half, safe_ratio


class Scheme(enum.Enum):
    SUBTRACT_SINGULARITY = "subtract"
    COSINE_MAP = "cosine-map"


@dataclass(frozen=True)
class PVRule:
    """Node budget and scheme of the principal-value rule."""

    nodes: int = 512
    scheme: Scheme = Scheme.SUBTRACT_SINGULARITY

    def __post_init__(self):
        if self.nodes < 16:
            raise ValueError("need at least 16 nodes")


def _rule_nodes(rule: PVRule):
    if rule.scheme is Scheme.SUBTRACT_SINGULARITY:
        return graded_rule(rule.nodes, levels=12)
    # cosine map: midpoint rule in u after xi = sin^2(pi u / 2), which is
    # the Gauss-Chebyshev rule of the reference quadratures; even count
    # keeps xi = 1/2 off the grid
    t = rule.nodes + (rule.nodes % 2)
    u = (2.0 * np.arange(1, t + 1) - 1.0) / (2.0 * t)
    xi = np.sin(np.pi * u / 2.0) ** 2
    w = (np.pi / 2.0) * np.sin(np.pi * u) / t
    return xi, w


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
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0.0) or np.any(xs >= 1.0):
        raise ValueError("the operator is evaluated at interior points")
    xi, w = _rule_nodes(rule)
    phix = np.asarray(phi(xs), dtype=float)
    phixi = np.asarray(phi(xi), dtype=float)

    dmov = np.tan(np.pi * (xi[None, :] - xs[:, None]) / 2.0)
    # the pole entries are zeroed; diff vanishes there
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
    kmat = np.asarray(k(xs[:, None], xi[None, :]), dtype=float)
    vals = kmat @ (w * np.asarray(phi(xi), dtype=float))
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
    return vals + np.asarray(F(xs), dtype=float) - solution.constant_C
