"""Regimes of the singular parameter and the characteristic-equation inverses.

The characteristic operator is

    S[phi](x) = int_0^1 [ (1/2) cot(pi (xi - x)/2)
                        + (beta/2) cot(pi (xi + x)/2) ] phi(xi) dxi

on (0, 1), acting on Hoelder functions bounded at the endpoints.  Solvability
and the closed-form inverse depend on where beta sits relative to the unit
interval; this module classifies beta, exposes the solvability weight V and
the functional int V f, evaluates the inverse S^{-1}[f] by principal-value
quadrature of the closed forms, and reports the endpoint behavior of the
solution.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._quad import (LOG_TAN_SMAX, check_nodes, gauss_jacobi, interior_points,
                    log_tan_rule, safe_ratio, values_at)

#: relative size of int V f below which a load counts as solvable
SOLVABILITY_RTOL = 1e-6


class RegimeKind(enum.Enum):
    ZERO = "zero"
    INSIDE_UNIT = "inside-unit"
    PLUS_ONE = "plus-one"
    MINUS_ONE = "minus-one"
    ABOVE_ONE = "above-one"
    BELOW_MINUS_ONE = "below-minus-one"


class Branch(enum.Enum):
    """Solution classes for beta < -1: which endpoint the solution vanishes at."""

    VANISH_AT_ZERO = "vanish-at-zero"
    VANISH_AT_ONE = "vanish-at-one"


@dataclass(frozen=True)
class Regime:
    """Classified singular parameter with its derived exponents.

    delta and rho1 are set for |beta| < 1 (rho1 also at beta = 0, where it
    equals 3/4); epsilon is the logarithmic frequency parameter for
    |beta| >= 1 (0 at beta = +-1); branch selects the solution class for
    beta < -1.
    """

    beta: float
    kind: RegimeKind
    delta: float | None = None
    rho1: float | None = None
    epsilon: float | None = None
    branch: Branch = Branch.VANISH_AT_ZERO

    @property
    def weight_exponent(self) -> float:
        """Exponent 2 rho1 - 1 of the solvability weight for |beta| < 1."""
        if self.rho1 is None:
            raise ValueError("weight exponent is defined only for |beta| < 1")
        return 2.0 * self.rho1 - 1.0


@dataclass(frozen=True)
class EndpointAsymptotics:
    exponent_at_0: float
    exponent_at_1: float
    oscillatory_at_0: bool
    oscillatory_at_1: bool
    log_frequency: float


def classify(beta: float, branch: Branch = Branch.VANISH_AT_ZERO) -> Regime:
    """Classify beta and populate the derived exponents.

    For beta < -1 the branch defaults to VANISH_AT_ZERO and may be
    overridden by the caller.
    """
    beta = float(beta)
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    if beta == 0.0:
        return Regime(beta, RegimeKind.ZERO, rho1=0.75, branch=branch)
    if abs(beta) < 1.0:
        delta = math.atan(math.sqrt(1.0 - beta * beta) / beta) / math.pi
        rho1 = 0.5 + delta / 2.0 if beta > 0.0 else 1.0 + delta / 2.0
        return Regime(beta, RegimeKind.INSIDE_UNIT, delta=delta, rho1=rho1,
                      branch=branch)
    eps = math.log(abs(beta) + math.sqrt(beta * beta - 1.0)) / (2.0 * math.pi)
    kind = RegimeKind.ABOVE_ONE if beta > 1.0 else RegimeKind.BELOW_MINUS_ONE
    if abs(beta) == 1.0:
        kind = RegimeKind.PLUS_ONE if beta > 0.0 else RegimeKind.MINUS_ONE
    return Regime(beta, kind, epsilon=eps, branch=branch)


def solvability_weight(regime: Regime, x):
    """Weight V(x) of the solvability condition int_0^1 V(x) f(x) dx = 0.

    Rows by regime: (sin pi x)^(-1/2) cos(pi x/2 - pi/4) at beta = 0;
    tan^e(pi x/2) + cot^e(pi x/2) with e = 2 rho1 - 1 for 0 < |beta| < 1;
    cos(2 eps log tan(pi x/2)) for beta >= 1, which is V = 1 (the plain
    mean-zero condition) at beta = 1, where eps = 0; the branch-dependent
    tan^{+-1}(pi x/2) cos(2 eps log tan(pi x/2)) for beta < -1; V = 0 at
    beta = -1 (no condition; solution defined up to a constant).
    """
    xs = interior_points(x)
    half = np.pi * xs / 2.0
    kind = regime.kind
    if kind is RegimeKind.ZERO:
        out = np.cos(half - np.pi / 4.0) / np.sqrt(np.sin(np.pi * xs))
    elif kind is RegimeKind.INSIDE_UNIT:
        e = regime.weight_exponent
        t = np.tan(half)
        out = t**e + t**(-e)
    elif kind in (RegimeKind.ABOVE_ONE, RegimeKind.PLUS_ONE):
        out = np.cos(2.0 * regime.epsilon * np.log(np.tan(half)))
    elif kind is RegimeKind.BELOW_MINUS_ONE:
        t = np.tan(half)
        sgn = 1.0 if regime.branch is Branch.VANISH_AT_ONE else -1.0
        out = t**sgn * np.cos(2.0 * regime.epsilon * np.log(t))
    else:  # MINUS_ONE: always solvable
        out = np.zeros_like(xs)
    return out if np.ndim(x) else float(out[0])


def _tan_weight_rule(e: float, nodes: int):
    """Nodes [y, 1 - y] and weights w: int_0^1 tan^e(pi y/2) g(y) dy is
    sum(w g(y)) / 2, and the tan^-e integral is the same sum at 1 - y.

    tan^e(pi y/2) = y^e (1 - y)^-e h(y) with h = (sinc(y/2) / sinc((1-y)/2))^e
    analytic on [0, 1] (nearest singularities at y = -1 and y = 2), so w is
    h times a Gauss-Jacobi rule of max(nodes // 16, 8) points in t = 2y - 1
    with weight (1 - t)^-e (1 + t)^e, which carries the end powers exactly:
    the sum converges geometrically for g analytic on [0, 1].
    """
    t, w = gauss_jacobi(max(nodes // 16, 8), -e, e)
    y, y_bar = (1.0 + t) / 2.0, (1.0 - t) / 2.0
    h = (np.sinc(y / 2.0) / np.sinc(y_bar / 2.0)) ** e
    return np.concatenate([y, y_bar]), w * h


def solvability_functional(regime: Regime, f, nodes: int = 512) -> float:
    """Quadrature value of int_0^1 V(x) f(x) dx; zero signals solvability.

    For |beta| < 1, V = s (tan^e + cot^e)(pi x/2) with e = 2 rho1 - 1 and
    s = 1 (s = 1/2 at beta = 0, where e = 1/2).  Reflecting the cot^e half
    about x = 1/2 leaves s int tan^e(pi y/2) [f(y) + f(1 - y)] dy, one sum on
    `_tan_weight_rule` (f is evaluated once, 64 times at the default budget).
    |beta| >= 1 use the log-tangent rule in x (beta = 1 with V = 1).
    """
    check_nodes(nodes)
    kind = regime.kind
    if kind is RegimeKind.MINUS_ONE:
        return 0.0
    if kind in (RegimeKind.ZERO, RegimeKind.INSIDE_UNIT):
        ys, w = _tan_weight_rule(regime.weight_exponent, nodes)
        vals = values_at(f, ys)
        scale = 0.25 if kind is RegimeKind.ZERO else 0.5
        return scale * float(np.dot(w, vals[:len(w)] + vals[len(w):]))
    # a plain cosine (times e^{+-s} for beta < -1; 1 at beta = 1) on the
    # log-tangent axis, whose measure is sech(s) ds / pi
    s, xi, w = log_tan_rule(nodes)
    v = np.cos(2.0 * regime.epsilon * s)
    if kind is RegimeKind.BELOW_MINUS_ONE:
        sgn = 1.0 if regime.branch is Branch.VANISH_AT_ONE else -1.0
        v = v * np.exp(sgn * s)
    return float(np.dot(w / (np.pi * np.cosh(s)), v * values_at(f, xi)))


def solvability_residual(regime: Regime, f, nodes: int) -> float:
    """Relative size |int V f| / int V |f| used to gate the inverse."""
    num = abs(solvability_functional(regime, f, nodes))
    den = solvability_functional(
        regime, lambda t: np.abs(np.asarray(f(t))), nodes
    )
    if regime.kind is RegimeKind.BELOW_MINUS_ONE or den == 0.0:
        # the oscillatory weight is sign-indefinite; fall back to an
        # absolute scale
        den = max(abs(den), 1.0)
    return num / abs(den)


def _inverse_oscillatory(regime: Regime, f, xs, nodes: int):
    """Inverse for |beta| >= 1 as a plain sum on the log-tangent axis.

    With s = log tan(pi xi/2) and ds = s - s_x, the sin(pi x) prefactor,
    the kernel's cosh(s_x) cosh(s) and the measure's sech(s)/pi cancel:
    phi(x) = -(1/pi) int [cos(2 eps ds) [e^{+-ds}] f(xi) - f(x)] / sinh(ds),
    a slow cosine in s.  Subtracting f(x) removes the moving pole (its
    compensator integral is zero), so the truncated panel rule converges
    geometrically.  beta = +-1 are the eps = 0 cases: the factor is 1 at
    beta = 1, and at beta = -1 the identity
    cosh(s_x) / (cosh(s) sinh(ds)) = coth(ds) - tanh(s) gives the mean
    cosh(ds) of the two factors e^{+-ds} plus the x-independent term
    -tanh(s) f(xi), which fixes the free additive constant.  Except at
    beta < -1, which needs a decaying load, the integrand decays like
    e^-|ds| for any bounded load, so the window reaches 30 past the
    outermost s_x.
    """
    sx = np.log(np.tan(np.pi * xs / 2.0))
    smax = LOG_TAN_SMAX
    if regime.kind is not RegimeKind.BELOW_MINUS_ONE:
        smax = max(smax, 2.0 * math.ceil((np.max(np.abs(sx)) + 30.0) / 2.0))
    s, xi, w = log_tan_rule(nodes, smax)
    ds = s[None, :] - sx[:, None]
    # cos(2 eps ds) as two outer products (angle difference), the rest in
    # place: a widened window must not raise the peak memory
    a, ax = 2.0 * regime.epsilon * s, 2.0 * regime.epsilon * sx
    num = (np.stack([np.cos(ax), np.sin(ax)], axis=1)
           @ np.stack([np.cos(a), np.sin(a)]))
    # held at |ds| = 350, where each term is exact to rounding (e^{+-ds} /
    # sinh(ds) is +-2 or 0 and 1/sinh(ds) < 2e-152), neither sinh(ds) nor
    # e^{+-ds} f(xi) can overflow at any x for loads below 1e150
    np.clip(ds, -350.0, 350.0, out=ds)
    if regime.kind is RegimeKind.BELOW_MINUS_ONE:
        sgn = 1.0 if regime.branch is Branch.VANISH_AT_ONE else -1.0
        num *= np.exp(sgn * ds)
    elif regime.kind is RegimeKind.MINUS_ONE:
        num *= np.cosh(ds)
    fxi = values_at(f, xi)
    num *= fxi[None, :]
    num -= values_at(f, xs)[:, None]
    den = np.sinh(ds, out=ds)
    vals = -(safe_ratio(num, den) @ w) / np.pi
    if regime.kind is RegimeKind.MINUS_ONE:
        vals += np.dot(w, np.tanh(s) * fxi) / np.pi
    return vals


def _inverse_inside_unit(e: float, f, xs, nodes: int):
    """Inverse for |beta| < 1 on the solvability functional's rule.

    With T = tan(pi x/2) and D(y) = (f(y) - f(x)) / (cos pi y - cos pi x),
    phi(x) = (sin pi x / 2) [T^-e int tan^e(pi y/2) D(y) dy
                             + T^e int tan^-e(pi y/2) D(y) dy]:
    subtracting f(x) is exact, as the bare weights' compensators cancel.
    Both integrals are sums on `_tan_weight_rule`, so f is sampled where
    the functional samples it.  D has poles at y = -x and y = 2 - x, so
    convergence slows within about 1e-3 of an end.  (At beta = 0, e = 1/2.)
    """
    ys, w = _tan_weight_rule(e, nodes)
    num = values_at(f, ys)[None, :] - values_at(f, xs)[:, None]
    den = np.cos(np.pi * ys)[None, :] - np.cos(np.pi * xs)[:, None]
    near, far = (safe_ratio(num, den).reshape(len(xs), 2, len(w)) @ w).T
    t_pow = np.tan(np.pi * xs / 2.0) ** e
    return np.sin(np.pi * xs) / 4.0 * (near / t_pow + far * t_pow)


def inverse_characteristic(regime: Regime, f, x, nodes: int = 512,
                           check_solvability: bool = True):
    """Evaluate S^{-1}[f] at interior points by principal-value quadrature.

    f must be a vectorized callable on [0, 1] satisfying the regime's
    solvability condition; a residual above SOLVABILITY_RTOL on the same
    nodes triggers a warning, not an error.  For |beta| < 1 the check and
    the inverse share one rule, and the inverse converges with `nodes`
    (slowly within about 1e-3 of an end).  For beta < -1 the formula
    converges only for loads decaying at the oscillatory endpoint.  At
    beta = -1 the solution's free additive constant is the one of the
    half-cot closed form -(1/2) int [cot(pi(xi-x)/2) + cot(pi(xi+x)/2)] f.
    """
    check_nodes(nodes)
    xs = interior_points(x)
    if check_solvability and regime.kind is not RegimeKind.MINUS_ONE:
        res = solvability_residual(regime, f, nodes)
        if res > SOLVABILITY_RTOL:
            warnings.warn(
                f"load fails the solvability condition (residual {res:.2e}); "
                "the returned function will not solve the equation",
                stacklevel=2,
            )

    if regime.kind in (RegimeKind.ZERO, RegimeKind.INSIDE_UNIT):
        vals = _inverse_inside_unit(regime.weight_exponent, f, xs, nodes)
    else:
        vals = _inverse_oscillatory(regime, f, xs, nodes)
    return vals if np.ndim(x) else float(vals[0])


def endpoint_asymptotics(regime: Regime) -> EndpointAsymptotics:
    """Endpoint behavior of the bounded-class solution.

    |beta| < 1: algebraic decay x^(2 - 2 rho1) at both ends (1/2 at beta = 0).
    beta > 1: linear decay modulated by cos/sin of 2 eps log distance.
    beta < -1: one end bounded and oscillatory (exponent 0), the other
    vanishing like the squared distance, by branch.  beta = 1 continues the
    |beta| < 1 family (exponent 1); beta = -1 gives a merely bounded end
    state (the solution carries a free additive constant).
    """
    kind = regime.kind
    if kind is RegimeKind.ZERO:
        return EndpointAsymptotics(0.5, 0.5, False, False, 0.0)
    if kind is RegimeKind.INSIDE_UNIT:
        e = 2.0 - 2.0 * regime.rho1
        return EndpointAsymptotics(e, e, False, False, 0.0)
    if kind is RegimeKind.PLUS_ONE:
        return EndpointAsymptotics(1.0, 1.0, False, False, 0.0)
    if kind is RegimeKind.MINUS_ONE:
        return EndpointAsymptotics(0.0, 0.0, False, False, 0.0)
    freq = 2.0 * regime.epsilon
    if kind is RegimeKind.ABOVE_ONE:
        return EndpointAsymptotics(1.0, 1.0, True, True, freq)
    if regime.branch is Branch.VANISH_AT_ZERO:
        return EndpointAsymptotics(2.0, 0.0, True, True, freq)
    return EndpointAsymptotics(0.0, 2.0, True, True, freq)
