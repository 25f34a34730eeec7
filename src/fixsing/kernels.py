"""Problem kernels: the antiplane crack kernel and the plane-strain
dominant kernel with its exponent equation.

Both problems live on a crack 0 < x < 1 crossing a strip between two
half-planes; the strip/half-plane stiffness contrast enters the antiplane
kernel through beta = (lambda - 1)/(lambda + 1) and the plane-strain one
through the root gamma0 of a transcendental exponent equation, with the
effective parameter beta = -cos(pi gamma0).

The regular kernels are assembled from cancellation-safe building blocks:
the difference between each rational singular term and its cot
counterpart is evaluated through a Taylor series near the diagonal and
through pole-free regroupings near the corners.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .complete import KernelSpec, _corner_part, _corner_symbol

#: switch radius for the cot-vs-rational Taylor series; the direct
#: difference loses ~eps/u^2 digits, the truncated series ~u^7, and both
#: stay below 1e-12 relative with this split
_TAYLOR_RADIUS = 1e-2


class NoBracketError(RuntimeError):
    """The exponent function does not change sign on the scanned grid."""


class ContrastLimitError(RuntimeError):
    """The modulus ratio is so extreme that beta rounds to +-1."""


def cot_gap(u):
    """1/(pi u) - (1/2) cot(pi u / 2), regular on (-2, 2) with value 0 at 0.

    Near u = 0 both terms blow up like 1/u and cancel to O(u); inside the
    switch radius the difference is taken from its series
    pi u / 12 + pi^3 u^3 / 720 + pi^5 u^5 / 30240 + O(u^7) to keep full
    precision.  The direct form is evaluated everywhere (at a dummy
    argument inside the radius) and the series only on the entries that
    need it.
    """
    u_in = np.asarray(u, dtype=float)
    u = np.atleast_1d(u_in)
    small = np.abs(u) < _TAYLOR_RADIUS
    any_small = small.any()
    arg = np.pi * (np.where(small, 1.0, u) if any_small else u)
    out = 1.0 / arg
    arg /= 2.0
    out -= np.divide(0.5, np.tan(arg, out=arg), out=arg)
    if any_small:
        us = u[small]
        u2 = us * us
        out[small] = us * (np.pi / 12.0
                           + u2 * (np.pi**3 / 720.0 + u2 * np.pi**5 / 30240.0))
    return out if u_in.ndim else float(out[0])


def fixed_gap(v):
    """1/(pi v) + 1/(pi (v-2)) - (1/2) cot(pi v / 2), regular on [0, 2].

    The cot has poles at v = 0 and v = 2; each is cancelled by one of the
    rational terms (cot(pi v/2) is 2-periodic), so the difference is
    cot_gap at whichever pole is nearer plus the other rational term.
    """
    v = np.asarray(v, dtype=float)
    lower = v < 1.0
    shifted = v - 2.0
    out = cot_gap(np.where(lower, v, shifted))
    out += 1.0 / (np.pi * np.where(lower, shifted, v))
    return out if v.ndim else float(out)


@dataclass(frozen=True)
class AntiplaneParams:
    """Shear-modulus ratio lambda = G1/G2 of half-planes to strip."""

    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError("modulus ratio must be positive and finite")

    @property
    def beta(self) -> float:
        return (self.lam - 1.0) / (self.lam + 1.0)


#: terms antiplane_D may sum; reached as beta^2 -> 1
_MAX_TERMS = 10_000


def antiplane_D(x, beta: float, tol: float = 1e-12):
    """One-sided image series D(x) = sum_{j>=1} beta^(2j) / (x + 2j), x > -2.

    The reference verify checks antiplane_R against.  A geometric tail
    bound sets the count from min(x) before any pass, raising past _MAX_TERMS.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("series tolerance must be positive and finite")
    x = np.asarray(x, dtype=float)
    xmin, b2 = float(np.min(x)), beta * beta
    if not xmin > -2.0:
        raise ValueError("image-series argument outside the strip")
    bound = b2
    for count in range(1, _MAX_TERMS + 1):
        bound *= b2
        if bound / ((2.0 * count + 2.0 + xmin) * (1.0 - b2)) < tol:
            break
    else:
        raise RuntimeError("series failed to converge")
    total, term, power = np.zeros_like(x), np.empty_like(x), b2
    for k in range(count):
        np.add(x, 2.0 * k + 2.0, out=term)
        np.divide(power, term, out=term)
        total += term
        power *= b2
    return total if x.ndim else float(total)


#: Horner length of antiplane_R's series, whose ratios on the crack square
#: are at most 1/9 and 1/16: the tail is below 9^-16 ~ 5e-16 at any beta
_POWER_TERMS = 16
#: cap on the direct coefficient sums: the m >= 3 terms fall like (2j)^-8
#: at any beta, so the tail past it is below (401)^-7 ~ 1e-18
_DIRECT_TERMS = 200
#: zeta(2..6), and zeta(-n) = -B_(n+1)/(n+1) for n = 0..15 (0 at even n > 0)
_ZETA = {2: 1.6449340668482264365, 3: 1.2020569031595942854,
         4: 1.0823232337111381915, 5: 1.0369277551433699263,
         6: 1.0173430619844491397, 0: -1 / 2, -1: -1 / 12, -3: 1 / 120,
         -5: -1 / 252, -7: 1 / 240, -9: -1 / 132, -11: 691 / 32760,
         -13: -1 / 12, -15: 3617 / 8160}


def _polylog(s: int, z: float) -> float:
    """Li_s(z) = sum_{k>=1} z^k / k^s for s in {2, 4, 6}, 0 <= z < 1: 60
    terms below z = 1/2, else the series in mu = ln z (DLMF 25.12(ii)),
    sum_k c_k mu^k / k!, c_k = zeta(s-k) but H_(s-1) - ln(-mu) at k = s-1."""
    if z < 0.5:
        return math.fsum(z**k / k**s for k in range(1, 61))
    mu = math.log(z)
    c = sum(1.0 / k for k in range(1, s)) - math.log(-mu)
    return math.fsum(mu**k / math.factorial(k) * (
        c if k == s - 1 else _ZETA.get(s - k, 0.0)) for k in range(s + 16))


@lru_cache(maxsize=64)
def _reflection_rows(beta: float) -> np.ndarray:
    """Read-only rows c_m, c'_m (m < _POWER_TERMS) of antiplane_R, summed
    in one pass over the smaller of the geometric tail count and
    _DIRECT_TERMS, at a cost that does not depend on beta.  Past the cap
    the slow m <= 2 pairs (terms ~ (2j)^-s, s = 2m + 2) come from Li_s with
    b = |beta| (Lewin, Polylogarithms, 1981): c'_m = (Li_s(b^2)/b^2 - 1)/2^s
    and c_m = (Li_s(b) - 2^-s Li_s(b^2))/b - 1."""
    b = abs(beta)
    b2 = b * b
    terms = (math.ceil(math.log(1e-17 * (1.0 - b2)) / math.log(b2))
             if b2 else 0)
    j = np.arange(1.0, min(terms, _DIRECT_TERMS) + 1.0)
    step = np.stack((2.0 * j + 1.0, 2.0 * j + 2.0)) ** -2.0
    powers = np.cumprod(np.broadcast_to(
        step[:, None, :], (2, _POWER_TERMS, len(j))), axis=1)
    rows = (powers * b ** (2.0 * j)).sum(axis=-1)
    if terms > _DIRECT_TERMS:
        for m, s in enumerate((2, 4, 6)):
            li_b2 = _polylog(s, b2)
            rows[:, m] = ((_polylog(s, b) - li_b2 / 2**s) / b - 1.0,
                          (li_b2 / b2 - 1.0) / 2**s)
    rows.flags.writeable = False
    return rows


def antiplane_R(x, xi, beta: float):
    """Reflection part of the antiplane kernel (image sums across the strip).

    With s = x + xi, a = 1 - s and u = x - xi the one-sided form
    beta [D(s) - D(2 - s)] + beta^2 [D(2 - u) - D(2 + u) + 2u/(4 - u^2)]
    pairs term by term, and each paired term expands in a^2 or u^2:

        R = 2 beta a sum_m c_m a^(2m)
          + 2 beta^2 u [1/(4 - u^2) + sum_m c'_m u^(2m)],
        c_m = sum_{j>=1} beta^(2j) (2j+1)^(-2m-2),  c'_m the same over 2j+2.

    Horner sums both in place with _POWER_TERMS terms of the rows that
    _reflection_rows builds once per beta; neither the rows nor a sample
    cost more as beta^2 -> 1.  Defined on the crack square (|a|, |u| <= 1);
    +-0 at beta = 0.
    """
    a, u = 1.0 - (x + xi), x - xi
    a2, u2 = np.square(a), np.square(u)
    if not (np.max(a2) <= 1.0 and np.max(u2) <= 1.0):
        raise ValueError("argument off the crack square of the strip")
    c, c_prime = _reflection_rows(beta)
    out, second = np.full_like(a2, c[-1]), np.full_like(u2, c_prime[-1])
    for cm, cm_prime in zip(c[-2::-1], c_prime[-2::-1]):
        out *= a2
        out += cm
        second *= u2
        second += cm_prime
    second += 1.0 / (4.0 - u2)
    out *= 2.0 * beta * a
    out += 2.0 * beta * beta * u * second
    return out if np.ndim(out) else float(out)


def antiplane_kernel(params: AntiplaneParams) -> KernelSpec:
    """Regular kernel of the antiplane crack problem.

    K(x, xi) = [rational dominant part]/pi - [cot dominant part] + R/pi,
    grouped so every difference of a rational pole against its cot twin is
    evaluated stably: cot_gap on the moving singularity, fixed_gap on the
    endpoint pair.  The spec declares K analytic on the closed square:
    the nearest singularities of every term lie at xi - x = +-2.
    """
    beta = params.beta
    if abs(beta) == 1.0:
        raise ContrastLimitError(
            f"modulus ratio {params.lam:g} is too extreme: |beta| -> 1, and "
            f"(lambda - 1)/(lambda + 1) rounds to {beta:+g}")

    def regular_part(x, xi):
        return (cot_gap(xi - x) + beta * fixed_gap(xi + x)
                + antiplane_R(x, xi, beta) / np.pi)

    return KernelSpec(beta=beta, regular_part=regular_part, analytic=True)


@dataclass(frozen=True)
class PlaneStrainParams:
    """Elastic constants of the plane-strain problem and derived kernel data.

    Only the shear moduli G1, G2 of the half-planes and the strip and
    their Poisson ratios nu1, nu2 are set; construction checks them and
    derives

    mu0 = G1 (1 - nu2) / (G2 (1 - nu1)),
    nu0 = nu1/(1 - nu1) - mu0 nu2/(1 - nu2),
    delta0 = (3 + mu0 - nu0)(1 + 3 mu0 + nu0),
    b1 = [ (nu0 + mu0 - 1)^2 - 4 (1 - mu0^2) ] / delta0,
    b2 = 4 [ nu0 (nu0 - 2) - 3 (1 - mu0^2) ] / delta0,
    b3 = [ -4 nu0 (nu0 - 2) + 3 (nu0 + mu0 - 1)^2 ] / delta0.

    gamma0 and beta_eff follow from them on first use (see gamma0_root).
    """

    G1: float
    G2: float
    nu1: float
    nu2: float
    mu0: float = field(init=False)
    nu0: float = field(init=False)
    delta0: float = field(init=False)
    b1: float = field(init=False)
    b2: float = field(init=False)
    b3: float = field(init=False)

    def __post_init__(self):
        G1, G2, nu1, nu2 = self.G1, self.G2, self.nu1, self.nu2
        if not all(map(math.isfinite, (G1, G2, nu1, nu2))):
            raise ValueError("elastic constants must be finite")
        if G1 <= 0.0 or G2 <= 0.0:
            raise ValueError("shear moduli must be positive")
        if not (0.0 < nu1 <= 0.5 and 0.0 < nu2 <= 0.5):
            raise ValueError("Poisson ratios must lie in (0, 1/2]")
        den = G2 * (1.0 - nu1)  # 0 by underflow near G2 = 5e-324
        mu0 = G1 * (1.0 - nu2) / den if den else math.inf
        nu0 = nu1 / (1.0 - nu1) - mu0 * nu2 / (1.0 - nu2)
        delta0 = (3.0 + mu0 - nu0) * (1.0 + 3.0 * mu0 + nu0)
        s = nu0 + mu0 - 1.0
        # the instance is frozen; set the derived fields as cached_property
        # sets gamma0, through the instance dict
        vars(self).update(
            mu0=mu0, nu0=nu0, delta0=delta0,
            b1=(s * s - 4.0 * (1.0 - mu0 * mu0)) / delta0,
            b2=4.0 * (nu0 * (nu0 - 2.0) - 3.0 * (1.0 - mu0 * mu0)) / delta0,
            b3=(-4.0 * nu0 * (nu0 - 2.0) + 3.0 * s * s) / delta0)
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError(f"modulus ratio G1/G2 = {G1 / G2:g} is too "
                             "extreme: the derived constants are not finite")

    @cached_property
    def gamma0(self) -> float:
        """Root of the exponent equation on (0, 1), computed once."""
        return _gamma0(self)

    @property
    def beta_eff(self) -> float:
        """Effective parameter -cos(pi gamma0) of the associated operator."""
        return float(-math.cos(math.pi * self.gamma0))


#: PlaneStrainParams under its functional name: the same constructor call
plane_strain_coeffs = PlaneStrainParams


def lambda_fn(gamma, params: PlaneStrainParams):
    """Exponent function whose root in (0, 1) fixes the endpoint power.

    Lambda(g) = delta0 cos(pi g)
                - 2 [mu0^2 - 3 - 2 mu0 (nu0 - 1) + nu0 (nu0 - 2)] g^2
                - 4 (1 - mu0^2) + (nu0 + mu0 - 1)^2
              = (delta0/2) M(g),  M = complete._corner_symbol of (b1, b2, b3)
    """
    gamma = np.asarray(gamma, dtype=float)
    out = 0.5 * params.delta0 * _corner_symbol(
        0.0, (params.b1, params.b2, params.b3), gamma)[0]
    return out if gamma.ndim else float(out)


def gamma0_root(params: PlaneStrainParams) -> float:
    """Root gamma0 of the exponent equation on (0, 1): params.gamma0, found
    once per params without changing its constants.  A scan of M (the sign
    of Lambda, as delta0 > 0) at the 999 nodes 1e-3 .. 0.999 brackets the
    first sign change (several are flagged), and Newton steps on M run from
    the bracket's midpoint to rounding.  A root below 1e-3 (lambda < 1.4e-6
    at nu = 0.3) or an iterate leaving the bracket raises NoBracketError."""
    return params.gamma0


def _gamma0(params: PlaneStrainParams) -> float:
    form = (params.b1, params.b2, params.b3)
    grid = np.linspace(0.0, 1.0, 1001)[1:-1]
    signs = np.sign(_corner_symbol(0.0, form, grid)[0])
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if len(flips) == 0:
        raise NoBracketError(
            "exponent function has no sign change on the scanned range "
            "[1e-3, 0.999]; constants outside the supported regime")
    if len(flips) > 1:
        warnings.warn("multiple sign changes of the exponent function; "
                      "using the first", stacklevel=2)
    lo, hi = grid[flips[0]], grid[flips[0] + 1]
    g = 0.5 * (lo + hi)
    for _ in range(60):
        value, slope = _corner_symbol(0.0, form, g)
        step = value / slope
        g -= step
        if abs(step) < 1e-13:  # quadratic: the next step is below rounding
            break
    if not lo <= g <= hi:
        raise NoBracketError(
            f"Newton steps left the exponent bracket [{lo:g}, {hi:g}]")
    return float(g)


def plane_strain_kernel(params: PlaneStrainParams) -> KernelSpec:
    """Regular kernel of the dominant plane-strain equation.

    The dominant kernel is 1/(xi - x) plus two cubic-denominator fixed
    terms; splitting off the associated operator with beta = beta_eff
    leaves K = cot_gap(xi - x) + beta fixed_gap(xi + x) plus the
    quadratic-numerator remainders with 1/(corner) growth.  Those
    remainders are homogeneous of degree -1 at the corners: their Mellin
    symbol vanishes at gamma0 but not at the associated operator's second
    exponent 2 - gamma0, which the solution therefore lacks.  The spec
    carries their quadratic form as corner_form, so that solve frees that
    exponent with corner trial functions, and declares the rest analytic
    on the closed square: like the antiplane kernel's, its nearest
    singularities lie at xi - x = +-2 and xi + x in {-2, 4}.

    The full regular part K0 of the physical problem has no published
    closed form, so only the dominant equation is provided.
    """
    beta = params.beta_eff
    # b1 xi^2 + b2 xi x + b3 x^2 - beta (xi + x)^2 as one quadratic form
    form = (params.b1 - beta, params.b2 - 2.0 * beta, params.b3 - beta)

    def regular_part(x, xi):
        return (cot_gap(xi - x) + beta * fixed_gap(xi + x)
                + _corner_part(form, x, xi))

    return KernelSpec(beta=beta, regular_part=regular_part, corner_form=form,
                      analytic=True)
