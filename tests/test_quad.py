"""Gauss-Jacobi rule: exact moment sums, weight invariants, reflection, and
agreement with scipy's roots_jacobi."""

import math
from functools import lru_cache

import numpy as np
import pytest

from fixsing._quad import gauss_jacobi, log_tan_rule

# alpha + beta = -1 throughout the library's closed-form inverses; the
# endpoint pair puts almost all of the weight next to z = -1.  The last
# two are the leading-branch and cross pairs of the parity product at
# rho1 = 3/4.
PAIRS = [(-0.05, -0.95), (-0.95, -0.05), (-0.3, -0.7), (-0.75, -0.25),
         (-0.25, 0.75), (0.25, 0.25)]


@lru_cache(maxsize=None)
def exact_sum(alpha, beta, kind):
    """int (1-z)^alpha (1+z)^beta g(z) dz from Beta-function moments.

    Both integrands are expanded in powers of 1 + z, whose moments
    2^(alpha+beta+k+1) B(alpha+1, beta+k+1) are positive, so the series
    sum without cancellation: exp(z) = e^-1 sum (1+z)^k / k! and
    1/(1.5 - z) = sum (1+z)^k / 2.5^(k+1).
    """
    from mpmath import beta as beta_fn, e, factorial, mp, mpf

    mp.dps = 40
    a, b = mpf(alpha), mpf(beta)
    total = mpf(0)
    for k in range(400 if kind == "pole" else 80):
        moment = mpf(2) ** (a + b + k + 1) * beta_fn(a + 1, b + k + 1)
        total += (moment / factorial(k) if kind == "exp"
                  else moment / mpf(2.5) ** (k + 1))
    return float(total / e) if kind == "exp" else float(total)


FUNCS = {"exp": np.exp, "pole": lambda z: 1.0 / (1.5 - z)}

# the 8-point rule integrates the pole function only to ~1e-7 (its own
# truncation error, rho^-16 with rho = 1.5 + sqrt(1.25)), so that pairing
# is left out
CASES = [(n, kind) for n in (8, 64, 256) for kind in FUNCS
         if not (n == 8 and kind == "pole")]


@pytest.mark.parametrize("alpha,beta", PAIRS)
@pytest.mark.parametrize("n,kind", CASES)
def test_matches_exact_moment_sums(n, kind, alpha, beta):
    z, w = gauss_jacobi(n, alpha, beta)
    want = exact_sum(alpha, beta, kind)
    assert abs(np.dot(w, FUNCS[kind](z)) - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("alpha,beta", PAIRS)
@pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
def test_weights_positive_and_sum_to_zeroth_moment(n, alpha, beta):
    z, w = gauss_jacobi(n, alpha, beta)
    assert z.shape == w.shape == (n,)
    assert np.all(w > 0.0)
    assert np.all(np.diff(z) > 0.0) and -1.0 < z[0] and z[-1] < 1.0
    mu0 = (2.0 ** (alpha + beta + 1.0) * math.gamma(alpha + 1.0)
           * math.gamma(beta + 1.0) / math.gamma(alpha + beta + 2.0))
    assert w.sum() == pytest.approx(mu0, rel=1e-14)


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_mirrored_pair_is_the_exact_reflection(alpha, beta):
    z, w = gauss_jacobi(64, alpha, beta)
    zm, wm = gauss_jacobi(64, beta, alpha)
    assert np.array_equal(zm, -z[::-1])
    assert np.array_equal(wm, w[::-1])


def test_rule_is_read_only():
    z, w = gauss_jacobi(16, -0.3, -0.7)
    with pytest.raises(ValueError):
        z[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_log_tan_rule_is_read_only_with_plain_gauss_weights():
    s, xi, w = log_tan_rule(512)
    for arr in (s, xi, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # panel weights in s sum to the window width 2 * 34
    assert abs(w.sum() - 68.0) < 1e-12
    # a window far past exp's range keeps every node inside (0, 1)
    with np.errstate(over="raise", invalid="raise"):
        _, far, _ = log_tan_rule(512, 800.0)
    assert far.min() > 0.0 and far.max() < 1.0


@pytest.mark.parametrize("n,alpha,beta", [(0, -0.5, -0.5), (4, -1.0, 0.0),
                                          (4, 0.0, -1.5)])
def test_rejects_invalid_arguments(n, alpha, beta):
    with pytest.raises(ValueError):
        gauss_jacobi(n, alpha, beta)


@pytest.mark.parametrize("alpha,beta", PAIRS)
@pytest.mark.parametrize("n", [8, 64, 256])
def test_agrees_with_scipy(n, alpha, beta):
    # scipy's own weighted sums are off by up to ~1.5e-10 relative at
    # n = 256 for these pairs, against <= 2e-12 here, so sums are compared
    # at 1e-9 and only the nodes at rounding level
    special = pytest.importorskip("scipy.special")
    with np.errstate(invalid="ignore", divide="ignore"):
        zs, ws = special.roots_jacobi(n, alpha, beta)
    z, w = gauss_jacobi(n, alpha, beta)
    assert np.max(np.abs(z - zs)) <= 1e-14
    for g in FUNCS.values():
        assert np.dot(w, g(z)) == pytest.approx(np.dot(ws, g(zs)), rel=1e-9)


def test_kernel_grid_matches_unblocked_evaluation():
    from fixsing import _quad
    from fixsing.kernels import AntiplaneParams, antiplane_kernel

    k = antiplane_kernel(AntiplaneParams(lam=3.0)).regular_part
    x = (np.arange(301) + 0.5) / 301.0
    xi = (np.arange(700) + 0.25) / 700.0
    rows = _quad._GRID_BLOCK // len(xi)
    assert len(x) % rows != 0
    calls = []

    def counted(a, b):
        calls.append(len(a))
        return k(a, b)

    got = _quad.kernel_grid(counted, x, xi)
    assert got.shape == (301, 700)
    assert calls[:-1] == [rows] * (len(calls) - 1) and sum(calls) == 301
    np.testing.assert_array_equal(got, k(*np.ix_(x, xi)))
