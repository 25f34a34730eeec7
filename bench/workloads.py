"""Seeded op generators for the three workloads (standard library only).

Each workload is an endless sequence of rounds.  A round has a fixed
composition of op kinds, so per-op counts in the traced run do not depend
on how many whole rounds fit in the time budget; the seed only draws the
parameters inside each slot.
"""

from __future__ import annotations

import math
import random

LOADS = ("uniform", "linear", "quadratic")
SUITES = ("specfun", "regimes", "spectral", "cauchy", "complete", "kernels")
REGIME_SLOTS = ("zero", "inside-unit", "plus-one", "minus-one", "above-one",
                "below-minus-one")
LADDER = (5, 9, 13, 17, 21)


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _van_der_corput(r: int) -> float:
    """Base-2 radical inverse; any prefix of the sequence is evenly spread."""
    out, scale = 0.0, 0.5
    while r:
        out += scale * (r & 1)
        r >>= 1
        scale *= 0.5
    return out


def stiffness_rounds(seed: int):
    """One bare antiplane solve per decade of [1e-4, 1e4] in every round.

    Within a decade the log-position comes from a van der Corput sequence
    over the round index with a seeded shift, so every lambda is distinct,
    each is log-uniform in its decade, and any number of rounds covers every
    decade evenly (the first 2**k rounds exactly: a shifted lattice).  The solve cost depends on max(lambda, 1/lambda), so the
    decades are paired through that symmetry: each pair shares one position,
    placed so that one member is cheap when the other is dear (the cost of a
    round then varies little between seeds), and the decades meeting at
    lambda = 1e-2 and 1e2, where the median of a round falls, sit mirrored
    about those edges (the two middle latencies then lie equally far from
    the edge).
    """
    rng = random.Random(seed)
    shifts = [rng.random() for _ in range(3)]
    r = 0
    while True:
        a, c, e = ((_van_der_corput(r) + u) % 1.0 for u in shifts)
        exponents = [2.0 - a, 2.0 + a, -1.0 - a, -3.0 + a,
                     3.0 + c, -4.0 + c, e, -1.0 + e]
        rng.shuffle(exponents)
        yield [{"kind": "antiplane-bare", "lam": 10.0 ** x, "N": 17,
                "t1": 200, "t2": 210, "load": "uniform", "amplitude": 1.0}
               for x in exponents]
        r += 1


# refine-and-check slot pattern: antiplane / plane-strain alternate and two
# of twelve instances have beta = 0 (the Cauchy route)
_REFINE_PATTERN = ("antiplane", "plane-strain", "antiplane", "plane-strain",
                   "antiplane", "cauchy", "plane-strain", "antiplane",
                   "plane-strain", "antiplane", "plane-strain", "cauchy")


def _inverse_params(rng, regime):
    if regime == "zero":
        beta = 0.0
    elif regime == "inside-unit":
        beta = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.95)
    elif regime == "plus-one":
        beta = 1.0
    elif regime == "minus-one":
        beta = -1.0
    elif regime == "above-one":
        beta = rng.uniform(1.2, 4.0)
    else:
        beta = -rng.uniform(1.5, 3.0)
    return {"beta": beta, "branch": rng.choice(("vanish-at-zero",
                                                "vanish-at-one")),
            "a1": rng.uniform(-1.0, 1.0), "a2": rng.uniform(-1.0, 1.0)}


def refine_rounds(seed: int):
    """Converge-then-certify instances: truncation ladder, one diagnosed
    solve, then an inverse of a solvable load in one of the six regimes.

    lambda is log-uniform over its range through a shifted van der Corput
    sequence per problem, so the dearest instances (lambda near the ends of
    the antiplane range) recur at the same rate for every seed.
    """
    rng = random.Random(seed)
    shift = {"antiplane": rng.random(), "plane-strain": rng.random()}
    ranges = {"antiplane": (-1.0, 1.0), "plane-strain": (-2.0, 2.0)}
    count = {"antiplane": 0, "plane-strain": 0}
    while True:
        ops = []
        for slot, problem in enumerate(_REFINE_PATTERN):
            if problem == "cauchy":
                lam = 1.0
            else:
                lo, hi = ranges[problem]
                pos = (_van_der_corput(count[problem]) + shift[problem]) % 1.0
                lam = 10.0 ** (lo + (hi - lo) * pos)
                count[problem] += 1
            # the second half shifts by one so the two Cauchy slots meet
            # different regimes
            regime = REGIME_SLOTS[(slot + slot // 6) % len(REGIME_SLOTS)]
            ops.append({"kind": "refine", "problem": problem, "lam": lam,
                        "load": LOADS[slot % len(LOADS)],
                        "amplitude": _log_uniform(rng, 0.5, 2.0),
                        "t1": 200, "t2": 210, "ladder": list(LADDER),
                        "regime": regime,
                        "inverse": _inverse_params(rng, regime)})
        yield ops


def cli_rounds(seed: int):
    """Fresh `python -m fixsing.cli` runs over the README command set."""
    rng = random.Random(seed)
    suite0 = rng.randrange(len(SUITES))
    r = 0
    n = 0
    while True:
        ops = []

        def add(argv):
            nonlocal n
            if argv[0] != "verify":
                argv = argv + ["--load", LOADS[n % len(LOADS)],
                               "--amplitude", repr(_log_uniform(rng, 0.5, 2.0)),
                               "--format", ("csv", "json")[n % 2]]
            ops.append({"kind": "cli", "argv": argv})
            n += 1

        def lam(lo, hi):
            return repr(_log_uniform(rng, lo, hi))

        def beta():
            return repr(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.9))

        add(["antiplane", "--lambda", lam(0.1, 10.0)])
        add(["antiplane", "--lambda", "1"])
        add(["plane-strain", "--lambda", lam(1e-2, 1e2)])
        grid = sorted(_log_uniform(rng, 1e-2, 1e2) for _ in range(6))
        add(["gamma0", "--lambda-grid", ",".join(map(repr, grid))])
        add(["characteristic", "--beta", beta(), "--m0", "20"])
        add(["characteristic", "--beta", beta(), "--m0", "5,10,15,20"])
        add(["antiplane", "--lambda", lam(0.1, 10.0), "--N", "5,9,13,17,21"])
        add(["verify", "--suite", SUITES[(suite0 + r) % len(SUITES)]])
        yield ops
        r += 1


ROUNDS = {
    "cli-cold": cli_rounds,
    "stiffness-sweep": stiffness_rounds,
    "refine-and-check": refine_rounds,
}
