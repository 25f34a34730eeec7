"""Process that does the library work of one benchmark pass.

Run as ``python worker.py`` with ``src`` on PYTHONPATH.  It imports
fixsing, runs the fixed warm-up solve, prints ``ready`` and then reads one
JSON job from stdin:

* ``{"mode": "ops", ...}`` runs rounds of in-process ops until the time
  budget is spent (or exactly the ops given), then gates every result;
* ``{"mode": "cli-gate", ...}`` checks captured CLI outputs against the
  same cases computed in-process.

The result is one JSON object on stdout.  Every check runs after the op's
timer has stopped.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time
import warnings

import fixsing
import numpy as np
from fixsing import cauchy, complete, kernels, oracle, regimes, spectral
from fixsing.complete import SolveConfig

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer as tracing  # noqa: E402

#: interior points of the independent forward-operator residual
XS = np.array([0.2, 0.5, 0.8])
#: output grid of the inverses
GRID41 = np.arange(1, 42) / 42.0
#: per-workload gate tolerances on |S[phi] + K[phi] + F - C| at XS per unit
#: load amplitude; the residuals are truncation-limited, worst for
#: plane-strain at lambda = 1e-2 (5.7e-3 at N = 17, 1.1e-3 at N = 21)
SOLVE_TOL = {"stiffness-sweep": 2e-3, "refine-and-check": 5e-3,
             "cli-cold": 1e-2}
#: the library-reported equation residual (five points in [0.1, 0.9]) per
#: unit amplitude; worst 1.9e-2 at N = 17 and 2.9e-3 at N = 21
REPORT_EQ_TOL = {"refine-and-check": 1e-2, "cli-cold": 3e-2}
REPORT_LINEAR_TOL = 1e-10
INVERSE_TOL = 1e-6
CHARACTERISTIC_TOL = 1e-2
#: CLI values are printed with 12 significant digits
AGREE_RTOL = 1e-10


class GateError(Exception):
    """An output failed the correctness gate."""


def load_fn(name, amp):
    if name == "uniform":
        return lambda x: amp * x
    if name == "linear":
        return lambda x: amp * x**2 / 2.0
    return lambda x: amp * x**3 / 3.0


def zero_kernel(x, xi):
    return np.zeros_like(x * xi)


def warm_up():
    kern = kernels.antiplane_kernel(kernels.AntiplaneParams(lam=0.5))
    complete.solve(kern, lambda x: x, SolveConfig(N=17, t1=200, t2=210),
                   diagnostics=False)


# ---------------------------------------------------------------- ops


def _problem_kernel(problem, lam):
    if problem == "antiplane":
        return kernels.antiplane_kernel(kernels.AntiplaneParams(lam=lam))
    params = kernels.plane_strain_coeffs(lam, 1.0, 0.3, 0.3)
    kernels.gamma0_root(params)
    return kernels.plane_strain_kernel(params)


def _solvable_load(regime, inv):
    """g - c h with c chosen so that int V (g - c h) = 0."""
    def g(x):
        return np.sin(np.pi * x) ** 2 * (1.0 + inv["a1"] * x
                                         + inv["a2"] * np.cos(np.pi * x))
    if regime.kind is regimes.RegimeKind.BELOW_MINUS_ONE:
        def h(x):
            return np.sin(np.pi * x) ** 2 * (x - 0.5)
    else:
        def h(x):
            return np.sin(np.pi * x) ** 2
    if regime.kind is regimes.RegimeKind.MINUS_ONE:
        c = 0.0
    else:
        c = (regimes.solvability_functional(regime, g)
             / regimes.solvability_functional(regime, h))
    return lambda x: g(x) - c * h(x)


def run_op(op):
    """Execute one op; returns what the gate needs."""
    if op["kind"] == "antiplane-bare":
        kern = kernels.antiplane_kernel(kernels.AntiplaneParams(lam=op["lam"]))
        F = load_fn(op["load"], op["amplitude"])
        sol = complete.solve(kern, F, SolveConfig(N=op["N"], t1=op["t1"],
                                                  t2=op["t2"]),
                             diagnostics=False)
        return {"kern": kern, "F": F, "sol": sol}

    F = load_fn(op["load"], op["amplitude"])
    t1, t2 = op["t1"], op["t2"]
    out = {"F": F}
    if op["problem"] == "cauchy":
        out["ladder"] = [cauchy.cauchy_solve(zero_kernel, F, N=n, t1=t1, t2=t2)
                         for n in op["ladder"]]
        out["sol"] = out["ladder"][-1]
    else:
        kern = _problem_kernel(op["problem"], op["lam"])
        out["kern"] = kern
        out["ladder"] = [complete.solve(kern, F, SolveConfig(N=n, t1=t1, t2=t2),
                                        diagnostics=False)
                         for n in op["ladder"]]
        out["sol"] = complete.solve(kern, F, SolveConfig(N=op["ladder"][-1],
                                                         t1=t1, t2=t2))
    inv = op["inverse"]
    regime = regimes.classify(inv["beta"], regimes.Branch(inv["branch"]))
    f = _solvable_load(regime, inv)
    # solvability warnings are recorded, not gated: the check inside
    # inverse_characteristic uses 256 nodes, which at the time of writing
    # flags loads solvable to 1e-13 for beta < -1; the roundtrip decides
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out["inverse"] = regimes.inverse_characteristic(regime, f, GRID41)
    out.update(regime=regime, f=f, warnings=[str(w.message) for w in caught])
    return out


def _poison(result):
    """Deliberately wrong answer, used by the smoke test."""
    result["sol"] = dataclasses.replace(result["sol"],
                                        constant_C=result["sol"].constant_C
                                        + 0.1)
    return result


# ---------------------------------------------------------------- gate


def _finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(np.asarray(a, dtype=float))):
            raise GateError("non-finite value")


def _check(value, tol, what):
    if not value <= tol:
        raise GateError(f"{what} {value:.3e} exceeds {tol:.1e}")


def _spectral_residual(sol, kern, F):
    return float(np.max(np.abs(oracle.full_residual(sol, kern, F, XS))))


def _cauchy_residual(sol, F):
    """Residual of (1/pi) pv-int phi/(xi - x) = C - F for a zero kernel,
    through the quadrature form of the weighted transform."""
    shat = np.zeros_like(XS)
    for j, bj in enumerate(sol.b):
        shat += bj / np.pi * cauchy.u_weighted_cauchy_transform(j, XS, 512)
    return float(np.max(np.abs(shat - (sol.constant_C - F(XS)))))


def _check_report(report, eq_tol=None):
    """Linear and solvability residuals; the equation residual of a
    diagnosed solve.  (The regularization-constant gap is not gated: at the
    time of writing it reaches ~1e-3 for linear and quadratic loads while the
    forward-operator residual stays at truncation level.)"""
    _check(report["linear_residual"], REPORT_LINEAR_TOL, "linear residual")
    _check(report["solvability_identity"], REPORT_LINEAR_TOL,
           "solvability identity")
    if eq_tol is not None:
        _check(report["equation_residual_max"], eq_tol,
               "reported equation residual")


def _check_solution(sol, kern, F, tol, eq_tol=None):
    _finite(sol.b, sol.constant_C)
    _check_report(sol.residual_report, eq_tol)
    if kern is None:
        res = _cauchy_residual(sol, F)
    else:
        res = _spectral_residual(sol, kern, F)
    _check(res, tol, "forward-operator residual")
    return res


def gate_op(workload, op, result):
    """Raises GateError unless the op's outputs are certified."""
    tol = SOLVE_TOL[workload] * op.get("amplitude", 1.0)
    if op["kind"] == "antiplane-bare":
        return _check_solution(result["sol"], result["kern"], result["F"], tol)
    kern = result.get("kern")
    for s in result["ladder"]:
        _finite(s.b, s.constant_C)
        _check_report(s.residual_report)
    eq_tol = (REPORT_EQ_TOL[workload] * op["amplitude"] if kern is not None
              else None)
    res = _check_solution(result["sol"], kern, result["F"], tol, eq_tol)
    regime, f, vals = result["regime"], result["f"], result["inverse"]
    _finite(vals)

    def phi(t):
        return regimes.inverse_characteristic(regime, f, t,
                                              check_solvability=False)
    if np.max(np.abs(phi(GRID41) - vals)) > 1e-12 * max(1.0, np.max(np.abs(vals))):
        raise GateError("inverse values are not reproducible")
    xs = np.linspace(0.2, 0.8, 5)
    gap = oracle.apply_S(phi, regime.beta, xs, oracle.PVRule(768)) - f(xs)
    # beta < -1 reproduces the load only up to an additive constant
    spread = (float(np.ptp(gap))
              if regime.kind is regimes.RegimeKind.BELOW_MINUS_ONE
              else float(np.max(np.abs(gap))))
    _check(spread, INVERSE_TOL, "inverse roundtrip residual")
    return res


# ------------------------------------------------------- CLI outputs


def parse_cli_output(text, fmt):
    """(header values, columns, rows) of a CSV or JSON table."""
    if fmt == "json":
        payload = json.loads(text)
        header = dict(payload["config"])
        header.update(payload["diagnostics"])
        return header, payload["columns"], payload["rows"]
    header, lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            header[key] = val
        elif line:
            lines.append(line)
    columns = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, columns, rows


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _agree(got, want, what):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise GateError(f"{what}: shape {got.shape} != {want.shape}")
    _finite(got)
    err = np.abs(got - want) - AGREE_RTOL * np.maximum(np.abs(want), 1.0)
    if np.any(err > 0.0):
        raise GateError(f"{what}: CLI and library disagree")


def _agree_grid(header, rows, sol, what):
    # evaluate on the CLI's own grid, not on the printed abscissae: at the
    # time of writing one ulp in x can move phi by ~1e-9
    xs = np.linspace(0.0, 1.0, int(header["grid"]))
    _agree(rows, np.column_stack([xs, sol.evaluate(xs)]), what)


def gate_cli(op, stdout, poison=False):
    """Check a CLI run's output against the library, in-process."""
    argv = op["argv"]
    cmd = argv[0]
    if cmd == "verify":
        # imported here so that a library worker's set-up and memory do
        # not include the command-line modules
        from fixsing import verify

        report = json.loads(stdout)
        got = [[c["residual"], c["tolerance"]] for c in report["checks"]]
        if poison:
            got[0][0] += 1.0
        want = verify.run(suites=[_flag(argv, "--suite")], nodes=512)
        if not report["passed"] or not all(c["passed"] for c in report["checks"]):
            raise GateError("verify reported a failed check")
        if [c["name"] for c in report["checks"]] != [r.name for r in want]:
            raise GateError("verify checks differ from the library run")
        _agree(got, [[r.residual, r.tolerance] for r in want], "verify")
        return 0.0

    fmt = _flag(argv, "--format", "csv")
    header, columns, rows = parse_cli_output(stdout, fmt)
    rows = np.asarray(rows, dtype=float)
    if poison:
        rows[len(rows) // 2, -1] += 1e-3
    _finite(rows)
    amp = float(_flag(argv, "--amplitude", "1"))
    F = load_fn(_flag(argv, "--load", "uniform"), amp)
    n_list = [int(v) for v in _flag(argv, "--N", "17").split(",")]
    if cmd == "gamma0":
        want = []
        for lam in (float(v) for v in _flag(argv, "--lambda-grid").split(",")):
            params = kernels.plane_strain_coeffs(lam, 1.0, 0.3, 0.3)
            kernels.gamma0_root(params)
            want.append([lam, params.gamma0, params.beta_eff])
        _agree(rows, want, "gamma0 table")
        return 0.0
    if cmd == "characteristic":
        beta = float(_flag(argv, "--beta"))
        m0s = [int(v) for v in _flag(argv, "--m0").split(",")]
        f = complete.fourier_load_coeffs(F, 200, max(m0s) + 1)
        sols = {}
        for m0 in m0s:
            basis = spectral.build_basis(beta, m0)
            sols[m0] = spectral.characteristic_series_solve(basis, f[:m0 + 2], m0)
        if len(m0s) > 1:
            _agree(rows, [[m, s.evaluate(0.5), s.evaluate(0.25), s.constant_C]
                          for m, s in sols.items()], "series sweep")
            return 0.0
        sol = sols[m0s[0]]
        _agree_grid(header, rows, sol, "series solution")
        _agree(float(header["C"]), sol.constant_C, "constant C")
        res = float(np.max(np.abs(oracle.apply_S(sol.evaluate, beta, XS)
                                  - (sol.constant_C - F(XS)))))
        _check(res, CHARACTERISTIC_TOL * amp, "characteristic residual")
        return res

    lam = float(_flag(argv, "--lambda"))
    if cmd == "antiplane" and lam == 1.0:
        kern = None
    elif cmd == "antiplane":
        kern = kernels.antiplane_kernel(kernels.AntiplaneParams(lam=lam))
    else:
        params = kernels.plane_strain_coeffs(lam, 1.0, 0.3, 0.3)
        kernels.gamma0_root(params)
        _agree([float(header["gamma0"]), float(header["beta_eff"])],
               [params.gamma0, params.beta_eff], "plane-strain exponent")
        if abs(params.beta_eff) < 1e-9:
            raise GateError("no library reference for beta_eff = 0")
        kern = kernels.plane_strain_kernel(params)

    def bare(n):
        if kern is None:
            return cauchy.cauchy_solve(zero_kernel, F, N=n, t1=200, t2=210)
        return complete.solve(kern, F, SolveConfig(N=n, t1=200, t2=210),
                              diagnostics=False)

    tol = SOLVE_TOL["cli-cold"] * amp
    if len(n_list) > 1:
        sols = [bare(n) for n in n_list]
        _agree(rows, [[n, s.evaluate(0.5), s.constant_C]
                      for n, s in zip(n_list, sols)], "truncation sweep")
        return _check_solution(sols[-1], kern, F, tol)
    sol = bare(n_list[0])
    _agree_grid(header, rows, sol, "solution grid")
    _agree([float(header["C"]), float(header["phi_at_0.5"])],
           [sol.constant_C, sol.evaluate(0.5)], "constant and midpoint")
    if kern is not None:
        _check_report({k: float(header[k]) for k in (
            "linear_residual", "solvability_identity",
            "equation_residual_max")}, REPORT_EQ_TOL["cli-cold"] * amp)
    return _check_solution(sol, kern, F, tol)


# ---------------------------------------------------------------- jobs


def _verdict(fn, *args):
    try:
        res = fn(*args)
        return {"pass": True, "residual": res}
    except (GateError, ArithmeticError, ValueError, KeyError, IndexError,
            TypeError, RuntimeError) as exc:
        return {"pass": False, "why": f"{type(exc).__name__}: {exc}"}


def run_ops(job):
    rounds = job["rounds"]
    budget = job["seconds"]
    poison = job.get("poison", 0)
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    records, results = [], []
    t_start = time.perf_counter()
    for rnd in rounds:
        for op in rnd:
            op_id = len(records)
            if tracer:
                tracer.begin_op(op_id)
            t0 = time.perf_counter()
            try:
                result, error = run_op(op), None
            except Exception as exc:  # any raise is a failed op
                result, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
            rec = {"op": op_id, "t": dt, "error": error}
            if result is not None and result.get("warnings"):
                rec["warnings"] = result["warnings"]
            records.append(rec)
            results.append(result)
        if budget is not None and time.perf_counter() - t_start >= budget:
            break
    wall = time.perf_counter() - t_start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    flat = [op for rnd in rounds for op in rnd]
    for rec, result in zip(records, results):
        if result is None:
            continue
        if poison > 0:
            result = _poison(result)
            rec["poisoned"] = True
            poison -= 1
        rec["gate"] = _verdict(gate_op, job["workload"], flat[rec["op"]], result)
    out = {"records": records, "wall_s": wall, "peak_rss_kb": peak_kb,
           "rounds_done": len(records) // len(rounds[0])}
    if tracer:
        out["spans"] = tracer.spans
    return out


def gate_cli_outputs(job):
    records = []
    for i, (op, stdout) in enumerate(zip(job["ops"], job["stdouts"])):
        records.append(_verdict(gate_cli, op, stdout, i in job["poison"]))
    return {"records": records}


def environment():
    import platform

    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "fixsing": fixsing.__version__}


def main():
    warm_up()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    job = json.loads(line)
    if job["mode"] == "ops":
        out = run_ops(job)
    else:
        out = gate_cli_outputs(job)
    out["env"] = environment()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
