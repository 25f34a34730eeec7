"""fixsing benchmark: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (the package is loaded from ``src/``).  This
process is the generator: it draws the op list from the seed with the
standard library only and hands the generated inputs to child processes,
one at a time.  All ops are closed loop with one client.

Workloads (see workloads.py for the draws):

* ``cli-cold``: fresh ``python -m fixsing.cli`` processes over the README
  command set; what a command-line user pays, import included.
* ``stiffness-sweep``: warm in-process bare antiplane solves, one lambda per
  decade of [1e-4, 1e4] in every round; kernel evaluation dominates and
  grows with max(lambda, 1/lambda).  Draws outside lambda ~ [5.9e-4, 1.68e3]
  raise in the reflection series at the time of writing; they stay in the
  draw and count as failed ops.  Because some ops fail, this workload runs
  a fixed number of whole rounds (ROUND_SECONDS) instead of stopping on
  the clock: ``attempted`` and ``failed`` then depend only on the seed and
  ``--seconds``, and agree exactly between runs of the same code.
* ``refine-and-check``: warm in-process truncation ladder, one diagnosed
  solve and a regime inverse per instance; diagnostics and repeated kernel
  grids dominate.

End-to-end metrics (``--trace 0``): ``setup_s`` (median over fresh
interpreters until the import returns, plus the fixed warm-up solve for the
library workloads), ``ops_per_s`` (gated ops per second of the timed
pass), ``op_p50_s`` and ``op_tail_s`` (latency of every attempted op, a
failed one until it raised or exited; both are Harrell-Davis estimates,
the tail at the highest percentile with at least ten samples beyond it)
and ``peak_rss_mb`` (peak resident memory of the process that did the work;
the largest CLI child for ``cli-cold``).  ``failed_frac`` is printed in the
report and is ``failed / attempted`` of the JSON line.

``--trace 1`` runs the same ops twice, untraced then traced, and prints the
per-layer metrics of tracer.LAYER_METRICS plus the tracing overhead.  Self
times plus ``trace.gap_s`` add up to the op time.

The last stdout line is the JSON result; a full record (every op, the
environment and, when traced, every span) is written to
``.bench_out/<workload>-seed<n>-trace<t>.json``.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import ROUNDS  # noqa: E402

BLAS_THREADS = 1
#: fresh interpreters timed for setup_s
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120.0
#: rounds generated up front; the time budget ends the pass much earlier
MAX_ROUNDS = 64
#: workloads that run a fixed number of whole rounds, one per this many
#: seconds of --seconds, rather than until the time budget is spent.  For
#: stiffness-sweep a round takes 3-5 s at the time of writing (2-vCPU VM),
#: and 25 s gives 8 rounds, so each decade's positions form an even lattice.
ROUND_SECONDS = {"stiffness-sweep": 3.125}
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


# ------------------------------------------------------------- processes


def _communicate(proc, data=None, timeout=CHILD_TIMEOUT_S):
    try:
        return proc.communicate(data, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child exceeded {timeout:.0f} s: {proc.args}")


class Worker:
    """worker.py child: timed from spawn until it reports ready."""

    def __init__(self, root, env):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, bufsize=0)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != b"ready":
            _, err = _communicate(self.proc)
            raise BenchError("worker failed to start: "
                             + err.decode(errors="replace")[-2000:])

    def run(self, job, timeout):
        out, err = _communicate(self.proc, (json.dumps(job) + "\n").encode(),
                                timeout)
        if self.proc.returncode != 0:
            raise BenchError("worker failed: " + err.decode(errors="replace")[-2000:])
        return json.loads(out.decode().strip().splitlines()[-1])

    def close(self):
        _communicate(self.proc, b"")


def time_setup(root, env, module):
    """Median wall time of fresh interpreters until `import module` returns."""
    code = f"import {module}; print('ready', flush=True)"
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=root, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                bufsize=0)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        _, err = _communicate(proc)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError(f"import {module} failed: "
                             + err.decode(errors="replace")[-2000:])
    return samples


def import_profile(root, env, module):
    """Cumulative import times of fixsing, numpy and scipy (-X importtime)."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               f"import {module}"], cwd=root, env=env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("import profile failed: " + proc.stderr[-2000:])
        runs.append(_parse_importtime(proc.stderr))
    out = {k: statistics.median(r[k] for r in runs)
           for k in ("import.fixsing_s", "import.numpy_s", "import.scipy_s")}
    out["import.modules_n"] = runs[0]["import.modules_n"]
    return out


def _parse_importtime(text):
    """Sum the cumulative time of the outermost entries of each package."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative), name.strip()))
    totals = {"fixsing": 0, "numpy": 0, "scipy": 0}
    stack = []
    # importtime prints children before parents; walk parents first
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for _, a in stack):
            totals[top] += cumulative
        stack.append((depth, name))
    out = {f"import.{k}_s": v * 1e-6 for k, v in totals.items()}
    out["import.modules_n"] = len(rows)
    return out


# ------------------------------------------------------------- workloads


def take_rounds(workload, seed, n):
    gen = ROUNDS[workload](seed)
    return [next(gen) for _ in range(n)]


def library_pass(root, env, workload, rounds, seconds, trace, poison, worker=None):
    worker = worker or Worker(root, env)
    job = {"mode": "ops", "workload": workload, "rounds": rounds,
           "seconds": seconds, "trace": trace, "poison": poison}
    return worker.run(job, timeout=CHILD_TIMEOUT_S)


def cli_pass(root, env, rounds, seconds, trace, work_dir):
    """Run CLI children one at a time; returns op records and stdouts."""
    records, stdouts, ops, spans = [], [], [], []
    t_start = time.perf_counter()
    for rnd in rounds:
        for op in rnd:
            op_id = len(records)
            span_file = work_dir / f"spans-{os.getpid()}-{op_id}.json"
            if trace:
                cmd = [sys.executable, str(HERE / "cli_traced.py"),
                       str(span_file)] + op["argv"]
            else:
                cmd = [sys.executable, "-m", "fixsing.cli"] + op["argv"]
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=root, env=env,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
            out, err = _communicate(proc)
            dt = time.perf_counter() - t0
            error = None
            if proc.returncode != 0:
                error = (f"exit {proc.returncode}: "
                         + err.decode(errors="replace").strip()[-300:])
            records.append({"op": op_id, "t": dt, "error": error})
            stdouts.append(out.decode(errors="replace"))
            ops.append(op)
            if trace and span_file.exists():
                base = len(spans)
                for sp in json.loads(span_file.read_text()):
                    if sp[tracing.PARENT] is not None:
                        sp[tracing.PARENT] += base
                    sp[tracing.OP] = op_id
                    spans.append(sp)
                span_file.unlink()
        if seconds is not None and time.perf_counter() - t_start >= seconds:
            break
    wall = time.perf_counter() - t_start
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"records": records, "wall_s": wall, "peak_rss_kb": peak_kb,
            "stdouts": stdouts, "ops": ops, "spans": spans,
            "rounds_done": len(records) // len(rounds[0])}


def gate_cli_pass(root, env, result, poison):
    worker = Worker(root, env)
    ok = [i for i, r in enumerate(result["records"]) if r["error"] is None]
    job = {"mode": "cli-gate", "ops": [result["ops"][i] for i in ok],
           "stdouts": [result["stdouts"][i] for i in ok],
           "poison": list(range(min(poison, len(ok))))}
    verdicts = worker.run(job, timeout=CHILD_TIMEOUT_S)
    for j, (i, verdict) in enumerate(zip(ok, verdicts["records"])):
        result["records"][i]["gate"] = verdict
        if j in job["poison"]:
            result["records"][i]["poisoned"] = True
    result["env"] = verdicts["env"]
    return result


# ------------------------------------------------------------- statistics


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of the order statistics with Beta(p(n+1), (1-p)(n+1))
    weights (Harrell & Davis, Biometrika 1982).  stiffness-sweep's median
    falls where op cost changes steeply with lambda, between the solves just
    above lambda = 1e2 and just below 1e-2; the sample median then jumps
    between the two by ~25% from seed to seed, while this estimate, which
    spreads its weight over the ~sqrt(n) middle ops, stays steady.  Its
    tail rank falls among the ops that raise, whose times scatter by +-20%
    on a shared host; the single order statistic there spread 0.12 between
    seeds, this estimate 0.05.  For a symmetric, densely sampled
    neighbourhood it equals the sample quantile.
    """
    xs = sorted(values)
    n = len(xs)
    a = p * (n + 1)
    b = (1.0 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(t):
        if not 0.0 < t < 1.0:
            return 0.0
        return math.exp((a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t)
                        - log_norm)

    # Simpson's rule on each cell [i/n, (i+1)/n]; normalising the weights
    # absorbs the integration error
    k = 16
    h = 1.0 / (n * k)
    weights = []
    for i in range(n):
        t0 = i / n
        inner = sum((4.0 if j % 2 else 2.0) * pdf(t0 + j * h) for j in range(1, k))
        weights.append((pdf(t0) + inner + pdf(t0 + k * h)) * h / 3.0)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(latencies):
    """(value, percentile) at the highest rank with >= 10 samples beyond;
    the value is the Harrell-Davis estimate at that percentile."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return max(latencies), 100.0
    p = (n - TAIL_BEYOND) / n
    return hd_quantile(latencies, p), 100.0 * p


def summarize(result):
    recs = result["records"]
    # latencies of every attempted op, including those that raised or
    # exited nonzero: each round then splits evenly around the median, so
    # the median does not move with the number of failures
    if not recs:
        raise BenchError("no op ran")
    latencies = [r["t"] for r in recs]
    completed = [r for r in recs if r["error"] is None]
    passed = [r for r in recs if r.get("gate", {}).get("pass")]
    tail_v, tail_p = tail(latencies)
    return {
        "attempted": len(recs), "failed": len(recs) - len(passed),
        "rejected": len(completed) - len(passed), "completed": len(completed),
        "ops_per_s": len(passed) / result["wall_s"],
        "op_p50_s": hd_quantile(latencies, 0.5),
        "op_tail_s": tail_v, "tail_percentile": tail_p,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


# ------------------------------------------------------------- environment


def git_commit(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = root / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root, seed, worker_env):
    return dict(worker_env, nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)),
                blas_threads=BLAS_THREADS, git_commit=git_commit(root),
                src_sha256=source_digest(root), seed=seed)


# ------------------------------------------------------------- main


def run(workload, seed, seconds, trace, poison, root):
    env = child_env(root)
    work_dir = root / ".bench_out"
    work_dir.mkdir(exist_ok=True)
    if workload in ROUND_SECONDS:
        n_rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
        rounds, budget = take_rounds(workload, seed, n_rounds), None
    else:
        rounds, budget = take_rounds(workload, seed, MAX_ROUNDS), seconds
    cli = workload == "cli-cold"
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace}

    if cli:
        setup = time_setup(root, env, "fixsing.cli")
        first = cli_pass(root, env, rounds, budget, False, work_dir)
        gate_cli_pass(root, env, first, poison)
    else:
        setup = []
        worker = None
        for i in range(SETUP_REPEATS):
            w = Worker(root, env)
            setup.append(w.setup_s)
            if i < SETUP_REPEATS - 1:
                w.close()
            else:
                worker = w
        first = library_pass(root, env, workload, rounds, budget, False,
                             poison, worker)
    summary = summarize(first)
    record.update(setup_samples=setup, summary=summary,
                  records=first["records"],
                  env=environment(root, seed, first["env"]))
    metrics = {"setup_s": statistics.median(setup)}
    metrics.update({k: summary[k] for k in ("ops_per_s", "op_p50_s",
                                            "op_tail_s", "peak_rss_mb")})

    layer = None
    if trace:
        done = rounds[:first["rounds_done"]]
        layer = import_profile(root, env, "fixsing.cli" if cli else "fixsing")
        if cli:
            second = cli_pass(root, env, done, None, True, work_dir)
            gate_cli_pass(root, env, second, 0)
        else:
            second = library_pass(root, env, workload, done, None, True, 0)
        traced = summarize(second)
        op_times = {r["op"]: r["t"] for r in second["records"]}
        layer_metrics, reconcile_err = tracing.aggregate(second["spans"],
                                                         op_times)
        layer_metrics.update(layer)
        layer_metrics["trace.overhead_frac"] = (
            traced["op_p50_s"] / summary["op_p50_s"] - 1.0)
        record.update(traced_summary=traced, traced_records=second["records"],
                      spans=second["spans"], layer_metrics=layer_metrics,
                      reconcile_err_s=reconcile_err)
        layer = layer_metrics
        if reconcile_err > 1e-6 * max(1.0, sum(op_times.values())):
            raise BenchError(f"layer times do not reconcile ({reconcile_err:g} s)")

    out_path = work_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(record))
    return record, metrics, layer


def bench_spec(root):
    return json.loads((root / "BENCHMARK.json").read_text())


def report(record, metrics, layer, spec):
    s = record["summary"]
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    print(f"workload={record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} attempted={s['attempted']} "
          f"completed={s['completed']} failed={s['failed']} "
          f"rejected={s['rejected']}")
    n = s["attempted"]
    notes = {
        "setup_s": f"median of n={len(record['setup_samples'])} fresh interpreters",
        "ops_per_s": f"n={s['attempted'] - s['failed']} gated ops",
        "op_p50_s": f"Harrell-Davis, n={n} attempted ops",
        "op_tail_s": f"Harrell-Davis p{s['tail_percentile']:.1f}, n={n} attempted ops",
        "peak_rss_mb": "process that did the work",
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in metrics.items():
        print(f"{name:<16} {value:<14.6g} {units.get(name, ''):<5} {notes[name]}")
    errors = sorted({r["error"].split(":")[0] for r in record["records"]
                     if r["error"]})
    print(f"{'failed_frac':<16} {s['failed'] / s['attempted']:<14.6g} {'1':<5} "
          f"{s['failed']}/{s['attempted']} ops {' '.join(errors)}")
    if layer is not None:
        for name, unit in tracing.LAYER_METRICS:
            print(f"{name:<36} {layer[name]:<14.6g} {unit}")
        parts = sum(layer[m] for m in tracing.self_time_metrics())
        print(f"reconcile: self times {parts:.6g} + gap {layer['trace.gap_s']:.6g}"
              f" = op mean {layer['trace.op_mean_s']:.6g} s/op")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # corrupts the outputs of the first N ops before the gate (smoke test)
    parser.add_argument("--poison", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = HERE.parent
    try:
        if not (root / "src" / "fixsing" / "__init__.py").is_file():
            raise BenchError(f"no fixsing package under {root / 'src'}")
        spec = bench_spec(root)
        record, metrics, layer = run(args.workload, args.seed, args.seconds,
                                     bool(args.trace), args.poison, root)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(record, metrics, layer, spec)
    s = record["summary"]
    attempted, failed = s["attempted"], s["failed"]
    correct = s["rejected"] == 0
    if args.trace:
        t = record["traced_summary"]
        attempted += t["attempted"]
        failed += t["failed"]
        correct = correct and t["rejected"] == 0
        names = [m["name"] for m in spec["per_layer"]]
        values = {n: (layer[n], m["unit"]) for n, m in
                  zip(names, spec["per_layer"])}
    else:
        values = {m["name"]: (metrics[m["name"]], m["unit"])
                  for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
