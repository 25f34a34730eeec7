"""Smoke test of the benchmark at tiny size.

    python3 bench/smoke.py

For every workload it runs one untraced pass with the outputs of the first
completed op deliberately corrupted (``--poison 1``) and one traced pass.
It checks that every metric named in BENCHMARK.json appears in the result
line with its unit, that the gate rejected exactly the corrupted op and
passed the others, and that the traced layer times reconcile.  Exits
nonzero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace, poison):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace),
           "--poison", str(poison)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    record = json.loads((ROOT / ".bench_out" /
                         f"{workload}-seed7-trace{trace}.json").read_text())
    return lines, json.loads(lines[-1]), record


def check_metrics(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    got = result["metrics"]
    if set(got) != {m["name"] for m in expected}:
        raise AssertionError(f"metric names differ: {sorted(got)}")
    for m in expected:
        entry = got[m["name"]]
        if entry["unit"] != m["unit"] or not isinstance(entry["value"],
                                                        (int, float)):
            raise AssertionError(f"{m['name']}: {entry}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        _, result, record = run(name, 0, 1)
        check_metrics(result, spec["end_to_end"])
        gated = [r for r in record["records"] if "gate" in r]
        rejected = [r for r in gated if not r["gate"]["pass"]]
        if result["correct"] or [r.get("poisoned") for r in rejected] != [True]:
            raise AssertionError(f"{name}: the gate did not reject exactly the "
                                 f"corrupted op: {rejected}")
        if len(gated) < 2:
            raise AssertionError(f"{name}: too few gated ops to test the gate")
        if result["failed"] < 1 or result["attempted"] < result["failed"]:
            raise AssertionError(f"{name}: counts {result}")

        lines, result, record = run(name, 1, 0)
        check_metrics(result, spec["per_layer"])
        if not result["correct"]:
            raise AssertionError(f"{name}: traced run rejected an op")
        if not any(line.startswith("reconcile:") for line in lines):
            raise AssertionError(f"{name}: no reconciliation line")
        if record["reconcile_err_s"] > 1e-6:
            raise AssertionError(f"{name}: layer times do not reconcile")
        print(f"ok {name}: {result['attempted']} ops traced, gate rejected "
              f"the corrupted op", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
