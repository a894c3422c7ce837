#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload run.py offers, including those BENCHMARK.json does not
gate, in tiny mode (seconds-scale inputs):
  * an untraced run must pass its correctness checks and print exactly
    the end-to-end metrics, each with its declared unit;
  * a traced run must do the same with the per-layer metrics;
  * a run with one window withheld (drop_window) and a run with one
    window's tracks altered (alter_track) must both fail with a non-zero
    exit, and the check that fires must be the one against the
    workload's independent witness (WITNESS) — proof the checks are live.
Exits non-zero if any expectation fails.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The failure message a perturbed run must print: the comparison with the
# bare in-process pipeline on the clean node workloads, with the
# single-threaded reference pass on fleet_faults, with the bare runner's
# RunResult on eval_fig4.
WITNESS = {
    "eng_ebbiot": "node tracks differ from the bare pipeline",
    "wide_ebms": "node tracks differ from the bare pipeline",
    "fleet_faults": "tracks differ from the reference pass",
    "eval_fig4": "RunResult differs from the bare run",
}


def run(workload, trace, perturb="none"):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
           "--perturb", perturb]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def check_metrics(result, expected):
    """Problems with a result's metric set against {name: unit}."""
    problems = []
    metrics = result.get("metrics", {})
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r} != {unit!r}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be an integer >= 1")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    for workload in WITNESS:
        for trace, expected in ((0, e2e), (1, layers)):
            rc, result, _ = run(workload, trace)
            label = f"{workload} trace={trace}"
            if rc != 0 or result is None or result.get("correct") is not True:
                failures.append(f"{label}: exit {rc}, result {result and result.get('correct')}")
                continue
            failures += [f"{label}: {p}" for p in check_metrics(result, expected)]
        for perturb in ("drop_window", "alter_track"):
            rc, result, stderr = run(workload, 0, perturb)
            if rc == 0 or result is None or result.get("correct") is not False:
                failures.append(f"{workload} perturb={perturb}: the correctness "
                                f"check did not fire (exit {rc})")
            elif WITNESS[workload] not in stderr:
                failures.append(f"{workload} perturb={perturb}: failed, but not "
                                f"with {WITNESS[workload]!r}")
        print(f"{workload}: checked", flush=True)
    for f in failures:
        print("FAIL:", f)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
