#!/usr/bin/env python3
"""Convert google-benchmark JSON output of bench_micro_stages into the
compact perf-trajectory record BENCH_micro.json.

Usage:
    bench_micro_stages --benchmark_format=json > raw.json
    tools/bench_micro_json.py raw.json BENCH_micro.json \
        [--fail-on-steady-allocs] \
        [--fail-on-ops-regression=BASELINE.json] \
        [--update-ops-baseline=BASELINE.json]

Each benchmark becomes {"name", "ns_per_frame", "ops_per_frame",
"allocs_per_frame"} (the latter two are null for benchmarks without the
counters).  CI runs this every build so the history of the word-parallel
hot path stays measurable; stdlib only, no dependencies.

The BM_RunRecordingRegistry/<threads> grid is additionally summarised
into a "thread_scaling" section: one row per thread count with its
speedup over the serial threads=1 cell, plus the host CPU count so a
1.0x row on a single-core host reads as parity, not a regression.

"build_type" is the project's CMAKE_BUILD_TYPE, which bench_micro_stages
records as the ebbiot_build_type context key (null when absent), not
libbenchmark's own library_build_type.

With --fail-on-steady-allocs the script exits non-zero (after writing the
JSON) if any stage pinned allocation-free in steady state reports
allocs_per_frame above zero — the benchmarks warm those stages up before
taking the allocation baseline, so any non-zero value is a regression of
the reuse discipline, not warm-up noise.

With --fail-on-ops-regression=BASELINE.json the script additionally
compares each pinned stage's ops_per_frame against the recorded baseline
and exits non-zero on drift beyond the baseline's tolerance.  The
reported ops are the paper's closed-form models over a *deterministic*
synthetic workload, so they are host-independent: any drift means the
abstract cost model changed (deliberately — then regenerate the baseline
with --update-ops-baseline — or by accident, which is exactly what the
gate exists to catch).  A pinned stage missing from the run, or missing
its counter, is itself a failure, keeping the gate self-verifying.
"""
import json
import sys

# Stages whose per-frame loop must not allocate once warm (reused member
# buffers; pinned by tests/test_allocation.cpp).  The reference trackers
# and whole-pipeline benchmarks return Tracks by value (or keep deque
# histories) and are excluded.  BM_FrameParserEng (the node's EBF1 codec),
# its parts BM_Crc32Eng and BM_DecodeEventsEng, BM_LatchEng (the pixel
# latch), BM_MedianFilterPortable (the median's portable kernel, run
# directly) and BM_KalmanFilterStep (one Kalman predict + update) are
# gated here but report no ops_frame: none has a closed-form ops model of
# its own, so all are absent from OPS_PINNED_BENCHES.
STEADY_STATE_BENCHES = frozenset(
    {
        "BM_EbbiBuild",
        "BM_EbbiBuildStream",
        "BM_Crc32Eng",
        "BM_DecodeEventsEng",
        "BM_FrameParserEng",
        "BM_LatchEng",
        "BM_MedianFilter",
        "BM_MedianFilterPortable",
        "BM_MedianFilterReference",
        "BM_DownsampleAndHistogram",
        "BM_HistogramRpn",
        "BM_CcaRpn",
        "BM_CcaRpnReference",
        "BM_NnFilter",
        "BM_NnFilterReference",
        "BM_NnFilterDenseNoise",
        "BM_NnFilterDenseNoiseReference",
        "BM_EbmsTracker",
        "BM_EbmsTrackerCrowded",
        "BM_EbmsTrackerEng",
        "BM_KalmanFilterStep",
    }
)

# Stages whose ops_per_frame is a closed-form model over the
# deterministic synthetic workload: recorded in the ops baseline and
# gated by --fail-on-ops-regression.
OPS_PINNED_BENCHES = (
    "BM_EbbiBuild",
    "BM_EbbiBuildStream",
    "BM_MedianFilter",
    "BM_MedianFilterReference",
    "BM_DownsampleAndHistogram",
    "BM_HistogramRpn",
    "BM_CcaRpn",
    "BM_CcaRpnReference",
    "BM_NnFilter",
    "BM_NnFilterReference",
    "BM_NnFilterDenseNoise",
    "BM_NnFilterDenseNoiseReference",
    "BM_EbmsTracker",
    "BM_EbmsTrackerReference",
    "BM_EbmsTrackerCrowded",
    "BM_EbmsTrackerCrowdedReference",
    "BM_EbmsTrackerEng",
    "BM_EbmsTrackerEngReference",
)

# Averages over benchmark iterations include partial passes over the
# cycling frame banks, so a small relative wobble is expected; anything
# beyond this means the closed form itself moved.
DEFAULT_TOLERANCE = 0.05


def check_steady_allocs(records):
    by_name = {r["name"]: r for r in records}
    failures = []
    for name in sorted(STEADY_STATE_BENCHES):
        record = by_name.get(name)
        if record is None:
            failures.append(f"pinned benchmark {name} missing from output")
        elif record["allocs_per_frame"] is None:
            failures.append(f"{name} reports no allocs_frame counter")
        elif record["allocs_per_frame"] > 0:
            failures.append(
                f"steady-state stage {name} allocates "
                f"{record['allocs_per_frame']:.6f} times/frame (expected 0)"
            )
    return failures


def check_ops_regression(records, baseline_path):
    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)
    tolerance = baseline.get("tolerance", DEFAULT_TOLERANCE)
    pinned = baseline.get("ops_per_frame", {})
    by_name = {r["name"]: r for r in records}
    failures = []
    # Self-verification both ways: a stage added to OPS_PINNED_BENCHES
    # without regenerating the baseline (or removed from the code but
    # still recorded) must fail loudly, not silently stop being gated.
    for name in OPS_PINNED_BENCHES:
        if name not in pinned:
            failures.append(
                f"{name} is ops-pinned in code but missing from the "
                f"baseline — regenerate with --update-ops-baseline"
            )
    for name in sorted(pinned):
        if name not in OPS_PINNED_BENCHES:
            failures.append(
                f"baseline records {name}, which is no longer in "
                f"OPS_PINNED_BENCHES — regenerate with --update-ops-baseline"
            )
    for name, want in sorted(pinned.items()):
        record = by_name.get(name)
        if record is None:
            failures.append(f"ops-pinned benchmark {name} missing from output")
            continue
        got = record["ops_per_frame"]
        if got is None:
            failures.append(f"{name} reports no ops_frame counter")
            continue
        drift = abs(got - want) / want if want else abs(got)
        if drift > tolerance:
            failures.append(
                f"{name} ops/frame drifted {drift:.1%} from baseline "
                f"({got:.1f} vs {want:.1f}, tolerance {tolerance:.0%})"
            )
    return failures


def write_ops_baseline(records, baseline_path):
    by_name = {r["name"]: r for r in records}
    ops = {}
    for name in OPS_PINNED_BENCHES:
        record = by_name.get(name)
        if record is None or record["ops_per_frame"] is None:
            print(f"cannot baseline {name}: no ops_frame in run",
                  file=sys.stderr)
            return 1
        ops[name] = round(record["ops_per_frame"], 1)
    out = {
        "schema": "ebbiot-bench-ops-baseline/1",
        "tolerance": DEFAULT_TOLERANCE,
        "ops_per_frame": ops,
    }
    with open(baseline_path, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"wrote ops baseline {baseline_path} with {len(ops)} stages")
    return 0


def thread_scaling_section(records, host_cpus):
    """Summarise the BM_RunRecordingRegistry/<threads> grid.

    Speedups are relative to the serial threads=1 cell.  On a
    single-core host every cell sits near 1.0x (the runner clamps to the
    hardware) — host_cpus is recorded so readers can tell parity from
    regression.
    """
    cells = []
    for record in records:
        parts = record["name"].split("/")
        if parts[0] != "BM_RunRecordingRegistry" or len(parts) != 2:
            continue
        cells.append(
            {
                "threads": int(parts[1]),
                "ns_per_run": record["ns_per_frame"],
            }
        )
    if not cells:
        return None
    serial = next((c for c in cells if c["threads"] == 1), None)
    for cell in cells:
        cell["speedup_vs_serial"] = (
            round(serial["ns_per_run"] / cell["ns_per_run"], 3)
            if serial
            else None
        )
    cells.sort(key=lambda c: c["threads"])
    return {"benchmark": "BM_RunRecordingRegistry",
            "host_cpus": host_cpus,
            "cells": cells}


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    flags = [a for a in sys.argv[1:] if a.startswith("--")]
    fail_allocs = False
    ops_baseline = None
    update_baseline = None
    for flag in flags:
        if flag == "--fail-on-steady-allocs":
            fail_allocs = True
        elif flag.startswith("--fail-on-ops-regression="):
            ops_baseline = flag.split("=", 1)[1]
        elif flag.startswith("--update-ops-baseline="):
            update_baseline = flag.split("=", 1)[1]
        else:
            print(__doc__, file=sys.stderr)
            return 2
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(args[0], encoding="utf-8") as f:
        raw = json.load(f)

    records = []
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        # google-benchmark reports real_time in the benchmark's time_unit;
        # normalise to nanoseconds per iteration (= per frame here).
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        records.append(
            {
                "name": bench["name"],
                "ns_per_frame": bench["real_time"] * scale,
                "ops_per_frame": bench.get("ops_frame"),
                "allocs_per_frame": bench.get("allocs_frame"),
            }
        )

    context = raw.get("context", {})
    out = {
        "schema": "ebbiot-bench-micro/1",
        "date": context.get("date"),
        "host_cpus": context.get("num_cpus"),
        "build_type": context.get("ebbiot_build_type"),
        "benchmarks": records,
    }
    scaling = thread_scaling_section(records, context.get("num_cpus"))
    if scaling is not None:
        out["thread_scaling"] = scaling
    with open(args[1], "w", encoding="utf-8") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"wrote {args[1]} with {len(records)} benchmarks")

    if update_baseline is not None:
        status = write_ops_baseline(records, update_baseline)
        if status != 0:
            return status

    failures = []
    if fail_allocs:
        failures += check_steady_allocs(records)
    if ops_baseline is not None:
        failures += check_ops_regression(records, ops_baseline)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
