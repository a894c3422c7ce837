#!/usr/bin/env python3
"""Self-test for tools/bench_micro_json.py on synthetic fixture runs.

Each case synthesises a google-benchmark raw JSON document, runs the
converter over it in a temp directory, and asserts the conversion and
each gate (--fail-on-steady-allocs, --fail-on-ops-regression,
--update-ops-baseline) accepts healthy runs and rejects each regression
with a message naming the actual problem.  Run directly:

    python3 tests/test_bench_micro_json.py

CI runs this in the test job; ctest registers it (plus the committed
tools/BENCH_ops_baseline.json shape check), so `ctest -R
bench_micro_json` covers both locally too.
"""

import importlib.util
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SCRIPT = TOOLS / "bench_micro_json.py"

# Import the converter module itself for its pinned-stage lists: the
# fixture must stay complete as stages are added, without hand-copying.
_spec = importlib.util.spec_from_file_location("bench_micro_json", SCRIPT)
_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_mod)
STEADY = sorted(_mod.STEADY_STATE_BENCHES)
PINNED = list(_mod.OPS_PINNED_BENCHES)
TOLERANCE = _mod.DEFAULT_TOLERANCE


def healthy_raw():
    """A raw google-benchmark document every converter gate accepts."""
    benches = []
    for i, name in enumerate(sorted(set(STEADY) | set(PINNED))):
        benches.append({
            "name": name,
            "run_type": "iteration",
            "real_time": 1000.0 + i,
            "time_unit": "ns",
            "ops_frame": 5000.0 + 100.0 * i,
            "allocs_frame": 0.0,
        })
    # An aggregate row the converter must skip, and a thread-scaling grid.
    benches.append({
        "name": f"{STEADY[0]}_mean",
        "run_type": "aggregate",
        "real_time": 999.0,
        "time_unit": "ns",
    })
    for threads in (1, 2, 4):
        benches.append({
            "name": f"BM_RunRecordingRegistry/{threads}",
            "run_type": "iteration",
            "real_time": 8.0 / threads,
            "time_unit": "us",
        })
    return {
        "context": {
            "date": "2026-01-01T00:00:00+00:00",
            "num_cpus": 1,
            "library_build_type": "debug",
            "ebbiot_build_type": "Release",
        },
        "benchmarks": benches,
    }


class ConverterCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        self.raw = healthy_raw()

    def tearDown(self):
        self._tmp.cleanup()

    def run_tool(self, *flags):
        raw_path = self.root / "raw.json"
        out_path = self.root / "BENCH_micro.json"
        raw_path.write_text(json.dumps(self.raw))
        result = subprocess.run(
            [sys.executable, str(SCRIPT), str(raw_path), str(out_path),
             *flags],
            capture_output=True, text=True)
        return result, out_path

    def bench(self, name):
        for bench in self.raw["benchmarks"]:
            if bench["name"] == name:
                return bench
        raise AssertionError(f"no fixture benchmark {name}")

    def write_baseline(self):
        """Generate a matching baseline from the healthy fixture."""
        path = self.root / "baseline.json"
        result, _ = self.run_tool(f"--update-ops-baseline={path}")
        self.assertEqual(result.returncode, 0, result.stderr)
        return path

    def test_healthy_conversion(self):
        result, out_path = self.run_tool()
        self.assertEqual(result.returncode, 0, result.stderr)
        out = json.loads(out_path.read_text())
        self.assertEqual(out["schema"], "ebbiot-bench-micro/1")
        names = {r["name"] for r in out["benchmarks"]}
        for name in STEADY:
            self.assertIn(name, names)
        # Aggregate rows are skipped, not converted.
        self.assertNotIn(f"{STEADY[0]}_mean", names)

    def test_thread_scaling_section(self):
        _, out_path = self.run_tool()
        scaling = json.loads(out_path.read_text())["thread_scaling"]
        self.assertEqual(scaling["host_cpus"], 1)
        by_threads = {c["threads"]: c for c in scaling["cells"]}
        self.assertEqual(sorted(by_threads), [1, 2, 4])
        self.assertEqual(by_threads[1]["speedup_vs_serial"], 1.0)
        self.assertEqual(by_threads[2]["speedup_vs_serial"], 2.0)
        self.assertEqual(by_threads[4]["speedup_vs_serial"], 4.0)
        self.assertNotIn("pipelined", by_threads[1])

    def test_build_type_is_ours_not_libbenchmarks(self):
        _, out_path = self.run_tool()
        self.assertEqual(json.loads(out_path.read_text())["build_type"],
                         "Release")

    def test_missing_build_type_is_null(self):
        del self.raw["context"]["ebbiot_build_type"]
        result, out_path = self.run_tool()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIsNone(json.loads(out_path.read_text())["build_type"])

    def test_time_units_normalised_to_ns(self):
        _, out_path = self.run_tool()
        out = json.loads(out_path.read_text())
        cell = next(r for r in out["benchmarks"]
                    if r["name"] == "BM_RunRecordingRegistry/1")
        self.assertAlmostEqual(cell["ns_per_frame"], 8000.0)

    def test_steady_alloc_regression_fails(self):
        self.bench(STEADY[0])["allocs_frame"] = 0.5
        result, _ = self.run_tool("--fail-on-steady-allocs")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("allocates", result.stderr)
        self.assertIn(STEADY[0], result.stderr)

    def test_codec_bench_alloc_gated_without_ops(self):
        # The frame parser has no closed-form ops: its cell carries only
        # allocs_frame, passes both gates that way, stays out of the ops
        # baseline, and still fails the allocation gate when it allocates.
        self.assertIn("BM_FrameParserEng", STEADY)
        self.assertNotIn("BM_FrameParserEng", PINNED)
        del self.bench("BM_FrameParserEng")["ops_frame"]
        baseline = self.write_baseline()
        self.assertNotIn("BM_FrameParserEng",
                         json.loads(baseline.read_text())["ops_per_frame"])
        result, out_path = self.run_tool(
            "--fail-on-steady-allocs", f"--fail-on-ops-regression={baseline}")
        self.assertEqual(result.returncode, 0, result.stderr)
        cell = next(r for r in json.loads(out_path.read_text())["benchmarks"]
                    if r["name"] == "BM_FrameParserEng")
        self.assertIsNone(cell["ops_per_frame"])
        self.bench("BM_FrameParserEng")["allocs_frame"] = 0.01
        result, _ = self.run_tool("--fail-on-steady-allocs")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("BM_FrameParserEng", result.stderr)

    def test_latch_bench_alloc_gated_without_ops(self):
        # The pixel latch has no closed-form ops either: gated for
        # allocations, absent from the ops baseline.
        self.assertIn("BM_LatchEng", STEADY)
        self.assertNotIn("BM_LatchEng", PINNED)
        del self.bench("BM_LatchEng")["ops_frame"]
        baseline = self.write_baseline()
        self.assertNotIn("BM_LatchEng",
                         json.loads(baseline.read_text())["ops_per_frame"])
        result, _ = self.run_tool(
            "--fail-on-steady-allocs", f"--fail-on-ops-regression={baseline}")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.bench("BM_LatchEng")["allocs_frame"] = 0.02
        result, _ = self.run_tool("--fail-on-steady-allocs")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("BM_LatchEng", result.stderr)

    def test_crc_bench_alloc_gated_without_ops(self):
        # The CRC32 alone has no closed-form ops either: gated for
        # allocations, absent from the ops baseline.
        self.assertIn("BM_Crc32Eng", STEADY)
        self.assertNotIn("BM_Crc32Eng", PINNED)
        del self.bench("BM_Crc32Eng")["ops_frame"]
        baseline = self.write_baseline()
        self.assertNotIn("BM_Crc32Eng",
                         json.loads(baseline.read_text())["ops_per_frame"])
        result, _ = self.run_tool(
            "--fail-on-steady-allocs", f"--fail-on-ops-regression={baseline}")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.bench("BM_Crc32Eng")["allocs_frame"] = 0.02
        result, _ = self.run_tool("--fail-on-steady-allocs")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("BM_Crc32Eng", result.stderr)

    def test_decode_bench_alloc_gated_without_ops(self):
        # The record decode alone has no closed-form ops either: gated
        # for allocations, absent from the ops baseline.
        self.assertIn("BM_DecodeEventsEng", STEADY)
        self.assertNotIn("BM_DecodeEventsEng", PINNED)
        del self.bench("BM_DecodeEventsEng")["ops_frame"]
        baseline = self.write_baseline()
        self.assertNotIn("BM_DecodeEventsEng",
                         json.loads(baseline.read_text())["ops_per_frame"])
        result, _ = self.run_tool(
            "--fail-on-steady-allocs", f"--fail-on-ops-regression={baseline}")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.bench("BM_DecodeEventsEng")["allocs_frame"] = 0.02
        result, _ = self.run_tool("--fail-on-steady-allocs")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("BM_DecodeEventsEng", result.stderr)

    def test_portable_median_bench_alloc_gated_without_ops(self):
        # The median's portable kernel, run directly, charges no ops of
        # its own: gated for allocations, absent from the ops baseline.
        self.assertIn("BM_MedianFilterPortable", STEADY)
        self.assertNotIn("BM_MedianFilterPortable", PINNED)
        del self.bench("BM_MedianFilterPortable")["ops_frame"]
        baseline = self.write_baseline()
        self.assertNotIn("BM_MedianFilterPortable",
                         json.loads(baseline.read_text())["ops_per_frame"])
        result, _ = self.run_tool(
            "--fail-on-steady-allocs", f"--fail-on-ops-regression={baseline}")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.bench("BM_MedianFilterPortable")["allocs_frame"] = 0.02
        result, _ = self.run_tool("--fail-on-steady-allocs")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("BM_MedianFilterPortable", result.stderr)

    def test_kalman_filter_bench_alloc_gated_without_ops(self):
        # The filter step alone has no closed-form ops (the trackers'
        # metered ops model Eq. (7), not the filter): gated for
        # allocations, absent from the ops baseline.
        self.assertIn("BM_KalmanFilterStep", STEADY)
        self.assertNotIn("BM_KalmanFilterStep", PINNED)
        del self.bench("BM_KalmanFilterStep")["ops_frame"]
        baseline = self.write_baseline()
        self.assertNotIn("BM_KalmanFilterStep",
                         json.loads(baseline.read_text())["ops_per_frame"])
        result, _ = self.run_tool(
            "--fail-on-steady-allocs", f"--fail-on-ops-regression={baseline}")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.bench("BM_KalmanFilterStep")["allocs_frame"] = 0.02
        result, _ = self.run_tool("--fail-on-steady-allocs")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("BM_KalmanFilterStep", result.stderr)

    def test_stream_build_bench_gated_for_allocs_and_ops(self):
        # The EBBI build over raw stream windows (the node path) is gated
        # like the build over latched packets: allocation-free, and its
        # ops pinned — in the committed baseline at BM_EbbiBuild's value,
        # because both latch the same windows to the same pixels.
        self.assertIn("BM_EbbiBuildStream", STEADY)
        self.assertIn("BM_EbbiBuildStream", PINNED)
        baseline = self.write_baseline()
        self.bench("BM_EbbiBuildStream")["ops_frame"] *= 1.0 + 2 * TOLERANCE
        result, _ = self.run_tool(f"--fail-on-ops-regression={baseline}")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("BM_EbbiBuildStream", result.stderr)
        self.bench("BM_EbbiBuildStream")["allocs_frame"] = 0.01
        result, _ = self.run_tool("--fail-on-steady-allocs")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("BM_EbbiBuildStream", result.stderr)
        committed = json.loads(
            (TOOLS / "BENCH_ops_baseline.json").read_text())["ops_per_frame"]
        self.assertEqual(committed["BM_EbbiBuildStream"],
                         committed["BM_EbbiBuild"])

    def test_steady_alloc_counter_missing_fails(self):
        del self.bench(STEADY[0])["allocs_frame"]
        result, _ = self.run_tool("--fail-on-steady-allocs")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("no allocs_frame counter", result.stderr)

    def test_steady_bench_missing_from_run_fails(self):
        self.raw["benchmarks"] = [
            b for b in self.raw["benchmarks"] if b["name"] != STEADY[0]]
        result, _ = self.run_tool("--fail-on-steady-allocs")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("missing from output", result.stderr)

    def test_ops_within_tolerance_passes(self):
        baseline = self.write_baseline()
        self.bench(PINNED[0])["ops_frame"] *= 1.0 + TOLERANCE / 2
        result, _ = self.run_tool(f"--fail-on-ops-regression={baseline}")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_ops_drift_beyond_tolerance_fails(self):
        baseline = self.write_baseline()
        self.bench(PINNED[0])["ops_frame"] *= 1.0 + 2 * TOLERANCE
        result, _ = self.run_tool(f"--fail-on-ops-regression={baseline}")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("drifted", result.stderr)
        self.assertIn(PINNED[0], result.stderr)

    def test_pinned_stage_missing_from_baseline_fails(self):
        baseline = self.write_baseline()
        record = json.loads(baseline.read_text())
        del record["ops_per_frame"][PINNED[0]]
        baseline.write_text(json.dumps(record))
        result, _ = self.run_tool(f"--fail-on-ops-regression={baseline}")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("missing from the baseline", result.stderr)

    def test_stale_baseline_entry_fails(self):
        baseline = self.write_baseline()
        record = json.loads(baseline.read_text())
        record["ops_per_frame"]["BM_RemovedStage"] = 1.0
        baseline.write_text(json.dumps(record))
        result, _ = self.run_tool(f"--fail-on-ops-regression={baseline}")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("no longer in", result.stderr)

    def test_update_baseline_then_gate_roundtrips(self):
        baseline = self.write_baseline()
        record = json.loads(baseline.read_text())
        self.assertEqual(record["schema"], "ebbiot-bench-ops-baseline/1")
        self.assertEqual(set(record["ops_per_frame"]), set(PINNED))
        result, _ = self.run_tool(f"--fail-on-ops-regression={baseline}")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_update_baseline_without_counter_fails(self):
        del self.bench(PINNED[0])["ops_frame"]
        result, _ = self.run_tool(
            f"--update-ops-baseline={self.root / 'baseline.json'}")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("cannot baseline", result.stderr)

    def test_unknown_flag_fails(self):
        result, _ = self.run_tool("--no-such-flag")
        self.assertNotEqual(result.returncode, 0)

    def test_committed_baseline_matches_pinned_stages(self):
        # The real committed baseline must gate exactly the stages the
        # converter pins (catches the two drifting apart).
        committed = TOOLS / "BENCH_ops_baseline.json"
        if not committed.exists():
            self.skipTest("no committed BENCH_ops_baseline.json")
        record = json.loads(committed.read_text())
        self.assertEqual(record["schema"], "ebbiot-bench-ops-baseline/1")
        self.assertEqual(set(record["ops_per_frame"]), set(PINNED))


if __name__ == "__main__":
    unittest.main()
