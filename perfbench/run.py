#!/usr/bin/env python3
"""End-to-end benchmark of the EBBIOT node and evaluation harness.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the repository's library and the benchmark program (CMake, Release)
into .bench_build/ under the checkout on first use, then runs one
workload.  The program's standard output is passed through; its last line
is the result object {"correct", "attempted", "failed", "metrics"}.  A
record with provenance, input properties and (traced runs) the span dump
is written to .bench_build/results/.

Extra options: --tiny (seconds-scale inputs), --perturb
<none|drop_window|alter_track> (self-test fault injection).  Run
perfbench/selftest.py to check the benchmark itself.
"""
import argparse
import fcntl
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("eng_ebbiot", "wide_ebms", "fleet_faults", "eval_fig4")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


# What the program under test is built from.
SOURCES = ("CMakeLists.txt", "src", "perfbench")


def source_hash():
    digest = hashlib.sha256()
    files = []
    for name in SOURCES:
        path = ROOT / name
        files += sorted(path.rglob("*")) if path.is_dir() else [path]
    for f in files:
        if f.is_file():
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def source_id():
    """The git commit, with '+dirty:<source hash>' when the sources differ
    from it; a hash of the sources where there is no repository."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--", *SOURCES],
                capture_output=True, text=True, timeout=10)
            if status.returncode == 0 and not status.stdout.strip():
                return "git:" + lines[1]
            return f"git:{lines[1]}+dirty:{source_hash()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return "sha256:" + source_hash()


def build(out_dir):
    """Configure once, then an incremental build; output goes to stderr."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out_dir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out_dir),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(out_dir), "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    return out_dir / "perfbench_node"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--perturb", default="none",
                        choices=("none", "drop_window", "alter_track"))
    args = parser.parse_args()

    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no EBBIOT sources next to {HERE.name}/ (expected {ROOT}/src)")
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    results = build_dir().parent / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--perturb", args.perturb, "--results-dir", str(results),
           "--source-id", source_id()]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
