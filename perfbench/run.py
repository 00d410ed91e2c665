#!/usr/bin/env python3
"""Build and run the end-to-end engine benchmark.

    python3 perfbench/run.py --workload tc1-full --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library from
src/) under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later calls only re-check the build. Build output goes to stderr. stdout
carries the run record line and, last, the result object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is the benchmark's: 0 when every served model matched the
producer's weights, non-zero on any failure (no result is printed when the
build itself fails).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base / "perfbench").resolve()


def build(out: Path) -> Path:
    """Configure (once) and build; returns the benchmark binary."""
    if not (out / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", BUILD_JOBS, "--target", "perfbench_engine"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench_engine"


def source_id() -> str:
    """The commit when run inside a git checkout, else a hash of src/."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                  capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    workdir = out / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir), "--source-id", source_id()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("perfbench: benchmark printed no result", file=sys.stderr)
        sys.stderr.write(proc.stdout)
        return proc.returncode or 1
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
