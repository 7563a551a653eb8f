#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim_sweeps --seed 1 --seconds 20 --trace 0

Builds perfbench/ (the AAWS libraries from src/ plus the benchmark
binary) in Release mode under .bench_build/ (or $CARGO_TARGET_DIR), then
runs the binary.  Everything it prints goes to standard output; the last
line is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics.

setup_s is the median over five fresh processes: four that only set up
and the measuring run itself.  See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["sim_sweeps", "native_deque", "native_chan"]
EXTRA_SETUP_SAMPLES = 4
BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def build(bdir, env):
    """Configure (once) and build the benchmark binary; returns its path."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)]]
        if not (bdir / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(HERE), "-B", str(bdir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.insert(0, configure)
        for cmd in steps:
            subprocess.run(cmd, check=True, stdout=sys.stderr, env=env,
                           timeout=max(1.0, deadline - time.monotonic()))
    return bdir / "perfbench"


def commit_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def run_binary(cmd, env, deadline):
    """Run the benchmark binary; returns its stdout lines or raises."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("time budget exhausted before the run")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, env=env, timeout=remaining)
    if out.returncode != 0:
        raise RuntimeError(f"benchmark exited with code {out.returncode}")
    lines = out.stdout.splitlines()
    if not lines:
        raise RuntimeError("benchmark binary printed nothing")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    bdir = build_root()
    env = dict(os.environ)
    env["TMPDIR"] = str(bdir / "tmp")
    (bdir / "tmp").mkdir(parents=True, exist_ok=True)
    exe = build(bdir, env)

    deadline = time.monotonic() + RUN_DEADLINE_S
    work = bdir / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--commit", commit_id()]
    try:
        setup_samples = []
        if args.trace == 0:
            for _ in range(EXTRA_SETUP_SAMPLES):
                last = run_binary(cmd + ["--setup-only"], env, deadline)[-1]
                setup_samples.append(json.loads(last)["setup_s"])
        lines = run_binary(cmd, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"malformed benchmark result: {lines[-1]}")
    if args.trace == 0:
        setup = result["metrics"]["setup_s"]
        setup_samples.append(setup["value"])
        setup["value"] = statistics.median(setup_samples)
        lines.insert(-1, "perfbench-info " + json.dumps(
            {"setup_s.samples": setup_samples}))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        log(str(err))
        sys.exit(1)
