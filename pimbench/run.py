#!/usr/bin/env python3
"""Build the PyPIM benchmark from source and run one workload.

Usage (from the repository root):

    python3 pimbench/run.py --workload fig12_dense --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload named in BENCHMARK.json in turn and
ends with one combined result line.

The first call configures and builds the library and the benchmark
program (Release) under .bench_build/pimbench; later calls only re-check
the build. Build output goes to .bench_build/pimbench/build.log and is
shown on stderr when the build fails. All arguments are passed to the
benchmark program, whose last stdout line is the JSON result; the exit
code is the program's (non-zero on a build failure, a wrong output or an
architectural-count difference). Records, per-layer tables and Chrome
trace files are written to .bench_build/results.
"""
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "pimbench"
RESULTS = ROOT / ".bench_build" / "results"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    steps.append(["cmake", "--build", str(BUILD), "--target", "pimbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   timeout=max(1, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as e:
                print(f"pimbench build: {e}", file=sys.stderr)
                return False
            if r.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                print(f"pimbench build failed: {' '.join(cmd)}",
                      file=sys.stderr)
                return False
    return True


def source_hash():
    """Digest of every library and benchmark source: runs built from the
    same sources must report identical architectural counts."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) if d.is_dir()
                   for p in d.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_one(args):
    cmd = [str(BUILD / "pimbench"), *args,
           "--commit", git_commit(), "--source-hash", source_hash(),
           "--out", str(RESULTS)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                           stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"pimbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3, None
    sys.stdout.write(r.stdout)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return r.returncode, result


def run_all(args):
    """--workload all: every workload of BENCHMARK.json in turn, then
    one combined result line with metrics named workload.metric."""
    i = args.index("--workload")
    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        print(f"== {name}", flush=True)
        code, result = run_one(args[:i + 1] + [name] + args[i + 2:])
        status = status or code
        if result is None:
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return status


def main():
    if not build():
        return 2
    args = sys.argv[1:]
    if "--workload" in args[:-1] and \
            args[args.index("--workload") + 1] == "all":
        return run_all(args)
    return run_one(args)[0]


if __name__ == "__main__":
    sys.exit(main())
