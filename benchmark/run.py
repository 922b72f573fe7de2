#!/usr/bin/env python3
"""Runs the end-to-end benchmark (see benchmark/README.md).

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Builds benchmark/ (and with it the library, from this checkout's sources)
on first use, then runs each selected workload in its own fmnet_bench
process with FMNET_THREADS = min(4, nproc) pool lanes. Without --workload
every workload in BENCHMARK.json runs in turn.

For each workload it prints every metric as `name value unit`, writes the
full record to <build>/results/, and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones. Exits
non-zero if any correctness gate fails.

Everything the run leaves behind goes under the build directory:
$CARGO_TARGET_DIR if set, else .bench_build at the repository root.
Python standard library only.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINNED_SEED = 42
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out):
    """Configures (once) and builds fmnet_bench; returns the binary path."""
    cmake_dir = out / "cmake"
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(out / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (cmake_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(cmake_dir), "--target",
                      "fmnet_bench", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log_path})", 1)
    return cmake_dir / "fmnet_bench"


def run_workload(binary, spec, workload, args, out):
    lanes = min(4, os.cpu_count() or 1)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scenarios", str(BENCH_DIR / "scenarios"),
           "--work-dir", str(out / "work" / workload)]
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    if workload.startswith("table1") and args.seed == PINNED_SEED:
        cmd += ["--expect-table", expected["table1_hash_seed42"]]
    env = dict(os.environ, FMNET_THREADS=str(lanes))
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: fmnet_bench exited {proc.returncode} without a "
             "result", 1)
    record = json.loads(lines[-1])

    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    if sorted(record["metrics"]) != sorted(names):
        fail(f"{workload}: metrics {sorted(record['metrics'])} do not match "
             f"BENCHMARK.json {kind} {sorted(names)}", 1)

    for name in names:
        m = record["metrics"][name]
        print(f"{name} {m['value']!r} {m['unit']}")
    for key, value in sorted(record["notes"].items()):
        print(f"# {key} {value}")

    record.update(workload=workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, lanes=lanes, nproc=os.cpu_count())
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    name = f"{workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    correct = record["correct"] and proc.returncode == 0
    summary = {"correct": correct, "attempted": record["attempted"],
               "failed": record["failed"],
               "metrics": {n: record["metrics"][n] for n in names}}
    print(json.dumps(summary))
    return correct


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # The library under test is built from this checkout; without it there
    # is nothing to measure.
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no FMNet sources at {ROOT} (need CMakeLists.txt and src/)")

    out = build_dir()
    binary = build(out)
    ok = True
    for workload in [args.workload] if args.workload else workloads:
        ok = run_workload(binary, spec, workload, args, out) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
