#!/usr/bin/env python3
"""Build and run one workload of the wall-clock benchmark.

    python3 perfbench/run.py --workload sim-zipf --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # each workload in turn

Run from the root of a source tree. The benchmark is compiled from source
into $CARGO_TARGET_DIR (default .bench_build) on first use; later runs only
re-check the build. The binary's report is echoed, followed by a stamp line
(commit, source digest, host, seed, scale) and, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones (see
perfbench/README.md). The full result, stamp included, is also written to
<build dir>/results/.

Exit status: 0 when every answer was right, 1 when the run finished but an
answer or an accounting identity was wrong (the JSON says "correct": false),
2 when the benchmark could not build or run (no JSON line).
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sim-zipf", "tcp-zipf", "sim-unique-write")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    out.mkdir(parents=True, exist_ok=True)
    cmake_dir = out / "perfbench"
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / "build.lock", "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (cmake_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs,
                      "--target", "perfbench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return cmake_dir / "perfbench"


def source_digest():
    """SHA-256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    """HEAD of the source tree, or "unknown" outside a git work tree of its
    own (an exported tree may sit inside some other repository)."""
    try:
        r = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = r.stdout.split()
    if r.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return "unknown"
    return out[1]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run, if present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in json.loads(spec.read_text())[key]]


def run_one(binary, workload, args):
    """Runs one workload in its own process; prints its report. Returns the
    exit status (0 correct, 1 wrong answers)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited with status {proc.returncode}")
    report = json.loads(lines[-1])

    names = list(report["metrics"])
    want = expected_metrics(args.trace)
    if want is not None and names != want:
        fail(f"metrics {names} do not match BENCHMARK.json {want}")

    stamp = {
        "commit": commit(),
        "source_digest": source_digest(),
        "host": {"nproc": os.cpu_count(), "cpu": cpu_model()},
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": {"seconds": args.seconds,
                  "objects": int(report["info"]["objects"]),
                  "peers": int(report["info"]["peers"]),
                  "r": int(report["info"]["r"])},
    }
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(
        json.dumps({"stamp": stamp, **report}, indent=2) + "\n")

    for line in lines[:-1]:
        print(line)
    print("stamp: " + json.dumps(stamp))
    print(json.dumps({k: report[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build(build_dir())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_one(binary, w, args) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
