#!/usr/bin/env python3
"""Entry point of the repo benchmark (the "command" of BENCHMARK.json).

    python3 perfbench/run.py --workload search|commons|serve --seed N \
        --seconds S --trace 0|1 [--reference-seed N]

Run it from the root of a checkout. It builds the project's libraries and
the benchmark runner from source with CMake (into $CARGO_TARGET_DIR, or
.bench_build), runs the runner's arithmetic self-test, runs one workload,
checks that the runner reported exactly the metrics BENCHMARK.json names
for the mode (end-to-end with --trace 0, per-layer with --trace 1), and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Build output and diagnostics go to stderr. Any failure to build or run
exits non-zero without printing a result.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
# Environment knobs of the program that would change what is measured.
SCRUBBED_ENV = ("A4NN_TUNE", "A4NN_INTRA_OP_THREADS", "A4NN_TRACE",
                "A4NN_CRASH_AFTER_WRITES", "A4NN_LOG_LEVEL")


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def build(out):
    """Configure (once) and build the runner and its self-test."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no project sources under {ROOT / 'src'}")
    cache = out / "CMakeCache.txt"
    if not cache.is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                    "perfbench_runner", "perfbench_stats_test"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, expected):
    """The runner must report exactly the declared metrics, with units."""
    metrics = result.get("metrics", {})
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing or extra:
        raise RuntimeError(f"metric set differs: missing {missing}, "
                           f"undeclared {extra}")
    for name, unit in expected.items():
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit:
            raise RuntimeError(f"{name}: unit {metrics[name].get('unit')!r}, "
                               f"declared {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError(f"{name}: value {value!r} is not a number")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            raise RuntimeError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise RuntimeError("no operation attempted")


def terminate(signum, _frame):
    # Unwind like an exception: subprocess.run kills and reaps the child it
    # is waiting on, and the scratch directory is removed on the way out.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("search", "commons", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference-seed", type=int, default=2023,
                        help="NAS seed of the reference searches; the "
                             "held-out check uses 7")
    args = parser.parse_args()

    out = build_dir()
    tmp = out.parent / "perfbench-tmp" / str(os.getpid())
    try:
        build(out)
        subprocess.run([str(out / "perfbench_stats_test")], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
        env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        proc = subprocess.run(
            [str(out / "perfbench_runner"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--tmp", str(tmp),
             "--reference-seed", str(args.reference_seed)],
            env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S, check=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError("runner printed no result")
        result = json.loads(lines[-1])
        validate(result, expected_metrics(args.trace))
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("error:", e)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in result.get("problems", []):
        log("output check failed:", problem)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
