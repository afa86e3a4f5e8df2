"""Benchmark of the normgd studies, end to end and per layer.

Run from the root of a checkout:

  python3 bench/run.py --workload glm-strong-slope --seed 0 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics (study_s, steps_per_s, setup_s,
peak_rss_mb); --trace 1 prints the per-layer metrics instead. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it records the machine. --workload all runs every
workload and prints one such pair of lines per workload. --json PATH also
writes every result, with the machine facts, to PATH.

The package is imported from src/ of the checkout, never from an installed
copy; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170.0
# Every workload process runs numpy single-threaded, so that timings do not
# depend on how many cores the BLAS library decides to use.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def worker_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def worker(*args, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *map(str, args)],
        env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
        check=True,
    )


def measure_setup(name: str, seed: int, scale: str, probes: int) -> tuple[float, float]:
    """Time of a fresh interpreter that imports normgd and draws the
    workload's master datasets, after one untimed probe that warms the file
    caches. Returns the median over the probes on the speed clock (each
    probe's wall time scaled by the clock's kernel, timed as the probe ends)
    and the median bare wall time."""
    scaled, bare = [], []
    for _ in range(probes + 1):
        started = time.perf_counter()
        out = worker("setup", name, seed, scale, timeout=60.0)
        cal = json.loads(out.stdout.strip().splitlines()[-1])
        wall_s = time.perf_counter() - started - cal["spent_s"]
        scaled.append(wall_s * cal["scale"])
        bare.append(wall_s)
    return statistics.median(scaled[1:]), statistics.median(bare[1:])


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 scale: str) -> tuple[dict, dict]:
    """Set-up probes, then one workload process; returns (machine facts, result)."""
    workdir = BENCH_DIR / f".work-{os.getpid()}"
    started = time.perf_counter()
    try:
        setup_s, setup_wall_s = measure_setup(name, seed, scale,
                                              SETUP_PROBES if scale == "full" else 1)
        left = WORKER_TIMEOUT_S - (time.perf_counter() - started)
        out = worker("run", name, seed, seconds, int(trace), scale, workdir, timeout=left)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if trace:
        result["metrics"]["setup_wall_s"] = {"value": setup_wall_s, "unit": "s"}
    else:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    for problem in result["problems"]:
        print(f"bench: {name}: check failed: {problem}", file=sys.stderr)
    return result["machine"], {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long configuration for the smoke test")
    parser.add_argument("--json", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "normgd" / "__init__.py").is_file():
        print(f"bench: no normgd package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    scale = "tiny" if args.tiny else "full"
    record = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "scale": scale,
              "blas_env": BLAS_ENV, "results": {}}
    for name in names:
        facts, result = run_workload(name, args.seed, args.seconds, bool(args.trace), scale)
        record["machine"] = facts
        record["results"][name] = result
        print(json.dumps({"workload": name, "machine": facts, "blas_env": BLAS_ENV}))
        print(json.dumps(result), flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
