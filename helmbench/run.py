"""Run one helmlayer benchmark workload and print its metrics as JSON.

    python3 helmbench/run.py --workload c1_mc --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's src/ directory, never from an installed copy. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics for --trace 0, the per-layer
metrics for --trace 1. Failed output checks are listed on standard error.
Exits with code 2 when the checkout has no helmlayer sources.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("c1_mc", "sweep_ref", "layer_stats")
SETUP_PROBES = 9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameters and the values the benchmark sets
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's largest on 64-bit
TRIM_THRESHOLD_BYTES = 1 << 30


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import the package and build the workload (timed by the parent)")
    return p.parse_args(argv)


def load_workloads():
    """Import the workload module against the checkout's own package sources."""
    if not (SRC / "helmlayer" / "__init__.py").is_file():
        print(f"helmbench: no helmlayer sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    # one BLAS thread per worker, so c1_mc's two workers use no more threads than cores
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads  # noqa: E402 (needs the paths above)

    return workloads


def keep_freed_memory() -> bool:
    """Have glibc keep freed memory in the process for the next request.

    With glibc's defaults, blocks of 128 KiB and more are unmapped when freed
    and the top of the heap is returned to the kernel, so every request pays
    again for the page faults of its fresh memory, whose cost on a virtual
    machine depends on what the host is doing. Blocks above
    32 MiB are still mapped and unmapped per request. Returns False where the
    C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES))


def child_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(args: argparse.Namespace) -> float:
    """Median CPU time of fresh processes that import the package and build the inputs.

    CPU rather than wall time: on a shared virtual machine the wall time of
    the same set-up swings with the CPU time other guests steal.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        before = child_cpu_seconds()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL, timeout=120)
        times.append(child_cpu_seconds() - before)
    return statistics.median(times)


def cache_bytes(level: int) -> int | None:
    """Size of the CPU's level-`level` cache as the C library reports it."""
    try:
        proc = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    value = proc.stdout.strip()
    return int(value) if value.isdigit() else None


def environment(kept_freed_memory: bool) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "l2_cache_bytes": cache_bytes(2),
        "l3_cache_bytes": cache_bytes(3),
        "malloc_keeps_freed_memory": kept_freed_memory,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    kept = keep_freed_memory()
    workloads = load_workloads()
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed)
        return 0
    setup_s = None if args.trace else setup_seconds(args)
    workload = cls(args.seed)
    import harness

    out = harness.measure(workload, args.seconds, trace=bool(args.trace))
    attempted, problems = workloads.check_reference(cls)
    out.attempted += attempted
    out.failed += len(problems)
    out.problems += problems
    if args.trace:
        metrics = harness.per_layer(out, workload.threads)
    else:
        metrics = harness.end_to_end(out, setup_s)
    for problem in dict.fromkeys(out.problems):
        print(f"helmbench: check failed: {problem}", file=sys.stderr)
    print("environment " + json.dumps(environment(kept), sort_keys=True))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
