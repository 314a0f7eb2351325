"""Helpers shared by the workloads: paths, child environment, statistics."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# BLAS runs single-threaded: on a small shared machine its spinning worker
# threads make wall times depend on whatever else holds the cores.
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# Fresh interpreters timed per set-up measurement, after one untimed warm-up
# that also writes the bytecode caches of a new checkout.
SETUP_SAMPLES = 3


def child_env() -> dict:
    """Environment for every child interpreter: the checkout's sources first."""
    return {**os.environ, "PYTHONPATH": SRC, **BLAS_ENV}


def pin_blas_threads() -> None:
    """Pin BLAS threads for this process; must run before numpy is imported."""
    os.environ.update(BLAS_ENV)


def derive_seed(*key: int) -> int:
    """A 31-bit seed derived from the workload seed and a path of integers."""
    import numpy as np

    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1)[0] >> 1)


def run_child(argv, stdout_path: str, timeout: float) -> tuple[int, float, float]:
    """Run a child to completion; return (exit code, wall seconds, peak RSS MB).

    The child is reaped with ``wait4`` so its own resource usage is read,
    and killed if it outlives ``timeout``.
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, cwd=ROOT, env=child_env())
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def fresh_import_seconds(code: str, samples: int = SETUP_SAMPLES) -> list[float]:
    """Seconds that ``code`` reports, each from a fresh interpreter.

    ``code`` prints the seconds it measured on its last line. One warm-up
    run precedes the timed ones.
    """
    values = []
    for i in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=ROOT, env=child_env(), timeout=60, check=True,
        )
        if i:
            values.append(float(proc.stdout.strip().splitlines()[-1]))
    return values


def tail_order_stat(values) -> tuple[float, int]:
    """The highest order statistic with at least ten samples beyond it.

    Returns (value, percentile) where percentile is the share of samples
    at or below it, rounded down. With ten or fewer samples it returns the
    maximum and 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    return ordered[n - 11], math.floor(100 * (n - 10) / n)


def median(values) -> float:
    return float(statistics.median(values))
