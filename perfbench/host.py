"""The host block attached to every benchmark result.

Raw seconds from different boxes are not comparable, so every result says
what it ran on: usable cores, BLAS vendor/version/threads, numpy and Python
versions, and a dense-GEMM rate calibrated on the same box.  The rate is
taken only after warm-up: OpenBLAS ramps up over its first few large calls
(60 -> 110 GFLOP/s over the first five 2048^3 calls on a 2-core box).
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time

import numpy as np


def usable_cores() -> int:
    """Cores this process may run on (affinity mask, not the machine total)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _blas_runtime() -> dict:
    """OpenBLAS thread count and runtime core type, read from the loaded library.

    Returns ``{}`` when the BLAS is not an OpenBLAS build that exports the
    query functions; the host block then records the threads as unknown.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                return {"threads": int(threads()), "config": config().decode()}
    return {}


def gemm_gflops(n: int) -> float:
    """Median dense float64 GEMM rate of five ``n^3`` multiplies, after five warm-up calls."""
    rng = np.random.default_rng(0)
    a = rng.uniform(-1.0, 1.0, (n, n))
    b = rng.uniform(-1.0, 1.0, (n, n))
    c = np.empty((n, n))
    for _ in range(5):
        np.matmul(a, b, out=c)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        np.matmul(a, b, out=c)
        samples.append(time.perf_counter() - start)
    return 2.0 * n**3 / statistics.median(samples) / 1e9


def host_block(calibration_n: int, campaign_jobs: int) -> dict:
    """Everything a reader needs to compare this result with another box's."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = _blas_runtime()
    cores = usable_cores()
    return {
        "cores": cores,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": runtime.get("config", "unknown"),
        "blas_threads": runtime.get("threads", "unknown"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "gemm_gflops": gemm_gflops(calibration_n),
        "gemm_calibration_n": calibration_n,
        "campaign_jobs": campaign_jobs,
        # Campaigns run one worker per core; on a 1-core box they fall back
        # to jobs=1, which measures no parallelism and must not pass as if
        # it did.
        "campaign_jobs_fallback": cores < 2,
    }
