"""The host record printed with every result, BLAS thread pinning, and the
reaping of child processes before the launcher exits."""

from __future__ import annotations

import multiprocessing
import os
import platform
import sys
from typing import Dict

__all__ = [
    "BLAS_THREAD_VARS",
    "pin_blas_threads",
    "host_record",
    "cpu_count",
    "stop_child_processes",
]

#: Environment variables the common BLAS builds read their thread count from.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def cpu_count() -> int:
    """CPUs this process may run on (``nproc``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_blas_threads(threads: int) -> None:
    """Pin BLAS to ``threads`` threads; must run before NumPy is imported.

    Worker processes inherit the environment, so they are pinned too.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads must run before numpy is imported")
    for name in BLAS_THREAD_VARS:
        os.environ[name] = str(int(threads))


def _blas_vendor() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except Exception:  # older NumPy without mode="dicts"; vendor unknown
        return "unknown"


def host_record() -> Dict[str, object]:
    """nproc, Python/NumPy versions, BLAS vendor/threads, start method."""
    import numpy as np

    from repro.serving import resolve_start_method

    return {
        "nproc": cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_vendor(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "start_method": resolve_start_method(None),
    }


def stop_child_processes(grace: float = 5.0) -> None:
    """Stop every child process this process started and wait for each.

    A closed process-tier service has joined its workers already; workers
    of a service a failed run never closed are terminated here.  The first
    shared-memory segment also started ``multiprocessing``'s resource
    tracker, which would otherwise outlive this process until it noticed
    the exit; closing its pipe stops it, and it is waited for.  Call this
    after every service is closed: unlinking a segment later would start
    a new tracker.
    """
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace)
        if child.is_alive():
            child.kill()
            child.join(grace)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
