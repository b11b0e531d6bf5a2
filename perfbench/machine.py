"""What the machine looked like during a run.

Recorded beside every result so that a slow machine can be told apart from
a slow program. ``calibration_ms`` times a fixed pure-Python loop; it is a
diagnostic, never a metric.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def calibration_ms(iterations: int = 1_500_000) -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i & 7
    return (time.perf_counter() - t0) * 1e3


def _blas() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    # The wheel's bundled OpenBLAS is already loaded; asking it directly
    # gives the thread count in effect.
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None
    when the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def record(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {v: os.environ.get(v) for v in _THREAD_VARS},
        "git_sha": git_sha(root),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }
