"""Process environment of a benchmark run: thread pinning, the import path
of the checkout's own source tree, and the machine description recorded
with every result."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads():
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> bool:
    """Put the checkout's ``src`` first on the import path. False when the
    checkout holds no ``polymom`` package (nothing to benchmark)."""
    if not (SRC / "polymom" / "__init__.py").is_file():
        return False
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    return True


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def describe() -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu": _cpu_model(),
    }
