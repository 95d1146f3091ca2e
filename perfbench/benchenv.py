"""Process environment for the benchmark: thread pinning, the admles
source tree it measures, and the machine record printed with each result.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class MissingSourceError(RuntimeError):
    """The checkout holds no admles source tree to measure."""


def child_env() -> dict:
    """Environment for child interpreters: pinned threads, src on the path."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env.pop("ADM_THREADS", None)
    return env


def prepare() -> None:
    """Pin BLAS/OpenMP pools to one thread and import admles from SRC.

    Must run before numpy is imported.  Raises MissingSourceError when the
    source tree is absent, so the benchmark never measures some other
    installed copy.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ADM_THREADS", None)
    if not (SRC / "admles" / "__init__.py").is_file():
        raise MissingSourceError(f"no admles source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import admles

    if Path(admles.__file__).resolve().parent != SRC / "admles":
        raise MissingSourceError(
            f"imported admles from {admles.__file__}, not from {SRC}")


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = _read(index / "size")
    return out


def _fft_backend() -> str:
    import numpy.fft  # noqa: F401

    backends = [name for name in ("mkl_fft", "scipy.fft", "pyfftw")
                if name in sys.modules]
    if "numpy.fft._pocketfft" in sys.modules:
        backends.insert(0, "numpy pocketfft")
    return ", ".join(backends) or "unknown"


def record(seed: int, size: str) -> dict:
    """Machine, versions and settings that produced a result."""
    import numpy as np

    from admles import kernels

    caches = _caches()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_cache": caches.get("L2", "unknown"),
        "l3_cache": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": _fft_backend(),
        "has_numba": bool(kernels.HAS_NUMBA),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "size": size,
    }
