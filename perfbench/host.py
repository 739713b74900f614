"""Host facts recorded with every result, and BLAS thread pinning.

:func:`pin_blas_threads` must run before numpy is first imported: the
BLAS libraries read their thread-count variables once, at load time.
"""

from __future__ import annotations

import ctypes
import glob
import os
import pathlib
import platform
import sys
from typing import Any, Dict, Optional

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Cap every BLAS thread-count variable at the usable core count."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin BLAS threads before numpy is imported")
    cores = usable_cores()
    for variable in _THREAD_VARIABLES:
        requested = os.environ.get(variable, "")
        threads = int(requested) if requested.isdigit() else cores
        os.environ[variable] = str(max(1, min(threads, cores)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _blas_threads_in_effect() -> Optional[int]:
    """Ask the OpenBLAS bundled with numpy how many threads it uses."""
    import numpy as np

    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root: pathlib.Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git;
    ``None`` in a plain source tree."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts(root: pathlib.Path) -> Dict[str, Any]:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": usable_cores(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads_in_effect(),
        "git_commit": git_commit(root),
    }
