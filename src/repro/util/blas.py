"""Thread count of the OpenBLAS libraries loaded into this process.

numpy's bundled OpenBLAS runs each matrix product on as many threads as
it sees cores.  A pool of N workers on N cores already keeps every core
busy, so those helper threads only contend with the other workers: the
fan-out caps each worker at its share of the cores
(:func:`repro.experiments.common._worker_init`).  The libraries are found
by their mapped file names in ``/proc/self/maps``, so nothing happens
where that file or an OpenBLAS is absent.
"""

from __future__ import annotations

import ctypes
import os
from collections.abc import Iterator


def _openblas_libraries() -> Iterator[tuple[ctypes._CFuncPtr, ctypes._CFuncPtr]]:
    """The ``(get, set)`` thread-count functions of each mapped OpenBLAS.

    Yields:
        One pair per library that exports both (the symbols are prefixed
        ``scipy_`` and suffixed ``64_`` in numpy's wheels).
    """
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return
    paths = sorted({
        f[5].strip() for f in fields
        if len(f) == 6 and "openblas" in f[5].rsplit("/", 1)[-1].lower()
        and ".so" in f[5]
    })
    affixes = [(prefix, suffix)
               for prefix in ("scipy_", "") for suffix in ("64_", "")]
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # the already-loaded library's handle
        except OSError:  # e.g. a mapping whose file was replaced
            continue
        for prefix, suffix in affixes:
            get = f"{prefix}openblas_get_num_threads{suffix}"
            set_ = f"{prefix}openblas_set_num_threads{suffix}"
            if hasattr(lib, get) and hasattr(lib, set_):
                get_fn, set_fn = getattr(lib, get), getattr(lib, set_)
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                yield get_fn, set_fn
                break


def usable_cores() -> int:
    """The cores this process may run on (its affinity mask, if known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def set_blas_threads(count: int) -> None:
    """Run every loaded OpenBLAS on ``count`` threads (>= 1)."""
    for _, set_fn in _openblas_libraries():
        set_fn(count)


def cap_blas_threads(count: int) -> None:
    """Lower every loaded OpenBLAS to at most ``count`` threads (>= 1).

    A library already on fewer threads (``OPENBLAS_NUM_THREADS=1``, a
    smaller affinity mask) keeps its count: growing its pool would only
    add contention.
    """
    for get_fn, set_fn in _openblas_libraries():
        current = get_fn()
        if count < current:
            set_fn(count)


def blas_threads() -> list[int]:
    """The thread count of each loaded OpenBLAS (empty when none is)."""
    return [get_fn() for get_fn, _ in _openblas_libraries()]
