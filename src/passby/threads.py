"""The threads a run uses: synthesis takes one worker per CPU, the distance tiles two, BLAS one.

OpenBLAS starts a thread per CPU and splits each product among them, so its
bits follow the thread count.  `one_blas_thread` holds every OpenBLAS the
process has loaded (numpy's copy and scipy's) at one thread.  It finds
them in /proc/self/maps, so off Linux it holds none; other BLAS builds are
left as they are too.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

# (getter, setter) of the thread count: the builds the numpy and scipy wheels
# ship (64-bit and 32-bit integers), then a plain OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# a library's thread count belongs to the whole process, and so do the pins
_lock = threading.Lock()
_holders = 0  # pins held now, by any thread
# each pinned library's thread count before the pin, with its setter
_saved: dict[str, tuple[int, Callable[[int], None]]] = {}


def available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def one_blas_thread() -> Iterator[bool]:
    """Hold every loaded OpenBLAS at one thread; give each its count back when the last pin ends.

    Yields whether any OpenBLAS is held, by this pin or another.  Pins nest,
    and several threads may hold one at once.  Entering a pin also pins the
    copies loaded since an outer pin began.  A pin that fails to find the
    libraries raises before it counts itself, so it changes nothing.
    """
    global _holders
    with _lock:
        found = _openblas()
        _holders += 1
        for path, (get, set_count) in found.items():
            if path not in _saved:
                _saved[path] = (get(), set_count)
                set_count(1)
        pinned = bool(_saved)
    try:
        yield pinned
    finally:
        with _lock:
            _holders -= 1
            if not _holders:
                for count, set_count in _saved.values():
                    set_count(count)
                _saved.clear()


def _openblas(maps: str | None = None) -> dict[str, tuple[Callable[[], int], Callable[[int], None]]]:
    """The thread-count getter and setter of each OpenBLAS this process has loaded.

    The libraries are found in `maps`, the text of /proc/self/maps, read here
    when not given, as bytes decoded as file names are, so that a path that is
    not UTF-8 round-trips into `ctypes.CDLL`.  A copy that cannot be opened by
    its path (its file was removed or replaced) is left out, and so stays as
    it is.
    """
    if maps is None:
        try:
            maps = os.fsdecode(Path("/proc/self/maps").read_bytes())
        except OSError:  # no /proc: nothing is found, nothing is pinned
            return {}
    import ctypes  # here, so that importing passby does not pay for it

    # address, permissions, offset, device, inode, then the path, which may hold spaces
    paths = {f[5] for f in (line.split(maxsplit=5) for line in maps.splitlines()) if len(f) == 6}
    found = {}
    for path in sorted(p for p in paths if "openblas" in p and ".so" in p):
        try:
            lib = ctypes.CDLL(path)  # the loaded library itself: its handle, not a second copy
        except OSError:  # e.g. a mapping of a removed file, shown as "<path> (deleted)"
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_count = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_count is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_count.argtypes, set_count.restype = [ctypes.c_int], None
                found[path] = (get, set_count)
                break
    return found
