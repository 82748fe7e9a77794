"""The BLAS pin: finding the libraries, nesting, several holders at once, and the caller's count restored."""

from __future__ import annotations

import mmap
import os
import sys
import threading

import pytest
from _helpers import blas_threads, caller_blas_threads

from passby import threads
from passby.threads import one_blas_thread

HOLDERS = 8  # more threads than the host's cores
ROUNDS = 50


def test_pins_held_from_many_threads_keep_one_thread_and_restore_the_count():
    errors = []
    start = threading.Barrier(HOLDERS)

    def hold() -> None:
        try:
            start.wait(timeout=10)
            for _ in range(ROUNDS):
                with one_blas_thread():
                    with one_blas_thread():  # nested
                        pass
                    counts = blas_threads()
                    if counts != [1] * len(counts):
                        errors.append(counts)
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the holders as often as the interpreter can
    try:
        with caller_blas_threads(2):
            workers = [threading.Thread(target=hold) for _ in range(HOLDERS)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
            assert errors == []
            assert blas_threads() == [2] * len(blas_threads())
    finally:
        sys.setswitchinterval(interval)


def test_a_library_path_with_spaces_is_read_whole_and_one_that_cannot_be_opened_is_left_out(tmp_path):
    loaded = threads._openblas()
    if not loaded:
        pytest.skip("no OpenBLAS is loaded")
    real = next(iter(loaded))
    spaced = tmp_path / "my proj" / "libscipy_openblas64_.so"  # a venv under a directory with a space
    spaced.parent.mkdir()
    spaced.symlink_to(real)  # the same file, so the same loaded library
    gone = tmp_path / "gone" / "libopenblas.so"
    maps = (
        f"7f0000000000-7f0000001000 r-xp 00000000 08:01 1001                     {spaced}\n"
        f"7f0000001000-7f0000002000 r-xp 00000000 08:01 1002                     {real} (deleted)\n"
        f"7f0000002000-7f0000003000 r-xp 00000000 08:01 1003                     {gone}\n"
        "7f0000003000-7f0000004000 rw-p 00000000 00:00 0 \n"
    )
    found = threads._openblas(maps)
    assert list(found) == [str(spaced)]
    assert found[str(spaced)][0]() == loaded[real][0]()


def test_a_pin_that_finds_no_openblas_says_so(monkeypatch):
    with one_blas_thread() as pinned:
        assert pinned == bool(threads._openblas())
    monkeypatch.setattr(threads, "_openblas", lambda: {})
    with one_blas_thread() as pinned:
        assert not pinned


def test_without_a_readable_maps_file_no_library_is_found_and_nothing_is_pinned(monkeypatch):
    def unreadable(path):
        raise PermissionError(f"cannot read {path}")

    monkeypatch.setattr(threads.Path, "read_bytes", unreadable)
    assert threads._openblas() == {}
    with one_blas_thread() as pinned:
        assert not pinned


def test_a_pin_reads_the_maps_while_a_file_under_a_non_utf8_directory_is_mapped(tmp_path):
    folder = tmp_path / os.fsdecode(b"caf\xe9")  # Latin-1 bytes, not UTF-8
    folder.mkdir()
    (folder / "mapped.bin").write_bytes(bytes(4096))
    with caller_blas_threads(2):
        with open(folder / "mapped.bin", "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ):
            with one_blas_thread() as pinned:
                assert pinned
                assert blas_threads() == [1] * len(blas_threads())
            assert blas_threads() == [2] * len(blas_threads())


def test_a_pin_that_fails_to_find_the_libraries_changes_nothing(monkeypatch):
    real, failed = threads._openblas, []

    def fail_once():
        if not failed:
            failed.append(True)
            raise RuntimeError("no maps")
        return real()

    with caller_blas_threads(2):
        monkeypatch.setattr(threads, "_openblas", fail_once)
        with pytest.raises(RuntimeError, match="no maps"):
            with one_blas_thread():
                pass
        assert threads._holders == 0
        with one_blas_thread():
            assert blas_threads() == [1] * len(blas_threads())
        assert blas_threads() == [2] * len(blas_threads())
