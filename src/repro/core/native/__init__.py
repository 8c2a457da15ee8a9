"""Native C kernels for the integer lossless stages, loaded with ``ctypes``.

``pfpl_kernels.c`` implements stage L3 (zero-byte elimination and its
inverse) and stage L2 (bit shuffle and its inverse) row-wise over the
chunk-major matrices of :mod:`repro.core.lossless`.  The stage functions
there call :func:`kernels` and fall back to their NumPy implementations
when it returns ``None``; both paths produce the same bytes.

Build and cache.  On first use the source is compiled by the system C
compiler (``cc``, else ``gcc``) with :data:`FLAGS` -- no fast-math and no
FMA contraction, so the build cannot change arithmetic even once float
stages move here.  The shared object is cached under
``$XDG_CACHE_HOME/pfpl`` (default ``~/.cache/pfpl``), falling back to
``<tempdir>/pfpl-<uid>``, in a file named by a hash of the source, the
flags, the machine architecture and the compiler's ``--version`` output.
It is written to a temporary file and moved into place with
:func:`os.replace`, so processes building at the same time all end with
a complete library.  A cache directory is used only if it is private:
a real directory (not a symlink) owned by this user and not writable by
group or others, and the same holds for the library file in it.  The
temp-dir name is predictable, so without this check another local user
could plant a library there for this process to load.

Fallback.  NumPy stays the portable path: it runs when no compiler is
found, when the build or the load fails (logged once, with the reason),
or when the environment sets ``PFPL_NATIVE=0``.  :func:`status` reports
which path is active and why.

The kernels keep no state and write only into buffers passed in, and
``ctypes.CDLL`` releases the GIL around every call, so backend threads
run them in parallel.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
from collections.abc import Callable
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np
import numpy.typing as npt

from ...errors import PFPLIntegrityError
from ...log import get_logger
from ..scratch import scratch

__all__ = ["FLAGS", "Kernels", "kernels", "status"]

log = get_logger("native")

#: Compiler flags of the kernel build.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-std=c99")

SOURCE = Path(__file__).with_name("pfpl_kernels.c")

_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p
_int = ctypes.c_int

#: (symbol, restype, argtypes) of every exported kernel entry point.
_SIGNATURES: tuple[tuple[str, Any, tuple[Any, ...]], ...] = (
    ("pfpl_zero_elim_bound", _i64, (_i64, _int)),
    ("pfpl_zero_elim_scratch", _i64, (_i64, _int)),
    ("pfpl_zero_restore_scratch", _i64, (_i64, _int)),
    ("zero_elim_rows", None, (_ptr, _i64, _i64, _int, _ptr, _i64, _ptr, _ptr)),
    ("zero_restore_rows", _i64,
     (_ptr, _i64, _ptr, _ptr, _i64, _i64, _int, _ptr, _ptr, _ptr)),
    ("bitshuffle_rows", None, (_ptr, _i64, _i64, _int, _ptr)),
    ("bitunshuffle_rows", None, (_ptr, _i64, _i64, _int, _ptr)),
)

_FAILURES = {
    1: "lies outside the payload",
    2: "is truncated: its bitmaps claim more bytes than its size-table extent",
    3: "has unexpected trailing bytes after its last segment",
}


class Kernels:
    """Typed wrappers over the loaded library.

    Every wrapper validates dtype, shape and contiguity before it hands
    a pointer to C, and keeps each array referenced for the call.
    """

    def __init__(self, lib: ctypes.CDLL):
        for name, restype, argtypes in _SIGNATURES:
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
        self._lib = lib

    def zero_elim_rows(self, data: np.ndarray, levels: int) -> list[bytes]:
        """Stage-L3 blob of every row of the ``(rows, n)`` uint8 matrix."""
        data = np.ascontiguousarray(data, dtype=np.uint8)
        rows, n = data.shape
        lib = self._lib
        stride = lib.pfpl_zero_elim_bound(n, levels)
        out = scratch("native.blobs", (rows, stride), np.uint8)
        work = scratch("native.elim", lib.pfpl_zero_elim_scratch(n, levels), np.uint8)
        sizes = np.empty(rows, dtype=np.int64)
        lib.zero_elim_rows(data.ctypes.data, rows, n, levels, out.ctypes.data,
                           stride, sizes.ctypes.data, work.ctypes.data)
        return [out[r, :size].tobytes() for r, size in enumerate(sizes.tolist())]

    def zero_restore_rows(
        self, stream: npt.ArrayLike, starts: npt.ArrayLike, sizes: npt.ArrayLike,
        n: int, levels: int,
    ) -> np.ndarray:
        """Restore each blob ``stream[starts[r]:starts[r] + sizes[r]]`` to
        ``n`` bytes; returns the ``(rows, n)`` uint8 matrix.

        Raises :class:`~repro.errors.PFPLIntegrityError` for the first
        blob whose extent or segments do not fit, before any byte
        outside the stream is read.
        """
        buf = np.ascontiguousarray(stream, dtype=np.uint8).reshape(-1)
        lo = np.ascontiguousarray(starts, dtype=np.int64).reshape(-1)
        size = np.ascontiguousarray(sizes, dtype=np.int64).reshape(-1)
        if lo.size != size.size:
            raise PFPLIntegrityError(f"{lo.size} blob starts but {size.size} sizes")
        rows = lo.size
        lib = self._lib
        out = np.empty((rows, n), dtype=np.uint8)
        work = scratch(
            "native.restore", lib.pfpl_zero_restore_scratch(n, levels), np.uint8
        )
        info = np.zeros(2, dtype=np.int64)
        bad = lib.zero_restore_rows(
            buf.ctypes.data, buf.size, lo.ctypes.data, size.ctypes.data,
            rows, n, levels, out.ctypes.data, work.ctypes.data, info.ctypes.data,
        )
        if bad >= 0:
            which = "stage L3 blob" if rows == 1 else f"stage L3 blob of chunk {bad}"
            raise PFPLIntegrityError(
                f"{which} {_FAILURES[int(info[0])]} (start {int(lo[bad])}, "
                f"size {int(size[bad])}, bitmaps account for {int(info[1])} bytes)"
            )
        return out

    def bitshuffle_rows(self, words: np.ndarray, out: np.ndarray) -> None:
        """Bit-plane transpose of each row of ``words`` into ``out``.

        ``words`` is a C-contiguous ``(rows, n_words)`` uint32/uint64
        matrix with ``n_words % 8 == 0``; ``out`` the contiguous uint8
        ``(rows, n_words * itemsize)`` destination.
        """
        rows, n_words = words.shape
        _check_pair(words, out, rows, n_words)
        self._lib.bitshuffle_rows(words.ctypes.data, rows, n_words,
                                  words.itemsize, out.ctypes.data)

    def bitunshuffle_rows(self, planes: np.ndarray, out: np.ndarray) -> None:
        """Inverse of :meth:`bitshuffle_rows`: ``planes`` -> words ``out``."""
        rows, n_words = out.shape
        _check_pair(out, planes, rows, n_words)
        self._lib.bitunshuffle_rows(planes.ctypes.data, rows, n_words,
                                    out.itemsize, out.ctypes.data)


def _check_pair(words: np.ndarray, planes: np.ndarray, rows: int, n_words: int) -> None:
    """Shape/dtype/contiguity contract shared by the shuffle kernels."""
    ok = (
        words.dtype in (np.dtype(np.uint32), np.dtype(np.uint64))
        and words.flags.c_contiguous and planes.flags.c_contiguous
        and planes.dtype == np.dtype(np.uint8)
        and planes.shape == (rows, n_words * words.itemsize)
        and n_words % 8 == 0
    )
    if not ok:
        raise TypeError(
            f"bit shuffle kernel needs contiguous words {words.dtype}{words.shape} "
            f"(multiple of 8 per row) and uint8 planes, got {planes.dtype}{planes.shape}"
        )


class _State(NamedTuple):
    """Outcome of the one load attempt of this process."""

    kernels: Kernels | None
    path: str | None
    reason: str


class _BuildError(Exception):
    """The compiler ran and rejected the source (or timed out)."""


_state: _State | None = None
_state_lock = threading.Lock()


def kernels() -> Kernels | None:
    """The loaded kernels, or ``None`` when the NumPy path is active.

    The first call builds or loads the library; later calls (and
    processes forked after it) reuse the result.
    """
    state = _state
    if state is None:
        state = _load()
    return state.kernels


def status() -> dict:
    """Which lossless kernel path is active, and why.

    ``{"active": bool, "path": str | None, "reason": str}``: ``path`` is
    the loaded shared object, ``reason`` how it was obtained or why the
    NumPy fallback runs.
    """
    state = _state
    if state is None:
        state = _load()
    return {"active": state.kernels is not None, "path": state.path,
            "reason": state.reason}


def _load() -> _State:
    global _state
    with _state_lock:
        if _state is None:
            _state = _attempt()
            if _state.kernels is None:
                log.warning("native kernels unavailable, using NumPy: %s",
                            _state.reason)
            else:
                log.info("native kernels: %s (%s)", _state.path, _state.reason)
        return _state


def _attempt() -> _State:
    """Find a compiler, then build or load the cached library."""
    if os.environ.get("PFPL_NATIVE") == "0":
        return _State(None, None, "disabled by PFPL_NATIVE=0")
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return _State(None, None, "no C compiler (cc or gcc) on PATH")
    try:
        version = _run([compiler, "--version"]).stdout
        source = SOURCE.read_bytes()
    except (OSError, subprocess.SubprocessError) as exc:
        return _State(None, None, f"cannot query {compiler}: {exc}")
    digest = hashlib.sha256()
    for part in (source, " ".join(FLAGS).encode(), platform.machine().encode(), version):
        digest.update(part)
        digest.update(b"\0")
    name = f"pfpl_kernels-{digest.hexdigest()[:20]}.so"
    notes = []
    for directory in _cache_dirs():
        path = directory / name
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            _check_private(directory, "directory", stat.S_ISDIR)
            built = not path.exists()
            if built:
                _build(compiler, directory, path)
            _check_private(path, path.name, stat.S_ISREG)
        except _BuildError as exc:
            return _State(None, None, "; ".join(notes + [f"build failed: {exc}"]))
        except OSError as exc:
            notes.append(f"{directory}: {exc}")
            continue
        try:
            lib = Kernels(ctypes.CDLL(str(path)))
        except (OSError, AttributeError) as exc:
            return _State(None, str(path), "; ".join(
                notes + [f"cannot load cached library {path}: {exc}"]))
        notes.append("built" if built else "loaded from cache")
        return _State(lib, str(path), "; ".join(notes))
    return _State(None, None, "no usable cache dir: " + "; ".join(notes))


def _cache_dirs() -> list[Path]:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    uid = os.getuid() if hasattr(os, "getuid") else "user"
    return [Path(base) / "pfpl", Path(tempfile.gettempdir()) / f"pfpl-{uid}"]


def _check_private(path: Path, what: str, is_kind: Callable[[int], bool]) -> None:
    """Raise :class:`OSError` unless ``path`` is of the kind ``is_kind``
    tests for (not a symlink), owned by this user and not writable by
    group or others."""
    st = os.lstat(path)
    if stat.S_ISLNK(st.st_mode):
        raise OSError(f"{what} is a symlink")
    if not is_kind(st.st_mode):
        raise OSError(f"{what} has the wrong file type")
    if hasattr(os, "getuid") and st.st_uid != os.getuid():
        raise OSError(f"{what} is owned by uid {st.st_uid}, not {os.getuid()}")
    if st.st_mode & 0o022:
        raise OSError(f"{what} is writable by group or others "
                      f"(mode {stat.S_IMODE(st.st_mode):o})")


def _build(compiler: str, directory: Path, path: Path) -> None:
    """Compile into a temporary file, then atomically move it into place.

    Raises :class:`OSError` when ``directory`` is unusable and
    :class:`_BuildError` when the compiler fails.
    """
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        try:
            proc = _run([compiler, *FLAGS, "-o", tmp, str(SOURCE)])
        except (OSError, subprocess.SubprocessError) as exc:
            raise _BuildError(f"cannot run {compiler}: {exc}") from exc
        if proc.returncode:
            err = proc.stderr.decode(errors="replace").strip()
            raise _BuildError(f"{compiler} exited {proc.returncode}: {err[-400:]}")
        os.chmod(tmp, 0o755)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, timeout=120, check=False)
