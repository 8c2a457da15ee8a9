"""Native lossless kernels: byte identity with NumPy, hostile input, build cache.

The stage functions in :mod:`repro.core.lossless` dispatch to the C
kernels of :mod:`repro.core.native` when they are loaded.  Replacing
the module's load state with a fallback state (``_both``) makes them
run the NumPy code instead, which is how every comparison below gets
its reference.
"""

import ctypes
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import compress, decompress
from repro.core import native
from repro.core.compressor import PFPLCompressor
from repro.core.lossless.batch import compress_bytes_batch, decompress_bytes_batch, row_offsets
from repro.core.lossless.bitshuffle import (
    bitshuffle,
    bitshuffle_batch,
    bitunshuffle,
    bitunshuffle_batch,
)
from repro.core.lossless.zerobyte import compress_bytes, decompress_bytes
from repro.device import get_backend
from repro.errors import PFPLIntegrityError

SRC = str(Path(__file__).resolve().parents[2] / "src")
HAVE_CC = bool(shutil.which("cc") or shutil.which("gcc"))
NATIVE = native.kernels() is not None

needs_native = pytest.mark.skipif(not NATIVE, reason="native kernels not loaded")


def _both(fn, monkeypatch):
    """``fn()`` on the active (native) path, then on the NumPy path."""
    got = fn()
    with monkeypatch.context() as m:
        m.setattr(native, "_state", native._State(None, None, "test"))
        ref = fn()
    return got, ref


def _words(kind: str, rows: int, n_words: int, dtype) -> np.ndarray:
    info = np.iinfo(dtype)
    r = np.random.default_rng([KINDS.index(kind), rows, n_words, np.dtype(dtype).itemsize])
    if kind == "random":
        return r.integers(0, info.max, (rows, n_words), dtype=dtype, endpoint=True)
    if kind == "small":  # delta+negabinary-like residuals: high bytes zero
        return r.integers(0, 300, (rows, n_words)).astype(dtype)
    if kind == "zero":
        return np.zeros((rows, n_words), dtype=dtype)
    if kind == "ones":
        return np.full((rows, n_words), info.max, dtype=dtype)
    if kind == "alternating":
        w = np.zeros((rows, n_words), dtype=dtype)
        w[:, ::2] = info.max
        return w
    raise AssertionError(kind)


KINDS = ("random", "small", "zero", "ones", "alternating")
#: Row widths in words: full-chunk-like, and the small multiples of 8 a
#: padded ragged tail produces.
WIDTHS = (8, 16, 40, 1024)


@needs_native
@pytest.mark.parametrize("dtype", [np.uint32, np.uint64], ids=["f32", "f64"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_words", WIDTHS)
def test_batch_stages_byte_identical(dtype, kind, n_words, monkeypatch):
    words = _words(kind, 5, n_words, dtype)
    planes, ref_planes = _both(lambda: bitshuffle_batch(words), monkeypatch)
    assert planes.tobytes() == ref_planes.tobytes()
    back, ref_back = _both(lambda: bitunshuffle_batch(planes, dtype), monkeypatch)
    assert back.tobytes() == ref_back.tobytes() == words.tobytes()
    for stream in (planes, words.view(np.uint8)):
        blobs, ref_blobs = _both(lambda: compress_bytes_batch(stream), monkeypatch)
        assert blobs == ref_blobs
        sizes = np.array([len(b) for b in blobs], dtype=np.int64)
        payload = np.frombuffer(b"".join(blobs), dtype=np.uint8)
        restored, ref_restored = _both(
            lambda: decompress_bytes_batch(
                payload, row_offsets(sizes), sizes, stream.shape[1]),
            monkeypatch,
        )
        assert restored.tobytes() == ref_restored.tobytes() == stream.tobytes()


@needs_native
@pytest.mark.parametrize("dtype", [np.uint32, np.uint64], ids=["f32", "f64"])
@pytest.mark.parametrize("kind", KINDS)
def test_per_chunk_stages_byte_identical(dtype, kind, monkeypatch):
    words = _words(kind, 1, 24, dtype)[0]
    planes, ref = _both(lambda: bitshuffle(words), monkeypatch)
    assert planes.tobytes() == ref.tobytes()
    back, ref = _both(lambda: bitunshuffle(planes, words.size, dtype), monkeypatch)
    assert back.tobytes() == ref.tobytes() == words.tobytes()


@needs_native
@pytest.mark.parametrize("n", [0, 1, 7, 8, 13, 64, 100, 2049])
@pytest.mark.parametrize("levels", [0, 1, 4, 6])
def test_zero_elim_odd_sizes_and_levels(n, levels, monkeypatch):
    r = np.random.default_rng(n * 31 + levels)
    for data in (r.integers(0, 3, n).astype(np.uint8),
                 r.integers(0, 256, n).astype(np.uint8),
                 np.zeros(n, dtype=np.uint8)):
        blob, ref = _both(lambda: compress_bytes(data, levels=levels), monkeypatch)
        assert blob == ref
        out, ref_out = _both(lambda: decompress_bytes(blob, n, levels=levels), monkeypatch)
        assert out.tobytes() == ref_out.tobytes() == data.tobytes()


@needs_native
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("mode,bound", [("abs", 1e-3), ("rel", 1e-2), ("noa", 1e-3)])
def test_streams_byte_identical(dtype, mode, bound, monkeypatch):
    r = np.random.default_rng(5)
    data = np.cumsum(r.normal(0, 0.05, 50_003)).astype(dtype)
    data[::97] = 0
    for kw in ({}, {"format_version": 3}):
        stream, ref = _both(lambda: compress(data, mode, bound, **kw), monkeypatch)
        assert stream == ref
        out, ref_out = _both(lambda: decompress(stream), monkeypatch)
        assert out.tobytes() == ref_out.tobytes()


@needs_native
def test_portable_c_path_matches_simd_path(tmp_path):
    """The kernels' scalar fallback (used where SSE2 is absent) builds and
    produces the same bytes as the default build."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    lib = tmp_path / "scalar.so"
    subprocess.run([compiler, *native.FLAGS, "-DPFPL_SCALAR", "-o", str(lib),
                    str(native.SOURCE)], check=True, capture_output=True, timeout=120)
    scalar = native.Kernels(ctypes.CDLL(str(lib)))
    simd = native.kernels()
    for dtype in (np.uint32, np.uint64):
        for kind in KINDS:
            for n_words in (8, 24, 128, 136, 1024):
                words = _words(kind, 3, n_words, dtype)
                planes = [np.empty((3, words.nbytes // 3), dtype=np.uint8) for _ in "ab"]
                simd.bitshuffle_rows(words, planes[0])
                scalar.bitshuffle_rows(words, planes[1])
                assert planes[0].tobytes() == planes[1].tobytes()
                back = [np.empty_like(words) for _ in "ab"]
                simd.bitunshuffle_rows(planes[0], back[0])
                scalar.bitunshuffle_rows(planes[0], back[1])
                assert back[0].tobytes() == back[1].tobytes() == words.tobytes()


# -- hostile input -------------------------------------------------------------

def _blob_case():
    data = np.random.default_rng(3).integers(0, 4, (3, 256)).astype(np.uint8)
    blobs = compress_bytes_batch(data)
    sizes = np.array([len(b) for b in blobs], dtype=np.int64)
    return np.frombuffer(b"".join(blobs), dtype=np.uint8), row_offsets(sizes), sizes


@pytest.mark.parametrize("path", ["native", "numpy"])
@pytest.mark.parametrize("case", [
    "truncated", "over-long", "size-mismatch", "start-past-end", "negative-size",
])
def test_hostile_blobs_raise_integrity_error(path, case, monkeypatch):
    if path == "native" and not NATIVE:
        pytest.skip("native kernels not loaded")
    stream, starts, sizes = _blob_case()
    if path == "numpy":
        monkeypatch.setattr(native, "_state", native._State(None, None, "test"))
    if case == "truncated":
        stream = stream[:-5]
    elif case == "over-long":
        sizes = sizes.copy()
        sizes[-1] += 1
        stream = np.concatenate([stream, np.zeros(1, dtype=np.uint8)])
    elif case == "size-mismatch":
        sizes = sizes.copy()
        sizes[0] -= 1
    elif case == "start-past-end":
        starts = starts.copy()
        starts[1] = stream.size + 10
    elif case == "negative-size":
        sizes = sizes.copy()
        sizes[2] = -4
    with pytest.raises(PFPLIntegrityError):
        decompress_bytes_batch(stream, starts, sizes, 256)


@needs_native
def test_random_garbage_agrees_with_numpy(monkeypatch):
    """Arbitrary blobs: both paths raise PFPLIntegrityError or decode alike."""
    r = np.random.default_rng(11)
    for trial in range(300):
        n = int(r.choice([8, 64, 256]))
        size = int(r.integers(0, 80))
        blob = r.integers(0, 256, size).astype(np.uint8)
        if trial % 3 == 0:
            blob[: max(0, size // 2)] = 0  # mostly-empty bitmaps decode further

        def run():
            try:
                return decompress_bytes(blob, n).tobytes()
            except PFPLIntegrityError:
                return "integrity"

        got, ref = _both(run, monkeypatch)
        assert got == ref


# -- concurrency ---------------------------------------------------------------

def test_threaded_stress_byte_identical_to_serial():
    r = np.random.default_rng(21)
    fields = [np.cumsum(r.normal(0, 0.05, 40_000)).astype(dt)
              for dt in (np.float32, np.float64)]
    serial = [PFPLCompressor("abs", 1e-3, dtype=f.dtype, chunk_bytes=1024,
                             backend=get_backend("serial")).compress(f).data
              for f in fields]
    decoded = [decompress(stream).tobytes() for stream in serial]
    pool = get_backend("omp", n_threads=8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    errors: list[str] = []
    try:
        def worker(seed: int) -> None:
            for i in range(4):
                f = fields[(seed + i) % 2]
                comp = PFPLCompressor("abs", 1e-3, dtype=f.dtype, chunk_bytes=1024,
                                      backend=pool)
                stream = comp.compress(f).data
                if stream != serial[(seed + i) % 2]:
                    errors.append(f"thread {seed} pass {i}: stream differs")
                if decompress(stream, backend=pool).tobytes() != decoded[(seed + i) % 2]:
                    errors.append(f"thread {seed} pass {i}: decode differs")

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads), "stress run hung"
    finally:
        sys.setswitchinterval(old)
        pool.close()
    assert not errors, errors


@needs_native
def test_procpool_workers_never_invoke_the_compiler(tmp_path, monkeypatch):
    """The pool loads the kernels before it forks: with the load state
    reset, only this process queries the compiler, never a worker."""
    marker = tmp_path / "compiler-calls"
    real_run = native._run

    def record(cmd):
        with open(marker, "a") as fh:
            fh.write(f"{os.getpid()} {cmd[-1]}\n")
        return real_run(cmd)

    # Forked workers inherit both patches: a worker that had to load
    # the kernels itself would leave a line with its own pid.
    monkeypatch.setattr(native, "_state", None)
    monkeypatch.setattr(native, "_run", record)
    pool = get_backend("procpool", n_workers=2)
    try:
        pool.warm()
        statuses = [
            f.result(60)
            for f in [pool._ensure_pool().submit(native.status) for _ in range(4)]
        ]
        data = np.cumsum(np.random.default_rng(2).normal(0, 0.05, 300_000))
        data = data.astype(np.float32)
        stream = compress(data, "abs", 1e-3, backend=pool)
        assert stream == compress(data, "abs", 1e-3)
        assert np.array_equal(decompress(stream, backend=pool), decompress(stream))
    finally:
        pool.close()
    pids = {line.split()[0] for line in marker.read_text().splitlines()}
    assert pids == {str(os.getpid())}, marker.read_text()
    assert all(s["active"] and s["path"] == native.status()["path"] for s in statuses)


# -- build cache and status ------------------------------------------------------

def _status_in_subprocess(env_overrides: dict, timeout=120) -> dict:
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PFPL_NATIVE", None)
    env.update(env_overrides)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json; from repro.core.native import status; "
         "print(json.dumps(status()))"],
        env=env, capture_output=True, text=True, timeout=timeout, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")


@needs_cc
def test_fresh_cache_builds_then_loads(tmp_path):
    first = _status_in_subprocess({"XDG_CACHE_HOME": str(tmp_path)})
    assert first["active"] and first["reason"] == "built"
    assert first["path"].startswith(str(tmp_path / "pfpl"))
    second = _status_in_subprocess({"XDG_CACHE_HOME": str(tmp_path)})
    assert second == {**first, "reason": "loaded from cache"}


@needs_cc
def test_corrupt_cached_library_falls_back_with_reason(tmp_path):
    built = _status_in_subprocess({"XDG_CACHE_HOME": str(tmp_path)})
    Path(built["path"]).write_bytes(b"\x7fELF this is not a library")
    st = _status_in_subprocess({"XDG_CACHE_HOME": str(tmp_path)})
    assert not st["active"]
    assert "cannot load cached library" in st["reason"]


@needs_cc
def test_unusable_cache_dir_falls_back_to_temp_dir(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    st = _status_in_subprocess({"XDG_CACHE_HOME": str(blocker / "cache"),
                                "TMPDIR": str(tmp)})
    assert st["active"]
    assert st["path"].startswith(str(tmp))
    assert str(blocker / "cache" / "pfpl") in st["reason"]


@needs_cc
def test_no_usable_dir_falls_back_to_numpy(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.delenv("PFPL_NATIVE", raising=False)
    monkeypatch.setattr(native, "_cache_dirs", lambda: [blocker / "a", blocker / "b"])
    st = native._attempt()
    assert st.kernels is None and st.reason.startswith("no usable cache dir")
    assert str(blocker / "a") in st.reason and str(blocker / "b") in st.reason


@needs_cc
def test_build_failure_falls_back_with_reason(tmp_path, monkeypatch):
    bad = tmp_path / "broken.c"
    bad.write_text("this is not C\n")
    monkeypatch.delenv("PFPL_NATIVE", raising=False)
    monkeypatch.setattr(native, "SOURCE", bad)
    monkeypatch.setattr(native, "_cache_dirs", lambda: [tmp_path / "cache"])
    st = native._attempt()
    assert st.kernels is None and st.reason.startswith("build failed:")
    assert "broken.c" in st.reason
    assert not [p for p in (tmp_path / "cache").iterdir()], "temp file left behind"


@needs_cc
def test_concurrent_first_builds_both_succeed(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC, "XDG_CACHE_HOME": str(tmp_path)}
    env.pop("PFPL_NATIVE", None)
    code = ("import json; from repro.core.native import status; "
            "print(json.dumps(status()))")
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    results = [json.loads(p.communicate(timeout=120)[0]) for p in procs]
    assert all(r["active"] for r in results), results
    assert results[0]["path"] == results[1]["path"]
    leftovers = [p.name for p in Path(results[0]["path"]).parent.iterdir()
                 if p.name.startswith(".build-")]
    assert not leftovers


def _private_dir(path: Path) -> Path:
    path.mkdir()
    os.chmod(path, 0o700)
    return path


@needs_cc
@pytest.mark.parametrize("flaw", ["world-writable", "symlink", "foreign-owner"])
def test_cache_dir_that_others_control_is_skipped(tmp_path, monkeypatch, flaw):
    """A predictable temp-dir cache is used only if this user alone
    controls it; otherwise a library planted there would be loaded."""
    planted = tmp_path / "pfpl-planted"
    if flaw == "world-writable":
        planted.mkdir()
        os.chmod(planted, 0o777)
        expect = "writable by group or others"
    elif flaw == "symlink":
        planted.symlink_to(_private_dir(tmp_path / "elsewhere"))
        expect = "is a symlink"
    else:
        if os.getuid() != 0:
            pytest.skip("creating a foreign-owned directory needs root")
        _private_dir(planted)
        os.chown(planted, 4242, 4242)
        expect = "owned by uid 4242"
    monkeypatch.delenv("PFPL_NATIVE", raising=False)
    monkeypatch.setattr(native, "_cache_dirs", lambda: [planted])
    st = native._attempt()
    assert st.kernels is None and st.path is None
    assert st.reason.startswith("no usable cache dir") and expect in st.reason
    if flaw != "symlink":
        assert not list(planted.iterdir()), "built into a directory others control"


@needs_cc
def test_cached_library_writable_by_others_is_not_loaded(tmp_path, monkeypatch):
    first, second = _private_dir(tmp_path / "a"), _private_dir(tmp_path / "b")
    monkeypatch.delenv("PFPL_NATIVE", raising=False)
    monkeypatch.setattr(native, "_cache_dirs", lambda: [first, second])
    built = native._attempt()
    assert built.kernels is not None and built.path.startswith(str(first))
    os.chmod(built.path, 0o666)
    st = native._attempt()
    assert st.kernels is not None and st.path.startswith(str(second))
    assert "writable by group or others" in st.reason


def test_disabled_by_environment():
    st = _status_in_subprocess({"PFPL_NATIVE": "0"})
    assert st == {"active": False, "path": None, "reason": "disabled by PFPL_NATIVE=0"}


def test_no_compiler_falls_back(tmp_path):
    st = _status_in_subprocess({"PATH": str(tmp_path)})
    assert not st["active"] and "no C compiler" in st["reason"]


@pytest.mark.skipif(os.environ.get("PFPL_NATIVE") == "0",
                    reason="NumPy path forced for this run")
@needs_cc
def test_native_active_when_compiler_present():
    """With a compiler and no PFPL_NATIVE=0, the suite runs the kernels."""
    st = native.status()
    assert st["active"], st["reason"]
