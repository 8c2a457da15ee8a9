"""``bulk``: one caller, in-memory ``repro.compress``/``repro.decompress``
on the library-default inline backend, over a fixed list of cells.

Pass 0 builds the reference: each output is checked with
``check_bound`` (in a helper thread, outside any timed section) and its
stream and decoded bytes are fingerprinted.  Timed passes then compare
every stream and every decoded array with that reference.
"""

from __future__ import annotations

import resource
import sys
import zlib
from time import process_time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

import repro
from harness import Timer, median, mixture_f64, now, nproc, sparse_f32, spectral_f32
from hostspeed import HostSpeed, Unscaled
from report import (
    END_TO_END,
    PER_LAYER,
    chunking_metrics,
    finish,
    latency_ms,
    shim_metrics,
    telemetry_metrics,
)
from repro.datasets.synthesis import particle_data
from shims import Layers, TimingBackend

MB = 1 << 20
F32_PER_MB = MB // 4
#: The size sweep: every size gets the same 64 MB of spectral f32.
SWEEP_BYTES = 64 * MB
SWEEP_SIZES = (64 << 10, MB, 16 * MB, 64 * MB)
MIN_PASSES = 3
#: Values per ``check_bound`` call (its extended-precision temporaries
#: are 16 bytes per value).
CHECK_VALUES = 1 << 18


@dataclass
class Cell:
    name: str
    arrays: list
    mode: str = "abs"
    bound: float = 1e-3
    format_version: int | None = None
    streams: list = field(default_factory=list)
    out_crcs: list = field(default_factory=list)


def make_cells(seed: int) -> list[Cell]:
    sweep = spectral_f32(SWEEP_BYTES // 4, seed, stream=0)
    cells = []
    for size in SWEEP_SIZES:
        n = size // 4
        label = f"{size >> 10}k" if size < MB else f"{size // MB}m"
        cells.append(Cell(
            f"spectral_f32_abs_{label}",
            [sweep[i:i + n] for i in range(0, sweep.size, n)],
        ))
    n16 = 16 * F32_PER_MB
    cells.append(Cell(
        "mixture_f64_abs_16m",
        [mixture_f64(16 * MB // 8, seed)],
    ))
    cells.append(Cell("spectral_f32_rel_16m", [sweep[:n16]], mode="rel", bound=1e-2))
    cells.append(Cell("sparse_f32_v3_16m", [sparse_f32(n16, seed)], format_version=3))
    cells.append(Cell(
        "particle_f32_v3_16m",
        [particle_data(n16, "position", seed=seed)],
        format_version=3,
    ))
    return cells


def _check(cell: Cell, original, decoded) -> bool:
    for lo in range(0, original.size, CHECK_VALUES):
        hi = lo + CHECK_VALUES
        if not repro.check_bound(cell.mode, original[lo:hi], decoded[lo:hi], cell.bound).ok:
            return False
    return True


def _crc(arr) -> int:
    return zlib.crc32(memoryview(arr).cast("B"))


#: The cell whose per-call round trips give ``p50_ms``/``p99_ms``.
LATENCY_CELL = "spectral_f32_abs_64k"


@dataclass
class PassStats:
    comp: Timer = field(default_factory=Timer)
    decomp: Timer = field(default_factory=Timer)
    stream_bytes: int = 0
    calls: int = 0
    failed: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    small_rt: list = field(default_factory=list)
    #: Compress and decompress seconds, and the 64 KB round trips, at
    #: the reference host speed (see hostspeed.py).
    comp_ref_s: float = 0.0
    decomp_ref_s: float = 0.0
    small_rt_ref: list = field(default_factory=list)


def run_pass(cells, backend=None, telemetry=None, reference=False,
             compress=repro.compress, decompress=repro.decompress,
             speed: HostSpeed | None = None) -> PassStats:
    """Compress + decompress every array of every cell once.

    ``reference=True`` records the outputs (bound-checked in a helper
    thread); otherwise every output is compared with the reference.
    With ``speed``, the pass is cut into segments of about
    ``SEGMENT_S`` (never across cells), each bracketed by calibration
    samples, and its timings are also kept at the reference speed.
    """
    st = PassStats()
    scaler = _Scaler(st, speed.segments() if speed is not None else Unscaled())
    checker = ThreadPoolExecutor(max_workers=1) if reference else None
    checks = []
    try:
        for cell in cells:
            for i, arr in enumerate(cell.arrays):
                _run_one(cell, i, arr, st, backend, telemetry, reference, compress,
                         decompress, checker, checks)
                if speed is not None and now() - scaler.started >= SEGMENT_S:
                    scaler.close()
            scaler.close()
    finally:
        if checker is not None:
            st.failed += sum(not f.result() for f in checks)
            checker.shutdown()
    st.wall = st.comp.seconds + st.decomp.seconds
    return st


#: Target length of one calibrated segment of a pass, in seconds.
SEGMENT_S = 0.5


class _Scaler:
    """Moves the timings of the segment just ended into the ``*_ref`` sums."""

    def __init__(self, st: PassStats, segments):
        self.st = st
        self.segments = segments
        self._mark()

    def _mark(self) -> None:
        st = self.st
        self.comp_s, self.decomp_s = st.comp.seconds, st.decomp.seconds
        self.n_small = len(st.small_rt)
        self.started = now()

    def close(self) -> None:
        st, scale = self.st, self.segments.close()
        st.comp_ref_s += (st.comp.seconds - self.comp_s) * scale
        st.decomp_ref_s += (st.decomp.seconds - self.decomp_s) * scale
        st.small_rt_ref += [x * scale for x in st.small_rt[self.n_small:]]
        self._mark()


def _run_one(cell, i, arr, st, backend, telemetry, reference, compress, decompress,
             checker, checks) -> None:
    st.calls += 1
    try:
        c0 = process_time()
        t0 = now()
        stream = compress(
            arr, cell.mode, cell.bound, backend=backend,
            telemetry=telemetry, format_version=cell.format_version,
        )
        t1 = now()
        out = decompress(stream, backend=backend, telemetry=telemetry)
        t2 = now()
        st.cpu += process_time() - c0
    except Exception as exc:  # counted, reported, never fatal
        print(f"perfbench: {cell.name}[{i}] raised {exc!r}", file=sys.stderr)
        st.failed += 1
        return
    st.comp.add(t1 - t0, arr.nbytes)
    st.decomp.add(t2 - t1, out.nbytes)
    st.stream_bytes += len(stream)
    if cell.name == LATENCY_CELL:
        st.small_rt.append(t2 - t0)
    if reference:
        cell.streams.append(stream)
        cell.out_crcs.append(_crc(out))
        checks.append(checker.submit(_check, cell, arr, out))
    elif stream != cell.streams[i] or _crc(out) != cell.out_crcs[i]:
        print(f"perfbench: {cell.name}[{i}] differs from the reference",
              file=sys.stderr)
        st.failed += 1


def _warm_cells(seed: int) -> list[Cell]:
    """One small array per codec configuration the timed cells use."""
    x = spectral_f32(F32_PER_MB // 16, seed, stream=0)
    return [
        Cell("warm_abs", [x]),
        Cell("warm_f64", [x.astype(np.float64)]),
        Cell("warm_rel", [x], mode="rel", bound=1e-2),
        Cell("warm_v3", [x], format_version=3),
    ]


def probe_setup(t0: float) -> float:
    """Import (already done by the caller's import of this module),
    default inline backend (built per call), first warm-up pass."""
    run_pass(_warm_cells(0), reference=True)
    return now() - t0


def run(args, t0, setup_samples) -> dict:
    own = probe_setup(t0)
    speed = HostSpeed()
    own_scale = speed.segments().close()
    cells = make_cells(args.seed)
    ref = run_pass(cells, reference=True)
    if args.trace:
        return _traced(args, cells, ref)
    setup_s = setup_samples(args, own * own_scale, speed)

    backend = None
    if args.kernel_delay:
        from repro.core.compressor import InlineBackend

        backend = TimingBackend(InlineBackend(), Layers(delay=args.kernel_delay))
    # Each figure is the median over passes (at least MIN_PASSES).
    passes = []
    start = last = now()
    while True:
        t = now()
        if len(passes) >= MIN_PASSES and t - start + 1.05 * (t - last) > args.seconds:
            break
        last = t
        passes.append(run_pass(cells, backend=backend, speed=speed))
    _, p99 = latency_ms([x for p in passes for x in p.small_rt])
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "compress_gbps": median([p.comp.bytes / p.comp_ref_s for p in passes]) / 1e9,
        "decompress_gbps": median([p.decomp.bytes / p.decomp_ref_s for p in passes]) / 1e9,
        "ratio": ref.comp.bytes / ref.stream_bytes,
        "p50_ms": median([median(p.small_rt_ref) for p in passes]) * 1e3,
    }
    raw = {
        "compress_gbps": median([p.comp.bytes / p.comp.seconds for p in passes]) / 1e9,
        "decompress_gbps": median([p.decomp.bytes / p.decomp.seconds for p in passes]) / 1e9,
        "p50_ms": median([median(p.small_rt) for p in passes]) * 1e3,
    }
    attempted = ref.calls + sum(p.calls for p in passes)
    failed = ref.failed + sum(p.failed for p in passes)
    samples = sum(len(p.small_rt) for p in passes)
    return {"attempted": attempted, "failed": failed, "metrics": finish(metrics, END_TO_END),
            "note": {"passes": len(passes), "p99_ms": p99, "latency_samples": samples,
                     "raw": raw, "host_speed": speed.relative()}}


def _speedups(seed: int) -> dict[str, float]:
    """Serial vs nproc-wide omp and procpool on the 16 MB spectral cell."""
    from repro import Telemetry, get_backend

    data = spectral_f32(16 * F32_PER_MB, seed, stream=0)
    expected = repro.compress(data, "abs", 1e-3)
    times = {}
    out: dict[str, float] = {"_failed": 0}
    for name in ("serial", "omp", "procpool"):
        kwargs = {"n_threads": nproc()} if name == "omp" else {}
        if name == "procpool":
            kwargs = {"n_workers": nproc()}
        backend = get_backend(name, **kwargs)
        tel = Telemetry() if name == "procpool" else None
        try:
            backend.warm()
            best = float("inf")
            for _ in range(3):
                t0 = now()
                stream = repro.compress(data, "abs", 1e-3, backend=backend, telemetry=tel)
                decoded = repro.decompress(stream, backend=backend, telemetry=tel)
                best = min(best, now() - t0)
                if stream != expected or not _check(Cell("x", []), data, decoded):
                    out["_failed"] += 1
            times[name] = best
            if tel is not None:
                for rec in tel.spans:
                    if rec.name in ("offload_encode", "offload_decode"):
                        out["device.procpool.offload_s"] = (
                            out.get("device.procpool.offload_s", 0.0) + rec.duration
                        )
                    elif rec.name in ("batch_encode", "batch_decode") and str(
                        rec.args.get("track", "")
                    ).startswith("proc-"):
                        out["device.procpool.worker_kernel_s"] = (
                            out.get("device.procpool.worker_kernel_s", 0.0) + rec.duration
                        )
        finally:
            backend.close()
    out["device.speedup.omp"] = times["serial"] / times["omp"]
    out["device.speedup.procpool"] = times["serial"] / times["procpool"]
    return out


def _traced(args, cells, ref) -> dict:
    from repro import Telemetry
    from repro.core.compressor import InlineBackend
    from repro.core.scratch import scratch_bytes_total

    plain = run_pass(cells)
    layers = Layers()
    backend = TimingBackend(InlineBackend(), layers)
    tel = Telemetry()

    # Time the public calls themselves so the compressor's self time
    # (wall minus nested backend and kernel time) falls out of the stack.
    def compress(*a, **kw):
        return layers.call("compressor.compress", repro.compress, *a, **kw)

    def decompress(*a, **kw):
        return layers.call("compressor.decompress", repro.decompress, *a, **kw)

    traced = run_pass(cells, backend, tel, compress=compress, decompress=decompress)
    m = shim_metrics(layers)
    m.update(telemetry_metrics(tel))
    all_streams = [s for c in cells for s in c.streams]
    m.update(chunking_metrics(
        all_streams, [s for c in cells if c.format_version == 3 for s in c.streams]
    ))
    m["compressor.self_s"] = layers.get("compressor.compress.self_s") + layers.get(
        "compressor.decompress.self_s"
    )
    m["compressor.calls"] = layers.get("compressor.compress.calls") + layers.get(
        "compressor.decompress.calls"
    )
    m["scratch.bytes"] = scratch_bytes_total()["bytes"]
    m["traffic.per_input_byte"] = m["traffic.bytes"] / traced.comp.bytes
    m["trace.overhead_frac"] = traced.wall / plain.wall - 1.0
    m["trace.unattributed_frac"] = max(0.0, traced.cpu - m.pop("_stage_s")) / traced.cpu
    speed = _speedups(args.seed)
    failed = ref.failed + plain.failed + traced.failed + speed.pop("_failed")
    m.update(speed)
    return {
        "attempted": ref.calls + plain.calls + traced.calls + 9,
        "failed": failed,
        "metrics": finish(m, PER_LAYER),
    }
