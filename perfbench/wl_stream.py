"""``stream``: the ``pfpl compress``/``pfpl decompress`` shape on the CLI's
default ``omp`` backend (nproc threads).

Each pass writes a 64 MB field through ``PFPLWriter`` in the CLI's
4 Mi-value blocks and a 64-step series of 256 KB appends with
``checksum=True``, reads both back through ``PFPLReader.iter_chunks``,
then makes seeded ``decompress_range`` reads of 1, 16 and 64 chunks.
The serial reference streams and decoded arrays are built during
set-up (decoded arrays bound-checked with ``check_bound``); every
output of every pass is compared with them outside the timed sections.
"""

from __future__ import annotations

import io
import resource
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from time import process_time

import numpy as np

import repro
from harness import Timer, median, now, spectral_f32
from hostspeed import HostSpeed, Unscaled
from report import (
    END_TO_END,
    PER_LAYER,
    finish,
    latency_ms,
    shim_metrics,
    telemetry_metrics,
    windowed,
)
from repro import PFPLReader, PFPLWriter, decompress_range, get_backend
from shims import Layers, TimingBackend

MB = 1 << 20
#: The CLI streams raw files through the writer in blocks of this many values.
BLOCK_VALUES = 4 << 20
FIELD_VALUES = 16 << 20  # 64 MB of float32
SERIES_STEPS = 64
STEP_VALUES = (256 << 10) // 4
#: Range windows, in chunks, cycled in this order.
RANGE_CHUNKS = (1, 16, 64)
#: Range reads: at least this many per run, and the traced run's count.
MIN_RANGES = 1002
TRACED_RANGES = 336
#: Share of the measured time given to writes and whole-stream reads;
#: range reads get the rest.
STREAM_SHARE = 0.5
MIN_PASSES = 3
#: Consecutive windows the range reads are split into for ``p50_ms``.
WINDOWS = 5
#: Target length of one calibrated segment of range reads, in seconds.
SEGMENT_S = 0.5
CHECK_VALUES = 1 << 18
BOUND = 1e-3


def _crc(arr) -> int:
    return zlib.crc32(memoryview(np.ascontiguousarray(arr)).cast("B"))


def _bound_ok(original, decoded) -> bool:
    return all(
        repro.check_bound("abs", original[lo:lo + CHECK_VALUES],
                          decoded[lo:lo + CHECK_VALUES], BOUND).ok
        for lo in range(0, original.size, CHECK_VALUES)
    )


class Inputs:
    """Seeded inputs plus the serial reference built from them."""

    def __init__(self, seed: int):
        self.field = spectral_f32(FIELD_VALUES, seed, stream=1)
        self.series = spectral_f32(SERIES_STEPS * STEP_VALUES, seed, stream=2)
        self.blocks = [self.field[i:i + BLOCK_VALUES]
                       for i in range(0, FIELD_VALUES, BLOCK_VALUES)]
        self.steps = [self.series[i:i + STEP_VALUES]
                      for i in range(0, self.series.size, STEP_VALUES)]
        self.ref_field = repro.compress(self.field, "abs", BOUND)
        self.ref_series = repro.compress(self.series, "abs", BOUND, checksum=True)
        self.field_out = repro.decompress(self.ref_field)
        series_out = repro.decompress(self.ref_series)
        with ThreadPoolExecutor(max_workers=2) as pool:
            checks = [pool.submit(_bound_ok, self.field, self.field_out),
                      pool.submit(_bound_ok, self.series, series_out)]
            self.reference_ok = all(f.result() for f in checks)
        self.field_crc = _crc(self.field_out)
        self.series_crc = _crc(series_out)
        rng = np.random.default_rng(seed)
        n_chunks = FIELD_VALUES // 4096
        self.windows = []
        for i in range(3 * MIN_RANGES):
            span = RANGE_CHUNKS[i % len(RANGE_CHUNKS)]
            first = int(rng.integers(0, n_chunks - span + 1))
            self.windows.append((first * 4096, span * 4096))


class PassStats:
    def __init__(self):
        self.write = Timer()
        self.read = Timer()
        self.ranges: list[float] = []
        self.stream_bytes = 0
        self.calls = 0
        self.failed = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.read_cpu = 0.0
        # Write and read seconds at the reference host speed (hostspeed.py).
        self.write_ref_s = 0.0
        self.read_ref_s = 0.0


def _write(parts, sink, st, backend, telemetry, layers, **kw) -> bytes:
    writer = PFPLWriter(sink, "abs", BOUND, backend=backend, telemetry=telemetry, **kw)
    for part in parts:
        c0, t0 = process_time(), now()
        writer.append(part)
        dt = now() - t0
        st.cpu += process_time() - c0
        st.write.add(dt, part.nbytes)
        layers.add("io.writer.append_s", dt)
    c0, t0 = process_time(), now()
    writer.close()
    dt = now() - t0
    st.cpu += process_time() - c0
    st.write.seconds += dt
    layers.add("io.writer.close_s", dt)
    return sink.getvalue()


def _read(stream, n_values, dtype, st, backend, telemetry, layers) -> np.ndarray:
    out = np.empty(n_values, dtype=dtype)
    c0, t0 = process_time(), now()
    reader = PFPLReader(stream, backend=backend, telemetry=telemetry)
    dt = now() - t0
    st.read_cpu += process_time() - c0
    layers.add("io.reader.open_s", dt)
    st.read.seconds += dt
    it = reader.iter_chunks()
    pos = 0
    while True:
        c0, t0 = process_time(), now()
        chunk = next(it, None)
        dt = now() - t0
        st.read_cpu += process_time() - c0
        st.read.seconds += dt
        layers.add("io.reader.iter_s", dt)
        if chunk is None:
            break
        out[pos:pos + chunk.size] = chunk
        pos += chunk.size
    st.read.bytes += out.nbytes
    st.read.calls += 1
    return out


class _CountingSource(io.BytesIO):
    """In-memory stream that counts the bytes the decoder fetches."""

    def __init__(self, data, layers):
        super().__init__(data)
        self._layers = layers

    def read(self, size=-1):
        data = super().read(size)
        self._layers.add("random_access.bytes_fetched", len(data))
        return data


def run_pass(inp: Inputs, backend, telemetry=None, layers=None, ranges=0,
             read_telemetry=None, speed: HostSpeed | None = None) -> PassStats:
    """Write both streams, read both back, then make ``ranges`` range reads.

    ``read_telemetry`` records the whole-stream reads apart from the rest.
    With ``speed``, each write and each read is a segment bracketed by
    calibration samples, and its seconds are also kept at the reference
    speed.
    """
    st = PassStats()
    layers = layers or Layers()
    segments = speed.segments() if speed is not None else Unscaled()

    def scaled(step, *a, **kw):
        w, r = st.write.seconds, st.read.seconds
        out = step(*a, **kw)
        scale = segments.close()
        st.write_ref_s += (st.write.seconds - w) * scale
        st.read_ref_s += (st.read.seconds - r) * scale
        return out

    t_start = now()
    try:
        field = scaled(_write, inp.blocks, io.BytesIO(), st, backend, telemetry, layers)
        series = scaled(_write, inp.steps, io.BytesIO(), st, backend, telemetry, layers,
                        checksum=True)
        st.calls += 2
        st.stream_bytes += len(field) + len(series)
        st.failed += (field != inp.ref_field) + (series != inp.ref_series)
        for stream, n, crc in ((field, inp.field.size, inp.field_crc),
                               (series, inp.series.size, inp.series_crc)):
            st.calls += 1
            out = scaled(_read, stream, n, np.float32, st, backend,
                         read_telemetry or telemetry, layers)
            st.failed += _crc(out) != crc
    except Exception as exc:  # counted, reported, never fatal
        print(f"perfbench: stream pass raised {exc!r}", file=sys.stderr)
        st.failed += 1
    range_reads(inp, inp.windows[:ranges], backend, st, telemetry, layers)
    st.wall = now() - t_start
    return st


def range_reads(inp, windows, backend, st, telemetry=None, layers=None) -> None:
    """Time one ``decompress_range`` per window; check each against the reference."""
    for start, count in windows:
        st.calls += 1
        try:
            c0, t0 = process_time(), now()
            if telemetry is None:
                got = decompress_range(inp.ref_field, start, count, backend=backend)
            else:
                got = _traced_range(inp.ref_field, start, count, backend, telemetry, layers)
            st.ranges.append(now() - t0)
            st.cpu += process_time() - c0
        except Exception as exc:
            print(f"perfbench: range read raised {exc!r}", file=sys.stderr)
            st.failed += 1
            continue
        st.failed += not np.array_equal(got, inp.field_out[start:start + count])


def _traced_range(stream, start, count, backend, telemetry, layers):
    from repro.core.random_access import StreamDecoder

    t0 = now()
    dec = StreamDecoder(_CountingSource(stream, layers), backend, telemetry=telemetry)
    layers.add("random_access.open_s", now() - t0)
    layers.add("random_access.calls", 1)
    return dec.decode_range(start, count)


def _warm(backend) -> None:
    x = spectral_f32(1 << 16, 0, stream=1)
    sink = io.BytesIO()
    with PFPLWriter(sink, "abs", BOUND, backend=backend) as w:
        w.append(x)
    stream = sink.getvalue()
    for _ in PFPLReader(stream, backend=backend).iter_chunks():
        pass
    decompress_range(stream, 0, 4096 * 4, backend=backend)


def probe_setup(t0: float) -> float:
    backend = get_backend("omp")
    try:
        backend.warm()
        _warm(backend)
        return now() - t0
    finally:
        backend.close()


def run(args, t0, setup_samples) -> dict:
    backend = get_backend("omp")
    try:
        backend.warm()
        _warm(backend)
        own = now() - t0
        inp = Inputs(args.seed)
        failed = int(not inp.reference_ok)
        speed = HostSpeed()
        own *= speed.segments().close()
        run_pass(inp, backend, ranges=30)  # warm pass: fills scratch arenas
        if args.trace:
            return _traced(args, inp, backend, failed)
        setup_s = setup_samples(args, own, speed)
        passes = []
        start = now()
        budget = args.seconds * STREAM_SHARE
        while len(passes) < MIN_PASSES or now() - start + passes[-1].wall * 1.05 <= budget:
            passes.append(run_pass(inp, backend, speed=speed))
        ranges = PassStats()
        # Range-read latencies at the reference host speed, scaled per
        # segment of about SEGMENT_S.
        ranges_ref: list[float] = []
        segments = speed.segments()
        start = seg_start = now()
        for lo in range(0, len(inp.windows), 3):
            elapsed = now() - start
            done = len(ranges.ranges) >= MIN_RANGES
            if (done and elapsed >= args.seconds - budget) or elapsed > 2 * args.seconds:
                break
            range_reads(inp, inp.windows[lo:lo + 3], backend, ranges)
            if now() - seg_start >= SEGMENT_S:
                _close_ranges(ranges, ranges_ref, segments)
                seg_start = now()
        _close_ranges(ranges, ranges_ref, segments)
    finally:
        backend.close()
    # Each figure is the median over passes, or over windows of range reads.
    _, p99 = latency_ms(ranges.ranges)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "compress_gbps": median([p.write.bytes / p.write_ref_s for p in passes]) / 1e9,
        "decompress_gbps": median([p.read.bytes / p.read_ref_s for p in passes]) / 1e9,
        "ratio": (inp.field.nbytes + inp.series.nbytes)
        / (len(inp.ref_field) + len(inp.ref_series)),
        "p50_ms": windowed(ranges_ref, WINDOWS, median) * 1e3,
    }
    raw = {
        "compress_gbps": median([p.write.bytes / p.write.seconds for p in passes]) / 1e9,
        "decompress_gbps": median([p.read.bytes / p.read.seconds for p in passes]) / 1e9,
        "p50_ms": windowed(ranges.ranges, WINDOWS, median) * 1e3,
    }
    return {
        "attempted": 2 + ranges.calls + sum(p.calls for p in passes),
        "failed": failed + ranges.failed + sum(p.failed for p in passes),
        "metrics": finish(metrics, END_TO_END),
        "note": {"passes": len(passes), "p99_ms": p99,
                 "latency_samples": len(ranges.ranges), "raw": raw,
                 "host_speed": speed.relative()},
    }


def _close_ranges(ranges: PassStats, ranges_ref: list, segments) -> None:
    """Scale the range reads made since the last call to the reference speed."""
    scale = segments.close()
    ranges_ref += [x * scale for x in ranges.ranges[len(ranges_ref):]]


def _traced(args, inp, backend, failed) -> dict:
    from repro import Telemetry
    from repro.core.scratch import scratch_bytes_total

    plain = run_pass(inp, backend, ranges=TRACED_RANGES)
    layers = Layers()
    tel, read_tel = Telemetry(), Telemetry()
    traced = run_pass(inp, TimingBackend(backend, layers), tel, layers,
                      ranges=TRACED_RANGES, read_telemetry=read_tel)
    m = shim_metrics(layers)
    m.update(telemetry_metrics(tel, read_tel))
    for key in ("io.writer.append_s", "io.writer.close_s", "io.reader.open_s",
                "io.reader.iter_s", "random_access.open_s", "random_access.bytes_fetched"):
        m[key] = layers.get(key)
    calls = layers.get("random_access.calls")
    m["random_access.chunks_per_call"] = (
        layers.get("kernel.decode_chunk.calls") - _iter_chunks(inp)
    ) / calls
    m["scratch.bytes"] = scratch_bytes_total()["bytes"]
    in_bytes = traced.write.bytes
    m["traffic.per_input_byte"] = m["traffic.bytes"] / in_bytes
    m["trace.overhead_frac"] = traced.wall / plain.wall - 1.0
    # Thread-pool stage spans overlap (and include GIL waits), so the
    # attribution is taken over the whole-stream reads: they decode on
    # the calling thread.
    read_stage_s = telemetry_metrics(read_tel)["_stage_s"]
    m.pop("_stage_s")
    m["trace.unattributed_frac"] = max(0.0, traced.read_cpu - read_stage_s) / traced.read_cpu
    return {
        "attempted": 2 + plain.calls + traced.calls,
        "failed": failed + plain.failed + traced.failed,
        "metrics": finish(m, PER_LAYER),
    }


def _iter_chunks(inp) -> int:
    """Per-chunk decodes made by the two whole-stream reads of a pass."""
    return -(-inp.field.size // 4096) + -(-inp.series.size // 4096)
