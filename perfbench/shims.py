"""Timing shims that enter the program only through public parameters.

:class:`TimingBackend` is passed as ``backend=`` to the public codec
calls.  It delegates everything to a real backend, times the backend
methods the codec calls (``device`` layer), and its ``make_kernel``
returns a :class:`TimedChunkKernel` (``kernel`` layer, a ``ChunkKernel``
subclass) built around a :class:`TimedQuantizer` (``quantizers``
layer).  No module of the program is edited or patched; the streams
stay byte-identical, which the workloads assert.

Every timed call records its inclusive seconds, its self seconds (minus
timed calls nested in it on the same thread), a call count and a row
count.  ``delay`` makes every kernel call busy-wait that share of its
own duration longer, which the benchmark's self-test uses to seed a
known slowdown.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from repro import ChunkKernel
from repro.telemetry import NULL_TELEMETRY


class Layers:
    """Thread-safe accumulator of per-layer timings."""

    def __init__(self, delay: float = 0.0):
        self.delay = float(delay)
        self.acc: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def call(self, key: str, fn, *args, rows: int = 0, slow: bool = False, **kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        frame = [0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if slow and self.delay:
                until = t0 + (time.perf_counter() - t0) * (1.0 + self.delay)
                while time.perf_counter() < until:
                    pass
            return result
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            with self._lock:
                acc = self.acc
                acc[key + "_s"] += dt
                acc[key + ".self_s"] += dt - frame[0]
                acc[key + ".calls"] += 1
                acc[key + ".rows"] += rows

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.acc[key] += value

    def get(self, key: str) -> float:
        with self._lock:
            return self.acc.get(key, 0.0)


class TimedQuantizer:
    """Delegating quantizer that times the four batch/chunk entry points."""

    def __init__(self, inner, layers: Layers):
        self._inner = inner
        self._layers = layers

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _encode(self, fn, src, dst):
        n_lossless = self._layers.call("quantizers.encode", fn, src, dst)
        self._layers.add("quantizers.values", src.size)
        self._layers.add("quantizers.lossless", n_lossless)
        return n_lossless

    def encode_into(self, src, dst):
        return self._encode(self._inner.encode_into, src, dst)

    def encode_batch_into(self, src, dst):
        return self._encode(self._inner.encode_batch_into, src, dst)

    def decode_into(self, words, out):
        return self._layers.call("quantizers.decode", self._inner.decode_into, words, out)

    def decode_batch_into(self, words, out):
        return self._layers.call(
            "quantizers.decode", self._inner.decode_batch_into, words, out
        )


class TimedChunkKernel(ChunkKernel):
    """``ChunkKernel`` whose four kernels are timed (and optionally slowed)."""

    def __init__(self, layers: Layers, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._layers = layers

    def encode_chunk(self, float_slice):
        return self._layers.call(
            "kernel.encode_chunk", super().encode_chunk, float_slice, rows=1, slow=True
        )

    def decode_chunk(self, blob, n_values, is_raw, out=None, pipeline_id=0):
        return self._layers.call(
            "kernel.decode_chunk", super().decode_chunk, blob, n_values, is_raw,
            out=out, pipeline_id=pipeline_id, rows=1, slow=True,
        )

    def encode_batch(self, float_block):
        return self._layers.call(
            "kernel.encode_batch", super().encode_batch, float_block,
            rows=int(float_block.shape[0]), slow=True,
        )

    def decode_batch(self, stream, starts, sizes, n_words, out=None, pipeline_id=0):
        return self._layers.call(
            "kernel.decode_batch", super().decode_batch, stream, starts, sizes,
            n_words, out=out, pipeline_id=pipeline_id, rows=len(starts), slow=True,
        )


class TimingBackend:
    """Delegating backend: times the device layer, builds timed kernels."""

    def __init__(self, inner, layers: Layers):
        self.__dict__["_inner"] = inner
        self.__dict__["_layers"] = layers

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __setattr__(self, name, value):
        # The compressor hands its telemetry to the backend; forward it
        # so the real scheduler records into the same recorder.
        setattr(self._inner, name, value)

    def make_kernel(self, quantizer, config, chunk_bytes, telemetry=NULL_TELEMETRY):
        pipeline = self._inner.make_pipeline(quantizer.layout.uint_dtype, config)
        return TimedChunkKernel(
            self._layers, TimedQuantizer(quantizer, self._layers), pipeline,
            chunk_bytes, telemetry=telemetry,
        )

    def map_batch(self, fn, n_rows, costs=None):
        return self._layers.call(
            "device.map_batch", self._inner.map_batch, fn, n_rows, costs=costs
        )

    def map_chunks(self, fn, items, costs=None):
        return self._layers.call(
            "device.map_chunks", self._inner.map_chunks, fn, items, costs=costs
        )

    def assemble(self, prefix, blobs):
        return self._layers.call("device.assemble", self._inner.assemble, prefix, blobs)

    def prefix_sum(self, sizes):
        return self._layers.call("device.prefix_sum", self._inner.prefix_sum, sizes)
