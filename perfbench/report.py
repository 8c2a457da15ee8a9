"""Metric names, units, and the per-layer figures read from the shims and
from the program's own telemetry.

Every workload reports every name in :data:`END_TO_END` (untraced runs)
and in :data:`PER_LAYER` (traced runs).  A layer a workload does not
exercise reads 0 there: no time was spent in it and no call made.
"""

from __future__ import annotations

from harness import median, quantile

#: name -> unit, in the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "compress_gbps": "GB/s",
    "decompress_gbps": "GB/s",
    "ratio": "x",
    "p50_ms": "ms",
}

#: Program-reported stage names -> benchmark names.
STAGES = {
    "delta+negabinary": "delta",
    "bitshuffle": "bitshuffle",
    "zero-elim": "zero_elim",
    "zero-restore": "zero_restore",
    "bitunshuffle": "bitunshuffle",
    "delta-decode": "delta_decode",
}
VARIANTS = ("default", "no-shuffle", "direct-zero")
KERNELS = ("encode_batch", "encode_chunk", "decode_batch", "decode_chunk")
DEVICE_CALLS = ("map_batch", "map_chunks", "assemble", "prefix_sum")


def _per_layer_units() -> dict[str, str]:
    u: dict[str, str] = {
        "quantizers.encode_s": "s",
        "quantizers.decode_s": "s",
        "quantizers.lossless_frac": "ratio",
        "lossless.encode_s": "s",
        "lossless.decode_s": "s",
    }
    for stage in STAGES.values():
        u[f"lossless.{stage}_s"] = "s"
        u[f"lossless.{stage}.bytes_in"] = "bytes"
        u[f"lossless.{stage}.bytes_out"] = "bytes"
    for variant in VARIANTS:
        u[f"select.zero_elim_s.{variant}"] = "s"
    for variant in VARIANTS + ("raw",):
        u[f"select.rate.{variant}"] = "ratio"
    u["chunking.raw_frac"] = "ratio"
    for k in KERNELS:
        u[f"kernel.{k}_s"] = "s"
        u[f"kernel.{k}.calls"] = "count"
        u[f"kernel.{k}.rows"] = "count"
    u.update({
        "compressor.self_s": "s",
        "compressor.calls": "count",
        "random_access.open_s": "s",
        "random_access.chunks_per_call": "count",
        "random_access.bytes_fetched": "bytes",
        "io.writer.append_s": "s",
        "io.writer.close_s": "s",
        "io.reader.open_s": "s",
        "io.reader.iter_s": "s",
    })
    for call in DEVICE_CALLS:
        u[f"device.{call}_s"] = "s"
    u.update({
        "device.calls": "count",
        "device.speedup.omp": "x",
        "device.speedup.procpool": "x",
        "device.procpool.offload_s": "s",
        "device.procpool.worker_kernel_s": "s",
        "service.queue_wait_ms.p50": "ms",
        "service.queue_wait_ms.p99": "ms",
        "service.handler_ms.p50": "ms",
        "service.handler_ms.p99": "ms",
        "service.outside_ms.p50": "ms",
        "service.outside_ms.p99": "ms",
        "service.rejected": "count",
        "service.errors": "count",
        "procpool.arena_bytes": "bytes",
        "req_p50_ms.low": "ms",
        "req_p99_ms.low": "ms",
        "req_p50_ms.high": "ms",
        "req_p99_ms.high": "ms",
        "max_rps": "req/s",
        "gen.late_ms.p99": "ms",
        "gen.cap_wait_ms.p99": "ms",
        "scratch.bytes": "bytes",
        "traffic.bytes": "bytes",
        "traffic.per_input_byte": "ratio",
        "trace.overhead_frac": "ratio",
        "trace.unattributed_frac": "ratio",
        "host.other_cpu_frac": "ratio",
    })
    return u


PER_LAYER = _per_layer_units()


def finish(values: dict[str, float], units: dict[str, str]) -> dict:
    """``{name: {"value", "unit"}}`` over every name in ``units`` (0 if absent)."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }


def windowed(samples: list, windows: int, fn) -> float:
    """Median of ``fn`` over ``windows`` consecutive slices of ``samples``.

    A host that is busy for part of a run moves a minority of the
    windows and so leaves the median alone.
    """
    n = len(samples)
    parts = [samples[i * n // windows:(i + 1) * n // windows] for i in range(windows)]
    return median([fn(part) for part in parts if part])


def latency_ms(samples_s) -> tuple[float, float]:
    """``(p50, p99)`` in milliseconds of a list of seconds."""
    ms = [s * 1e3 for s in samples_s]
    return median(ms), quantile(ms, 0.99)


def shim_metrics(layers) -> dict[str, float]:
    """Quantizer, kernel, lossless and device figures from the shims."""
    g = layers.get
    out = {
        "quantizers.encode_s": g("quantizers.encode_s"),
        "quantizers.decode_s": g("quantizers.decode_s"),
    }
    values = g("quantizers.values")
    out["quantizers.lossless_frac"] = g("quantizers.lossless") / values if values else 0.0
    for k in KERNELS:
        out[f"kernel.{k}_s"] = g(f"kernel.{k}_s")
        out[f"kernel.{k}.calls"] = g(f"kernel.{k}.calls")
        out[f"kernel.{k}.rows"] = g(f"kernel.{k}.rows")
    # Kernel time minus the quantizer inside it: the lossless stages
    # plus chunk framing (raw fallback, selection).
    out["lossless.encode_s"] = max(
        0.0, g("kernel.encode_batch_s") + g("kernel.encode_chunk_s") - out["quantizers.encode_s"]
    )
    out["lossless.decode_s"] = max(
        0.0, g("kernel.decode_batch_s") + g("kernel.decode_chunk_s") - out["quantizers.decode_s"]
    )
    calls = 0.0
    for call in DEVICE_CALLS:
        out[f"device.{call}_s"] = g(f"device.{call}_s")
        calls += g(f"device.{call}.calls")
    out["device.calls"] = calls
    return out


def telemetry_metrics(*tels) -> dict[str, float]:
    """Program-reported stage split and per-variant selection time, summed
    over one or more recorders (``_stage_s``: all stage seconds)."""
    out: dict[str, float] = {}
    stage_s = 0.0
    traffic = 0.0
    for tel in tels:
        for cat in ("encode", "decode"):
            for stage, row in tel.stage_table(cat).items():
                stage_s += row["seconds"]
                traffic += row["bytes_in"] + row["bytes_out"]
                name = STAGES.get(stage)
                if name is None:
                    continue
                for key, field in ((f"lossless.{name}_s", "seconds"),
                                   (f"lossless.{name}.bytes_in", "bytes_in"),
                                   (f"lossless.{name}.bytes_out", "bytes_out")):
                    out[key] = out.get(key, 0.0) + row[field]
        for rec in tel.spans:
            if rec.name == "zero-elim" and "pipeline" in rec.args:
                key = f"select.zero_elim_s.{rec.args['pipeline']}"
                out[key] = out.get(key, 0.0) + rec.duration
    out["traffic.bytes"] = traffic
    out["_stage_s"] = stage_s
    return out


def chunk_shares(streams) -> dict[str, float]:
    """Share of chunks per stored variant and raw, from the size tables."""
    from repro.core.chunking import ChunkCodec
    from repro.core.header import Header

    counts = dict.fromkeys(VARIANTS + ("raw",), 0)
    for stream in streams:
        header = Header.unpack(stream)
        _, raw, pids, _ = ChunkCodec.parse_size_table(
            header.read_size_table(stream), header.pipeline_select
        )
        counts["raw"] += int(raw.sum())
        for pid, variant in enumerate(VARIANTS):
            counts[variant] += int(((pids == pid) & ~raw).sum())
    total = sum(counts.values())
    return {v: (c / total if total else 0.0) for v, c in counts.items()}


def chunking_metrics(all_streams, selected_streams) -> dict[str, float]:
    """``chunking.raw_frac`` over every stream, ``select.rate.*`` over v3 ones."""
    out = {f"select.rate.{v}": s for v, s in chunk_shares(selected_streams).items()}
    out["chunking.raw_frac"] = chunk_shares(all_streams)["raw"]
    return out
