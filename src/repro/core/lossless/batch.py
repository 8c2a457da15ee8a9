"""Chunk-major ragged compaction for batched stage L3 (zero-byte elim).

The per-chunk formulation of :mod:`repro.core.lossless.zerobyte` runs a
dozen small NumPy calls per 16 kB chunk; on a multi-megabyte input the
Python dispatch of those calls, not the byte work, dominates encode time
(see ``BENCH_PR3.json``).  This module applies the *same* transformation
to all full-size chunks at once: every bitmap build, repeat-elimination
level and zero-byte split operates on one ``(n_chunks, bytes_per_chunk)``
matrix, and the only per-chunk work left is slicing each chunk's ragged
segments out of the compacted row-major arrays.

Raggedness is handled with the codec's own prefix-sum idiom
(:func:`row_offsets` mirrors ``Backend.prefix_sum``): per-row kept-byte
counts become exclusive start offsets, and :func:`ragged_gather` /
:func:`repeat_restore_batch` turn those offsets into one fancy-indexed
gather or scatter instead of a Python loop.

Every function is bit-identical to mapping its per-chunk counterpart
over the rows (golden-tested), which is what lets the batched kernel
keep the stream format and the paper's CPU/GPU compatibility story
unchanged.

:func:`compress_bytes_batch` and :func:`decompress_bytes_batch` are the
stage's dispatch points: when the native kernels are loaded
(:mod:`repro.core.native`) they run the C implementation, otherwise the
NumPy formulation below.  Both produce the same bytes.
"""

from __future__ import annotations

import numpy as np

from ...errors import PFPLIntegrityError
from ..native import kernels
from ..scratch import scratch
from .zerobyte import DEFAULT_LEVELS, bitmap_sizes

__all__ = [
    "row_offsets",
    "ragged_gather",
    "zero_eliminate_batch",
    "repeat_eliminate_batch",
    "repeat_restore_batch",
    "compress_bytes_batch",
    "decompress_bytes_batch",
]


def row_offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of per-row counts: each row's start offset.

    The same scan the backends use to place chunk blobs, reused here to
    locate every row's segment inside a row-major compacted array.
    """
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.zeros(counts.size, dtype=np.int64)
    if counts.size > 1:
        np.cumsum(counts[:-1], out=offsets[1:])
    return offsets


def ragged_gather(source: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Gather ``counts[i]`` consecutive elements from ``source[starts[i]]``.

    Returns the row-major concatenation of all segments -- the inverse
    of the prefix-sum scatter that wrote them.  Raises ``IndexError``
    (mapped to :class:`~repro.errors.PFPLIntegrityError` by callers) if
    any segment reaches past the end of ``source``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum(dtype=np.int64))
    if not total:
        return source[:0]
    starts = np.asarray(starts, dtype=np.int64)
    intra = np.arange(total, dtype=np.int64) - np.repeat(row_offsets(counts), counts)
    return source[np.repeat(starts, counts) + intra]


def zero_eliminate_batch(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise :func:`~repro.core.lossless.zerobyte.zero_eliminate`.

    ``data`` is ``(n_chunks, n)`` uint8; returns ``(bitmap_rows,
    kept_flat, kept_counts)`` where ``kept_flat`` concatenates every
    row's non-zero bytes in row order.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    keep = scratch("zerobyte.keep", data.shape, np.bool_)
    np.not_equal(data, 0, out=keep)
    return (
        np.packbits(keep, axis=1),
        data[keep],
        # row sums fit int32 (rows are <= one chunk); widen after.
        keep.sum(axis=1, dtype=np.int32).astype(np.int64),
    )


def repeat_eliminate_batch(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise :func:`~repro.core.lossless.zerobyte.repeat_eliminate`.

    Each row's predecessor chain is seeded with 0x00 exactly like the
    per-chunk version, so rows never see their neighbours.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    prev = scratch("zerobyte.prev", data.shape, np.uint8)
    keep = scratch("zerobyte.keep", data.shape, np.bool_)
    if data.size:
        prev[:, 0] = 0
        prev[:, 1:] = data[:, :-1]
    np.not_equal(data, prev, out=keep)
    return (
        np.packbits(keep, axis=1),
        data[keep],
        keep.sum(axis=1, dtype=np.int32).astype(np.int64),
    )


def repeat_restore_batch(
    keep: np.ndarray, kept_flat: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Row-wise :func:`~repro.core.lossless.zerobyte.repeat_restore`.

    ``keep`` is the ``(n_chunks, n)`` boolean keep mask (already
    unpacked), ``kept_flat``/``counts`` the compacted kept bytes.  The
    per-row forward fill becomes one gather out of a flat fill table
    with a 0x00 seed planted at every row's base offset.
    """
    counts = np.asarray(counts, dtype=np.int64)
    kept_flat = np.ascontiguousarray(kept_flat, dtype=np.uint8)
    # fill table per row: [0x00, kept...]; rows laid out back to back.
    base = row_offsets(counts + 1)
    fill = np.zeros(int(counts.sum(dtype=np.int64)) + counts.size, dtype=np.uint8)
    if kept_flat.size:
        intra = np.arange(kept_flat.size, dtype=np.int64) - np.repeat(
            row_offsets(counts), counts
        )
        fill[np.repeat(base + 1, counts) + intra] = kept_flat
    # out[r, i] = latest kept byte of row r at or before i (0x00 seed).
    rank = np.cumsum(keep, axis=1, dtype=np.int64)
    return fill[base[:, None] + rank]


def compress_bytes_batch(data: np.ndarray, levels: int = DEFAULT_LEVELS) -> list[bytes]:
    """Batched :func:`~repro.core.lossless.zerobyte.compress_bytes`.

    ``data`` is ``(n_chunks, n)`` uint8 -- one row per equal-size chunk.
    Returns each chunk's serialized stage-L3 blob, bit-identical to the
    per-chunk encoder.  All byte-level work (bitmaps, repeat levels,
    compaction) runs matrix-at-once; only the final blob slicing is per
    chunk.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    native = kernels()
    if native is not None:
        return native.zero_elim_rows(data, levels)
    n_chunks = data.shape[0]
    bitmap, payload, payload_counts = zero_eliminate_batch(data)
    kept_stack: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for _ in range(levels):
        bitmap, kept, counts = repeat_eliminate_batch(bitmap)
        kept_stack.append((kept, counts, row_offsets(counts)))
    payload_offsets = row_offsets(payload_counts)
    segments = [(bitmap, None, None)]
    segments.extend(reversed(kept_stack))
    segments.append((payload, payload_counts, payload_offsets))
    blobs = []
    for i in range(n_chunks):
        parts = []
        for flat, counts, offsets in segments:
            if counts is None:
                parts.append(flat[i].tobytes())
            else:
                lo = int(offsets[i])
                parts.append(flat[lo:lo + int(counts[i])].tobytes())
        blobs.append(b"".join(parts))
    return blobs


def decompress_bytes_batch(
    stream: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    n: int,
    levels: int = DEFAULT_LEVELS,
) -> np.ndarray:
    """Batched :func:`~repro.core.lossless.zerobyte.decompress_bytes`.

    ``stream`` is the whole payload as uint8; ``starts``/``sizes`` locate
    each chunk's blob (all chunks decode to the same ``n`` bytes, i.e.
    full-size non-raw chunks).  Returns the ``(n_chunks, n)`` restored
    byte matrix.  Corrupt blobs -- segments running past the stream or a
    byte count that disagrees with the size table -- raise
    :class:`~repro.errors.PFPLIntegrityError` before any output is used,
    matching the per-chunk decoder's guarantees.
    """
    native = kernels()
    if native is not None:
        return native.zero_restore_rows(stream, starts, sizes, n, levels)
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    level_sizes = bitmap_sizes(n, levels)
    top = level_sizes[levels]
    pos = starts + top
    try:
        bitmap = stream[starts[:, None] + np.arange(top, dtype=np.int64)]
        for lvl in range(levels, 0, -1):
            target = level_sizes[lvl - 1]
            keep = np.unpackbits(bitmap, axis=1, count=target).astype(bool)
            counts = keep.sum(axis=1, dtype=np.int64)
            kept = ragged_gather(stream, pos, counts)
            pos = pos + counts
            bitmap = repeat_restore_batch(keep, kept, counts)
        keep = np.unpackbits(bitmap, axis=1, count=n).astype(bool)
        counts = keep.sum(axis=1, dtype=np.int64)
        payload = ragged_gather(stream, pos, counts)
        pos = pos + counts
    except IndexError as exc:
        raise PFPLIntegrityError(
            f"stage L3 batch decode reads past the stream: {exc}"
        ) from exc
    ends = starts + sizes
    if not np.array_equal(pos, ends):
        bad = int(np.argmax(pos != ends))
        raise PFPLIntegrityError(
            f"stage L3 blob of batched chunk {bad} spans "
            f"{int(pos[bad] - starts[bad])} bytes, size table claims "
            f"{int(sizes[bad])}"
        )
    out = np.zeros((starts.size, n), dtype=np.uint8)
    out[keep] = payload
    return out
