"""Stage L3: iterative zero-byte elimination (Figure 5).

Level 0 builds a bitmap with one bit per input byte -- cleared means the
byte is zero -- and keeps only the non-zero bytes.  The bitmap itself is
sizeable (input/8), so it is compressed further: each subsequent level
builds an 8-times-smaller bitmap over the *previous level's bitmap* in
which a cleared bit means "this byte repeats the previous byte" and only
non-repeating bytes are kept.  The paper applies the reduction 4 times,
by which point the surviving bitmap is a few bytes long (a 16 kB chunk
goes 2048 -> 256 -> 32 -> 4 -> 1 bitmap bytes).

Bitmaps are packed MSB-first; when a level's byte count is not a
multiple of 8 the trailing bits of the last bitmap byte are zero padding
(ignored on restore via an exact bit count).

Serialized layout (parsed sequentially; every segment's length is
implied by the previously decoded bitmap's popcount)::

    [top-level bitmap]
    [kept bytes of level k-1] ... [kept bytes of level 1]
    [kept bytes of level 0]           <- non-repeating bitmap-0 bytes
    [non-zero data bytes]

This is the only pipeline stage that actually shrinks the data; the
earlier stages exist solely to manufacture the zero bytes it removes
(Section III-D).
"""

from __future__ import annotations

import numpy as np

from ...errors import PFPLIntegrityError
from ..native import kernels

__all__ = [
    "zero_eliminate",
    "zero_restore",
    "repeat_eliminate",
    "repeat_restore",
    "compress_bytes",
    "decompress_bytes",
    "bitmap_sizes",
    "DEFAULT_LEVELS",
]

#: Number of repeat-elimination passes applied to the level-0 bitmap.
DEFAULT_LEVELS = 4


def _ceil8(n: int) -> int:
    return (n + 7) // 8


def bitmap_sizes(n: int, levels: int = DEFAULT_LEVELS) -> list[int]:
    """Byte length of each bitmap level for an ``n``-byte input.

    ``result[0]`` is the level-0 (zero-elimination) bitmap,
    ``result[levels]`` the final bitmap stored in the stream.
    """
    sizes = [_ceil8(n)]
    for _ in range(levels):
        sizes.append(_ceil8(sizes[-1]))
    return sizes


def _popcount_exact(bitmap: np.ndarray, n_bits: int) -> int:
    bits = np.unpackbits(np.ascontiguousarray(bitmap, dtype=np.uint8), count=n_bits)
    return int(bits.sum(dtype=np.int64))


def zero_eliminate(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split ``data`` (uint8) into (bitmap, non-zero bytes)."""
    data = np.ascontiguousarray(data, dtype=np.uint8)
    keep = data != 0
    return np.packbits(keep), data[keep]


def zero_restore(bitmap: np.ndarray, kept: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`zero_eliminate` for an ``n``-byte buffer."""
    keep = np.unpackbits(np.ascontiguousarray(bitmap, dtype=np.uint8), count=n).astype(bool)
    kept = np.ascontiguousarray(kept, dtype=np.uint8)
    if int(keep.sum(dtype=np.int64)) != kept.size:
        raise PFPLIntegrityError("zero-elimination bitmap does not match kept-byte count")
    out = np.zeros(n, dtype=np.uint8)
    out[keep] = kept
    return out


def repeat_eliminate(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split ``data`` into (bitmap, non-repeating bytes).

    A byte "repeats" when it equals its predecessor (the predecessor of
    byte 0 is defined as 0x00, so an all-zero bitmap collapses away
    entirely).  Cleared bitmap bit = repeats; set = kept.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    prev = np.empty_like(data)
    if data.size:
        prev[0] = 0
        prev[1:] = data[:-1]
    keep = data != prev
    return np.packbits(keep), data[keep]


def repeat_restore(bitmap: np.ndarray, kept: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`repeat_eliminate` (vectorized forward fill)."""
    keep = np.unpackbits(np.ascontiguousarray(bitmap, dtype=np.uint8), count=n).astype(bool)
    kept = np.ascontiguousarray(kept, dtype=np.uint8)
    if int(keep.sum(dtype=np.int64)) != kept.size:
        raise PFPLIntegrityError("repeat-elimination bitmap does not match kept-byte count")
    # out[i] = latest kept byte at or before i, seeded with 0x00.
    fill = np.concatenate(([np.uint8(0)], kept))
    idx = np.cumsum(keep, dtype=np.int64)
    return fill[idx]


def compress_bytes(data: np.ndarray, levels: int = DEFAULT_LEVELS) -> bytes:
    """Full stage-L3 encoder: zero-eliminate, then compress the bitmap.

    Runs as a one-row call of the native kernel when it is loaded.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    native = kernels()
    if native is not None:
        return native.zero_elim_rows(data.reshape(1, -1), levels)[0]
    bitmap, payload = zero_eliminate(data)
    kept_stack = []
    for _ in range(levels):
        bitmap, kept = repeat_eliminate(bitmap)
        kept_stack.append(kept)
    parts = [bitmap.tobytes()]
    for kept in reversed(kept_stack):
        parts.append(kept.tobytes())
    parts.append(payload.tobytes())
    return b"".join(parts)


def decompress_bytes(blob, n: int, levels: int = DEFAULT_LEVELS) -> np.ndarray:
    """Inverse of :func:`compress_bytes`, reproducing ``n`` bytes.

    Runs as a one-row call of the native kernel when it is loaded.
    """
    if isinstance(blob, np.ndarray):
        buf = np.ascontiguousarray(blob, dtype=np.uint8)
    else:
        # bytes / bytearray / memoryview all expose the buffer protocol:
        # wrap in place, never duplicate the chunk.
        buf = np.frombuffer(blob, dtype=np.uint8)
    native = kernels()
    if native is not None:
        return native.zero_restore_rows(buf, [0], [buf.size], n, levels)[0]
    sizes = bitmap_sizes(n, levels)
    pos = 0

    bitmap = buf[pos:pos + sizes[levels]]
    pos += sizes[levels]
    for lvl in range(levels, 0, -1):
        target_len = sizes[lvl - 1]
        n_kept = _popcount_exact(bitmap, target_len)
        kept = buf[pos:pos + n_kept]
        pos += n_kept
        bitmap = repeat_restore(bitmap, kept, target_len)
    n_kept = _popcount_exact(bitmap, n)
    payload = buf[pos:pos + n_kept]
    pos += n_kept
    if pos != buf.size:
        raise PFPLIntegrityError(f"stage L3 blob has {buf.size - pos} unexpected trailing bytes")
    return zero_restore(bitmap, payload, n)
