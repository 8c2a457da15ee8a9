"""Stage L2: bit shuffle (bit-plane transposition) within a chunk.

The shuffle emits the most-significant bit of every word, then the
second-most-significant bit of every word, and so on (Figure 4).  After
delta+negabinary, consecutive residuals share '0' bits in the same
positions, so transposition turns them into *long runs* of zero bits --
i.e. long runs of zero *bytes*, which stage L3 deletes.

On the GPU the paper implements this at warp granularity with
``log2(wordsize)`` register-shuffle steps; the CPU uses the same
data layout.  Both are modeled here by a single vectorized transpose
whose output layout is identical to the warp version, so all backends
produce the same bytes.

The word count must be a multiple of 8 so each bit-plane packs into
whole bytes (the chunker pads the tail chunk to guarantee this).

When the native kernels are loaded (:mod:`repro.core.native`) every
function here runs the C transpose -- the per-chunk pair as one-row
calls -- and the NumPy formulation below is the portable fallback.
"""

from __future__ import annotations

import numpy as np

from ...errors import PFPLIntegrityError, PFPLUsageError
from ..native import kernels
from ..scratch import scratch

__all__ = ["bitshuffle", "bitunshuffle", "bitshuffle_batch", "bitunshuffle_batch"]

#: Delta-swap (mask, shift) rounds of the classic 8x8 bit-matrix
#: transpose (Hacker's Delight 7-3): three rounds swap bit (8i+j) with
#: bit (8j+i) of a 64-bit word holding an 8x8 block of bits.
_TRANSPOSE8_ROUNDS = (
    (np.uint64(0x00AA00AA00AA00AA), np.uint64(7)),
    (np.uint64(0x0000CCCC0000CCCC), np.uint64(14)),
    (np.uint64(0x00000000F0F0F0F0), np.uint64(28)),
)


def _transpose8_blocks(x: np.ndarray) -> None:
    """In-place 8x8 bit transpose of every aligned 8-byte block of ``x``.

    ``x`` is a flat uint64 array; each element is treated as an 8x8 bit
    matrix (byte ``j`` of the *little-endian* value = matrix row ``j``,
    bit ``7-c`` of that byte = column ``c``).  After the call, block byte
    ``k`` holds bit ``7-k`` of the original bytes 0..7 packed MSB-first
    -- exactly one byte of each of 8 adjacent bit-planes.  The operation
    is an involution, so encode and decode share it.

    The byteswap conjugation maps our MSB-first plane convention onto
    the standard transpose's bit order; everything runs in reused
    scratch so a call is allocation-free once warm.
    """
    tmp = scratch("bitshuffle.t8", x.size, np.uint64)
    x.byteswap(inplace=True)
    for mask, shift in _TRANSPOSE8_ROUNDS:
        np.right_shift(x, shift, out=tmp)
        np.bitwise_xor(tmp, x, out=tmp)
        np.bitwise_and(tmp, mask, out=tmp)
        np.bitwise_xor(x, tmp, out=x)
        np.left_shift(tmp, shift, out=tmp)
        np.bitwise_xor(x, tmp, out=x)
    x.byteswap(inplace=True)


def _check(words: np.ndarray) -> tuple[np.ndarray, int]:
    words = np.ascontiguousarray(words)
    if words.dtype == np.dtype(np.uint32):
        width = 32
    elif words.dtype == np.dtype(np.uint64):
        width = 64
    else:
        raise TypeError(f"bit shuffle expects uint32/uint64 words, got {words.dtype}")
    if words.size % 8:
        raise PFPLUsageError(f"bit shuffle needs a multiple of 8 words, got {words.size}")
    return words, width


def bitshuffle(words: np.ndarray) -> np.ndarray:
    """Transpose an n-word chunk into ``width`` bit-planes (MSB first).

    Returns a uint8 array of the same total byte size: plane ``p`` holds
    bit ``width-1-p`` of every word, packed 8 bits per byte in word order.
    """
    words, width = _check(words)
    n = words.size
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    native = kernels()
    if native is not None:
        out = np.empty(words.nbytes, dtype=np.uint8)
        native.bitshuffle_rows(words.reshape(1, n), out.reshape(1, -1))
        return out
    # Big-endian byte view => unpackbits yields MSB-first bits per word.
    be = words.astype(words.dtype.newbyteorder(">"), copy=False)
    bits = np.unpackbits(be.view(np.uint8)).reshape(n, width)
    return np.packbits(bits.T)


def bitunshuffle(planes: np.ndarray, n_words: int, dtype) -> np.ndarray:
    """Inverse of :func:`bitshuffle`.

    Parameters
    ----------
    planes:
        The uint8 output of :func:`bitshuffle`.
    n_words:
        Number of words in the original chunk (multiple of 8).
    dtype:
        ``np.uint32`` or ``np.uint64``.
    """
    dt = np.dtype(dtype)
    width = dt.itemsize * 8
    planes = np.ascontiguousarray(planes, dtype=np.uint8)
    if n_words == 0:
        return np.empty(0, dtype=dt)
    if planes.size * 8 != n_words * width:
        raise PFPLIntegrityError(
            f"plane buffer holds {planes.size * 8} bits, expected {n_words * width}"
        )
    if n_words % 8:
        raise PFPLIntegrityError(f"plane buffer decodes to {n_words} words, not a multiple of 8")
    native = kernels()
    if native is not None:
        words = np.empty(n_words, dtype=dt)
        native.bitunshuffle_rows(planes.reshape(1, -1), words.reshape(1, -1))
        return words
    bits = np.unpackbits(planes).reshape(width, n_words)
    packed = np.packbits(bits.T)
    return packed.view(dt.newbyteorder(">")).astype(dt)


def bitshuffle_batch(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise :func:`bitshuffle` over a ``(n_chunks, n_words)`` matrix.

    Each chunk is transposed into its own bit-planes (rows never mix),
    so row ``i`` of the returned ``(n_chunks, n_words * itemsize)`` uint8
    matrix equals ``bitshuffle(words[i])``.  ``out`` (contiguous uint8 of
    that shape) receives the planes in place when given.
    """
    mat, width = _check_batch(words)
    n_chunks, n = mat.shape
    s = width // 8
    if out is None:
        out = np.empty((n_chunks, n * s), dtype=np.uint8)
    elif (out.shape != (n_chunks, n * s) or out.dtype != np.dtype(np.uint8)
          or not out.flags.c_contiguous):
        raise PFPLUsageError(
            f"bit shuffle out buffer must be contiguous uint8 "
            f"({n_chunks}, {n * s}), got {out.dtype}{out.shape}"
        )
    if n == 0:
        return out
    native = kernels()
    if native is not None:
        native.bitshuffle_rows(mat, out)
        return out
    out4 = out.reshape(n_chunks, s, 8, n // 8)
    # After delta+negabinary the residual words are small, so the top
    # big-endian byte planes are usually zero across the whole block:
    # one cheap max tells how many, and those planes transpose to zeros
    # without touching the bit machinery.
    gmax = int(mat.max())
    lead = s if gmax == 0 else s - (gmax.bit_length() + 7) // 8
    if lead:
        out4[:, :lead] = 0
    if lead < s:
        active = s - lead
        # 1. Byte-plane split: plane j = big-endian byte j of every word
        #    (little-endian memory, so byte s-1-j of the native view).
        raw = mat.view(np.uint8).reshape(n_chunks, n, s)
        planes = scratch("bitshuffle.planes", (n_chunks, active, n), np.uint8)
        for j in range(lead, s):
            planes[:, j - lead, :] = raw[:, :, s - 1 - j]
        # 2. Bit-plane split within each byte plane: one 8x8 bit
        #    transpose per group of 8 bytes (never materializes the
        #    n*width bit array, which needs 8 bytes per bit plus a
        #    hostile strided copy).
        _transpose8_blocks(planes.reshape(-1).view(np.uint64))
        # 3. Regroup: byte k of every 8-block belongs to sub-plane k.
        grouped = planes.reshape(n_chunks, active, n // 8, 8)
        for k in range(8):
            out4[:, lead:, k, :] = grouped[:, :, :, k]
    return out


def bitunshuffle_batch(planes: np.ndarray, dtype) -> np.ndarray:
    """Row-wise :func:`bitunshuffle`: ``(n_chunks, n_bytes)`` -> words.

    ``n_words`` is implied by the row width (full-size chunks all share
    one geometry, so no per-row count is needed).
    """
    dt = np.dtype(dtype)
    width = dt.itemsize * 8
    planes = np.ascontiguousarray(planes, dtype=np.uint8)
    n_chunks, n_bytes = planes.shape
    if n_bytes == 0:
        return np.empty((n_chunks, 0), dtype=dt)
    if n_bytes % dt.itemsize:
        raise PFPLIntegrityError(
            f"plane rows hold {n_bytes} bytes, not a multiple of {dt.itemsize}"
        )
    n_words = n_bytes // dt.itemsize
    if n_words % 8:
        raise PFPLIntegrityError(
            f"plane rows decode to {n_words} words, not a multiple of 8"
        )
    native = kernels()
    if native is not None:
        words = np.empty((n_chunks, n_words), dtype=dt)
        native.bitunshuffle_rows(planes, words)
        return words
    s = dt.itemsize
    # Exact inverse of bitshuffle_batch: ungroup sub-planes, transpose
    # the 8x8 bit blocks back (involution), re-interleave byte planes.
    grouped = scratch("bitshuffle.ungroup", (n_chunks, s, n_words // 8, 8), np.uint8)
    split = planes.reshape(n_chunks, s, 8, n_words // 8)
    for k in range(8):
        grouped[:, :, :, k] = split[:, :, k, :]
    _transpose8_blocks(grouped.reshape(-1).view(np.uint64))
    words = np.empty((n_chunks, n_words), dtype=dt)
    raw = words.view(np.uint8).reshape(n_chunks, n_words, s)
    byte_planes = grouped.reshape(n_chunks, s, n_words)
    for j in range(s):
        raw[:, :, s - 1 - j] = byte_planes[:, j, :]
    return words


def _check_batch(words: np.ndarray) -> tuple[np.ndarray, int]:
    """2-D variant of :func:`_check`: validates dtype and row width."""
    words = np.ascontiguousarray(words)
    if words.dtype == np.dtype(np.uint32):
        width = 32
    elif words.dtype == np.dtype(np.uint64):
        width = 64
    else:
        raise TypeError(f"bit shuffle expects uint32/uint64 words, got {words.dtype}")
    if words.ndim != 2:
        raise PFPLUsageError(f"batch bit shuffle expects a 2-D matrix, got {words.ndim}-D")
    if words.shape[1] % 8:
        raise PFPLUsageError(
            f"bit shuffle needs a multiple of 8 words per chunk, got {words.shape[1]}"
        )
    return words, width
