/*
 * Native kernels for PFPL's integer lossless stages.
 *
 *   zero_elim_rows / zero_restore_rows      stage L3 (zero-byte elimination
 *                                           with iterated repeat-eliminated
 *                                           bitmaps, Figure 5)
 *   bitshuffle_rows / bitunshuffle_rows     stage L2 (bit-plane transpose,
 *                                           Figure 4), 32- and 64-bit words
 *
 * Every kernel works row-wise on a chunk-major matrix (one row per chunk)
 * and produces exactly the bytes of the NumPy reference implementation in
 * repro.core.lossless (zerobyte.py, batch.py, bitshuffle.py); the test
 * suite compares the two byte for byte.
 *
 * The kernels are integer-only and reentrant: they keep no static state
 * and write only to buffers the caller passes in, so any number of
 * threads may run them at once.  The caller validates dtype, shape and
 * contiguity; zero_restore_rows additionally treats the stream, the blob
 * extents and every segment inside a blob as hostile and never reads
 * outside [stream, stream + stream_len).
 *
 * Build: cc -O3 -fPIC -shared -ffp-contract=off (no -ffast-math).
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the PFPL native kernels assume a little-endian host"
#endif

/* zero_restore_rows failure kinds (reported through info[0]). */
#define PFPL_BAD_EXTENT 1   /* blob start/size outside the stream       */
#define PFPL_OVERRUN 2      /* a segment reaches past the blob's end    */
#define PFPL_TRAILING 3     /* bytes left over after the last segment   */

static const uint64_t LOW7 = 0x7F7F7F7F7F7F7F7FULL;
static const uint64_t HIGH1 = 0x8080808080808080ULL;
/* Gathers bit 8j (j = 0..7) of a word into bit 63-j: byte j of a
 * little-endian block becomes bitmap bit 7-j (MSB first). */
static const uint64_t GATHER = 0x8040201008040201ULL;

static int64_t ceil8(int64_t n) { return (n + 7) >> 3; }

static int clamp_levels(int levels) { return levels < 0 ? 0 : levels; }

/* Sum of the bitmap sizes of levels [0, upto], level 0 covering n bytes. */
static int64_t bitmap_total(int64_t n, int upto)
{
    int64_t total = 0, s = n;
    for (int l = 0; l <= upto; l++) {
        s = ceil8(s);
        total += s;
    }
    return total;
}

/* Byte size of the level-l bitmap of an n-byte row. */
static int64_t level_size(int64_t n, int l)
{
    int64_t s = n;
    for (int i = 0; i <= l; i++)
        s = ceil8(s);
    return s;
}

/* Largest blob zero_elim_rows can emit for an n-byte row: every byte and
 * every bitmap byte kept. */
int64_t pfpl_zero_elim_bound(int64_t n, int levels)
{
    return n + bitmap_total(n, clamp_levels(levels));
}

int64_t pfpl_zero_elim_scratch(int64_t n, int levels)
{
    levels = clamp_levels(levels);
    return 8 * (int64_t)(levels + 1) + n + 2 * bitmap_total(n, levels);
}

int64_t pfpl_zero_restore_scratch(int64_t n, int levels)
{
    levels = clamp_levels(levels);
    return levels ? bitmap_total(n, levels - 1) : 0;
}

/* Popcount of the first nbits bits of an MSB-first bitmap (trailing pad
 * bits of the last byte are ignored, like np.unpackbits(count=)). */
static int64_t popcount_bits(const uint8_t *bm, int64_t nbits)
{
    int64_t full = nbits >> 3, i = 0, c = 0;
    for (; i + 8 <= full; i += 8) {
        uint64_t x;
        memcpy(&x, bm + i, 8);
        c += __builtin_popcountll(x);
    }
    for (; i < full; i++)
        c += __builtin_popcount(bm[i]);
    int rem = (int)(nbits & 7);
    if (rem)
        c += __builtin_popcount(bm[full] & (0xFF00u >> rem) & 0xFFu);
    return c;
}

/*
 * Stage L3 encode.  Row r of `in` (n bytes) becomes the blob
 *   [top bitmap][kept of level L]...[kept of level 1][non-zero bytes]
 * written at out + r * out_stride; its length goes to out_sizes[r].
 * out_stride >= pfpl_zero_elim_bound(n, levels); scratch holds
 * pfpl_zero_elim_scratch(n, levels) bytes, 8-byte aligned.
 */
void zero_elim_rows(const uint8_t *in, int64_t rows, int64_t n, int levels,
                    uint8_t *out, int64_t out_stride, int64_t *out_sizes,
                    uint8_t *scratch)
{
    levels = clamp_levels(levels);
    int64_t *counts = (int64_t *)scratch;
    uint8_t *payload = scratch + 8 * (int64_t)(levels + 1);
    uint8_t *bitmaps = payload + n;
    uint8_t *kept = bitmaps + bitmap_total(n, levels);
    int64_t full = n >> 3, rem = n & 7;

    for (int64_t r = 0; r < rows; r++) {
        const uint8_t *src = in + r * n;
        uint8_t *bm0 = bitmaps;
        int64_t np = 0;

        /* Level 0: bitmap of non-zero bytes plus compaction. */
        for (int64_t i = 0; i < full; i++) {
            uint64_t x;
            memcpy(&x, src + 8 * i, 8);
            if (!x) {
                bm0[i] = 0;
                continue;
            }
            uint64_t nz = (((x & LOW7) + LOW7) | x) & HIGH1;
            bm0[i] = (uint8_t)(((nz >> 7) * GATHER) >> 56);
            if (nz == HIGH1) {
                memcpy(payload + np, src + 8 * i, 8);
                np += 8;
            } else {
                for (int j = 0; j < 8; j++) {
                    uint8_t v = src[8 * i + j];
                    payload[np] = v;
                    np += v != 0;
                }
            }
        }
        if (rem) {
            uint8_t b = 0;
            for (int j = 0; j < rem; j++) {
                uint8_t v = src[8 * full + j];
                if (v) {
                    b |= (uint8_t)(0x80u >> j);
                    payload[np++] = v;
                }
            }
            bm0[full] = b;
        }

        /* Levels 1..L: repeat-eliminate the previous bitmap. */
        const uint8_t *cur = bm0;
        int64_t cur_len = ceil8(n), nkept = 0;
        uint8_t *next = bm0 + cur_len;
        for (int l = 1; l <= levels; l++) {
            int64_t next_len = ceil8(cur_len), c = 0;
            uint8_t *kp = kept + nkept, prev = 0;
            memset(next, 0, (size_t)next_len);
            for (int64_t i = 0; i < cur_len; i++) {
                uint8_t b = cur[i];
                if (b != prev) {
                    next[i >> 3] |= (uint8_t)(0x80u >> (i & 7));
                    kp[c++] = b;
                    prev = b;
                }
            }
            counts[l] = c;
            nkept += c;
            cur = next;
            cur_len = next_len;
            next += next_len;
        }

        /* Serialize: top bitmap, kept lists from level L down, payload. */
        uint8_t *o = out + r * out_stride;
        int64_t pos = cur_len;
        memcpy(o, cur, (size_t)cur_len);
        for (int l = levels; l >= 1; l--) {
            nkept -= counts[l];
            memcpy(o + pos, kept + nkept, (size_t)counts[l]);
            pos += counts[l];
        }
        memcpy(o + pos, payload, (size_t)np);
        out_sizes[r] = pos + np;
    }
}

/* out[i] = latest byte of `kept` whose bitmap bit is set at or before i
 * (0x00 before the first); tgt output bytes. */
static void repeat_restore(const uint8_t *bm, const uint8_t *kept,
                           uint8_t *dst, int64_t tgt)
{
    uint8_t prev = 0;
    int64_t k = 0;
    for (int64_t i = 0; i < tgt; i++) {
        if (bm[i >> 3] & (0x80u >> (i & 7)))
            prev = kept[k++];
        dst[i] = prev;
    }
}

/*
 * Stage L3 decode.  Blob r occupies stream[starts[r], starts[r] + sizes[r])
 * and restores to n bytes at out + r * n.  Returns -1 on success, else the
 * first bad row, with info[0] = failure kind and info[1] = the bytes the
 * blob's bitmaps account for up to the failure.  Nothing is read outside
 * the stream.  scratch holds pfpl_zero_restore_scratch(n, levels) bytes.
 */
int64_t zero_restore_rows(const uint8_t *stream, int64_t stream_len,
                          const int64_t *starts, const int64_t *sizes,
                          int64_t rows, int64_t n, int levels, uint8_t *out,
                          uint8_t *scratch, int64_t *info)
{
    levels = clamp_levels(levels);
    int64_t top = level_size(n, levels), full = n >> 3, rem = n & 7;

    for (int64_t r = 0; r < rows; r++) {
        int64_t start = starts[r], size = sizes[r];
        info[1] = 0;
        if (start < 0 || size < 0 || start > stream_len
            || size > stream_len - start) {
            info[0] = PFPL_BAD_EXTENT;
            return r;
        }
        const uint8_t *blob = stream + start;
        int64_t pos = top;
        if (top > size) {
            info[0] = PFPL_OVERRUN;
            return r;
        }
        const uint8_t *bm = blob;
        uint8_t *dst = scratch;
        for (int l = levels; l >= 1; l--) {
            int64_t tgt = level_size(n, l - 1);
            int64_t c = popcount_bits(bm, tgt);
            if (c > size - pos) {
                info[0] = PFPL_OVERRUN;
                info[1] = pos;
                return r;
            }
            repeat_restore(bm, blob + pos, dst, tgt);
            pos += c;
            bm = dst;
            dst += tgt;
        }
        int64_t np = popcount_bits(bm, n);
        if (np > size - pos) {
            info[0] = PFPL_OVERRUN;
            info[1] = pos;
            return r;
        }
        const uint8_t *payload = blob + pos;
        pos += np;
        if (pos != size) {
            info[0] = PFPL_TRAILING;
            info[1] = pos;
            return r;
        }

        uint8_t *o = out + r * n;
        int64_t k = 0;
        for (int64_t i = 0; i < full; i++) {
            uint8_t b = bm[i];
            if (b == 0) {
                memset(o + 8 * i, 0, 8);
            } else if (b == 0xFF) {
                memcpy(o + 8 * i, payload + k, 8);
                k += 8;
            } else {
                /* Branchless: every lane reads a byte inside the payload
                 * (the mixed byte has a set bit, so np >= 1) and masks it. */
                for (int j = 0; j < 8; j++) {
                    unsigned bit = (b >> (7 - j)) & 1u;
                    uint8_t v = payload[k < np ? k : np - 1];
                    o[8 * i + j] = (uint8_t)(v & (0u - bit));
                    k += bit;
                }
            }
        }
        for (int j = 0; j < rem; j++)
            o[8 * full + j] = (bm[full] & (0x80u >> j)) ? payload[k++] : 0;
    }
    return -1;
}

/* 8x8 bit-matrix transpose (Hacker's Delight 7-3): row i is byte i counted
 * from the most significant end, column c is bit 7-c of that byte.  An
 * involution, so shuffle and unshuffle share it. */
static uint64_t transpose8(uint64_t x)
{
    uint64_t t;
    t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
    x ^= t ^ (t << 28);
    return x;
}

static uint64_t load_word(const uint8_t *p, int word_bytes)
{
    if (word_bytes == 4) {
        uint32_t w;
        memcpy(&w, p, 4);
        return w;
    }
    uint64_t w;
    memcpy(&w, p, 8);
    return w;
}

static void store_word(uint8_t *p, uint64_t w, int word_bytes)
{
    if (word_bytes == 4) {
        uint32_t v = (uint32_t)w;
        memcpy(p, &v, 4);
    } else {
        memcpy(p, &w, 8);
    }
}

/* Scalar stage-L2 encode of the 8-word group k of one row. */
static void shuffle_group(const uint8_t *src, uint8_t *dst, int64_t nb,
                          int64_t k, int word_bytes)
{
    int width = 8 * word_bytes;
    uint64_t w[8], any = 0;
    for (int j = 0; j < 8; j++) {
        w[j] = load_word(src + (8 * k + j) * word_bytes, word_bytes);
        any |= w[j];
    }
    for (int b = 0; b < word_bytes; b++) {
        uint8_t *plane = dst + (int64_t)(width - 1 - 8 * b) * nb + k;
        uint64_t x = 0;
        if ((any >> (8 * b)) & 0xFF) {
            for (int j = 0; j < 8; j++)
                x |= ((w[j] >> (8 * b)) & 0xFF) << (56 - 8 * j);
            x = transpose8(x);
        }
        for (int c = 0; c < 8; c++)
            plane[-c * nb] = (uint8_t)(x >> (8 * c));
    }
}

/* Scalar stage-L2 decode of the 8-word group k of one row. */
static void unshuffle_group(const uint8_t *src, uint8_t *dst, int64_t nb,
                            int64_t k, int word_bytes)
{
    int width = 8 * word_bytes;
    uint64_t w[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (int b = 0; b < word_bytes; b++) {
        const uint8_t *plane = src + (int64_t)(width - 1 - 8 * b) * nb + k;
        uint64_t x = 0;
        for (int c = 0; c < 8; c++)
            x |= (uint64_t)plane[-c * nb] << (8 * c);
        if (!x)
            continue;
        x = transpose8(x);
        for (int j = 0; j < 8; j++)
            w[j] |= ((x >> (56 - 8 * j)) & 0xFF) << (8 * b);
    }
    for (int j = 0; j < 8; j++)
        store_word(dst + (8 * k + j) * word_bytes, w[j], word_bytes);
}

#if defined(__SSE2__) && !defined(PFPL_SCALAR)
#include <emmintrin.h>

/*
 * SSE2 path: 16 words (groups k, k+1) at a time.  The words are loaded in
 * "lane order" -- words 7..0 of group k, then 15..8 -- so that after a
 * byte transpose, _mm_movemask_epi8 of byte plane b yields the plane
 * byte of group k in its low 8 bits (word j at bit 7-j, MSB first) and
 * that of group k+1 in its high 8 bits.  Each _mm_add_epi8(v, v) moves
 * the next lower bit of every byte into its sign bit.
 */

/* q[i] holds lanes 4i..4i+3 as 4-byte values; v[b] = byte b of lanes 0..15. */
static void byte_planes_16x4(const __m128i q[4], __m128i v[4])
{
    __m128i t0 = _mm_unpacklo_epi8(q[0], q[1]), t1 = _mm_unpackhi_epi8(q[0], q[1]);
    __m128i t2 = _mm_unpacklo_epi8(q[2], q[3]), t3 = _mm_unpackhi_epi8(q[2], q[3]);
    __m128i u0 = _mm_unpacklo_epi8(t0, t1), u1 = _mm_unpackhi_epi8(t0, t1);
    __m128i u2 = _mm_unpacklo_epi8(t2, t3), u3 = _mm_unpackhi_epi8(t2, t3);
    __m128i w0 = _mm_unpacklo_epi8(u0, u1), w1 = _mm_unpackhi_epi8(u0, u1);
    __m128i w2 = _mm_unpacklo_epi8(u2, u3), w3 = _mm_unpackhi_epi8(u2, u3);
    v[0] = _mm_unpacklo_epi64(w0, w2);
    v[1] = _mm_unpackhi_epi64(w0, w2);
    v[2] = _mm_unpacklo_epi64(w1, w3);
    v[3] = _mm_unpackhi_epi64(w1, w3);
}

#define REVERSE32 _MM_SHUFFLE(0, 1, 2, 3)
#define REVERSE64 _MM_SHUFFLE(1, 0, 3, 2)

static void shuffle_pair_sse2(const uint8_t *src, uint8_t *dst, int64_t nb,
                              int64_t k, int word_bytes)
{
    int width = 8 * word_bytes;
    const uint8_t *p = src + 8 * k * word_bytes;
    __m128i v[8];
    if (word_bytes == 4) {
        __m128i q[4];
        q[0] = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)(p + 16)), REVERSE32);
        q[1] = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)(p + 0)), REVERSE32);
        q[2] = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)(p + 48)), REVERSE32);
        q[3] = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)(p + 32)), REVERSE32);
        byte_planes_16x4(q, v);
    } else {
        /* Lane pairs (2i, 2i+1) are words (7-2i, 6-2i) of each group. */
        static const int order[8] = {3, 2, 1, 0, 7, 6, 5, 4};
        __m128i q[8], lo[4], hi[4];
        for (int i = 0; i < 8; i++)
            q[i] = _mm_shuffle_epi32(
                _mm_loadu_si128((const __m128i *)(p + 16 * order[i])), REVERSE64);
        for (int i = 0; i < 4; i++) {
            __m128i x = _mm_unpacklo_epi32(q[2 * i], q[2 * i + 1]);
            __m128i y = _mm_unpackhi_epi32(q[2 * i], q[2 * i + 1]);
            lo[i] = _mm_unpacklo_epi32(x, y);
            hi[i] = _mm_unpackhi_epi32(x, y);
        }
        byte_planes_16x4(lo, v);
        byte_planes_16x4(hi, v + 4);
    }
    for (int b = 0; b < word_bytes; b++) {
        __m128i x = v[b];
        uint8_t *plane = dst + (int64_t)(width - 8 - 8 * b) * nb + k;
        for (int i = 0; i < 8; i++) {
            uint16_t m = (uint16_t)_mm_movemask_epi8(x);
            memcpy(plane + i * nb, &m, 2);
            x = _mm_add_epi8(x, x);
        }
    }
}

/* transpose8 on both 64-bit lanes. */
static __m128i transpose8x2(__m128i x)
{
    const __m128i m7 = _mm_set1_epi64x(0x00AA00AA00AA00AALL);
    const __m128i m14 = _mm_set1_epi64x(0x0000CCCC0000CCCCLL);
    const __m128i m28 = _mm_set1_epi64x(0x00000000F0F0F0F0LL);
    __m128i t;
    t = _mm_and_si128(_mm_xor_si128(x, _mm_srli_epi64(x, 7)), m7);
    x = _mm_xor_si128(x, _mm_xor_si128(t, _mm_slli_epi64(t, 7)));
    t = _mm_and_si128(_mm_xor_si128(x, _mm_srli_epi64(x, 14)), m14);
    x = _mm_xor_si128(x, _mm_xor_si128(t, _mm_slli_epi64(t, 14)));
    t = _mm_and_si128(_mm_xor_si128(x, _mm_srli_epi64(x, 28)), m28);
    x = _mm_xor_si128(x, _mm_xor_si128(t, _mm_slli_epi64(t, 28)));
    return x;
}

/* Inverse of byte_planes_16x4. */
static void lanes_16x4(const __m128i v[4], __m128i q[4])
{
    __m128i a = _mm_unpacklo_epi8(v[0], v[1]), b = _mm_unpackhi_epi8(v[0], v[1]);
    __m128i c = _mm_unpacklo_epi8(v[2], v[3]), d = _mm_unpackhi_epi8(v[2], v[3]);
    q[0] = _mm_unpacklo_epi16(a, c);
    q[1] = _mm_unpackhi_epi16(a, c);
    q[2] = _mm_unpacklo_epi16(b, d);
    q[3] = _mm_unpackhi_epi16(b, d);
}

/* Store groups k, k+1 from their lane-order byte planes v[0..word_bytes). */
static void store_pair_sse2(const __m128i *v, uint8_t *dst, int64_t k, int word_bytes)
{
    uint8_t *p = dst + 8 * k * word_bytes;
    if (word_bytes == 4) {
        __m128i q[4];
        lanes_16x4(v, q);
        _mm_storeu_si128((__m128i *)(p + 16), _mm_shuffle_epi32(q[0], REVERSE32));
        _mm_storeu_si128((__m128i *)(p + 0), _mm_shuffle_epi32(q[1], REVERSE32));
        _mm_storeu_si128((__m128i *)(p + 48), _mm_shuffle_epi32(q[2], REVERSE32));
        _mm_storeu_si128((__m128i *)(p + 32), _mm_shuffle_epi32(q[3], REVERSE32));
    } else {
        static const int order[8] = {3, 2, 1, 0, 7, 6, 5, 4};
        __m128i lo[4], hi[4];
        lanes_16x4(v, lo);
        lanes_16x4(v + 4, hi);
        for (int i = 0; i < 4; i++) {
            __m128i q0 = _mm_unpacklo_epi32(lo[i], hi[i]);
            __m128i q1 = _mm_unpackhi_epi32(lo[i], hi[i]);
            _mm_storeu_si128((__m128i *)(p + 16 * order[2 * i]),
                             _mm_shuffle_epi32(q0, REVERSE64));
            _mm_storeu_si128((__m128i *)(p + 16 * order[2 * i + 1]),
                             _mm_shuffle_epi32(q1, REVERSE64));
        }
    }
}

/* Decode groups k..k+15.  For each byte b the 8 plane rows (16 bytes
 * each) are transposed so one vector holds two groups' 8 plane bytes;
 * transpose8 on each lane then yields byte b of the group's words in
 * lane order, which store_pair_sse2 interleaves back into words. */
static void unshuffle_block_sse2(const uint8_t *src, uint8_t *dst, int64_t nb,
                                 int64_t k, int word_bytes)
{
    int width = 8 * word_bytes;
    __m128i z[8][8];
    for (int b = 0; b < word_bytes; b++) {
        __m128i pl[8];
        for (int c = 0; c < 8; c++)
            pl[c] = _mm_loadu_si128(
                (const __m128i *)(src + (int64_t)(width - 1 - 8 * b - c) * nb + k));
        __m128i a0 = _mm_unpacklo_epi8(pl[0], pl[1]), a1 = _mm_unpackhi_epi8(pl[0], pl[1]);
        __m128i a2 = _mm_unpacklo_epi8(pl[2], pl[3]), a3 = _mm_unpackhi_epi8(pl[2], pl[3]);
        __m128i a4 = _mm_unpacklo_epi8(pl[4], pl[5]), a5 = _mm_unpackhi_epi8(pl[4], pl[5]);
        __m128i a6 = _mm_unpacklo_epi8(pl[6], pl[7]), a7 = _mm_unpackhi_epi8(pl[6], pl[7]);
        __m128i b0 = _mm_unpacklo_epi16(a0, a2), b1 = _mm_unpackhi_epi16(a0, a2);
        __m128i b2 = _mm_unpacklo_epi16(a1, a3), b3 = _mm_unpackhi_epi16(a1, a3);
        __m128i b4 = _mm_unpacklo_epi16(a4, a6), b5 = _mm_unpackhi_epi16(a4, a6);
        __m128i b6 = _mm_unpacklo_epi16(a5, a7), b7 = _mm_unpackhi_epi16(a5, a7);
        z[0][b] = transpose8x2(_mm_unpacklo_epi32(b0, b4));
        z[1][b] = transpose8x2(_mm_unpackhi_epi32(b0, b4));
        z[2][b] = transpose8x2(_mm_unpacklo_epi32(b1, b5));
        z[3][b] = transpose8x2(_mm_unpackhi_epi32(b1, b5));
        z[4][b] = transpose8x2(_mm_unpacklo_epi32(b2, b6));
        z[5][b] = transpose8x2(_mm_unpackhi_epi32(b2, b6));
        z[6][b] = transpose8x2(_mm_unpacklo_epi32(b3, b7));
        z[7][b] = transpose8x2(_mm_unpackhi_epi32(b3, b7));
    }
    for (int h = 0; h < 8; h++)
        store_pair_sse2(z[h], dst, k + 2 * h, word_bytes);
}
#endif

/*
 * Stage L2 encode.  Row r holds n_words words of word_bytes (4 or 8)
 * bytes; n_words is a multiple of 8.  Plane p (0 = most significant bit)
 * holds bit width-1-p of every word, 8 words per byte MSB first, so plane
 * byte k of bit (8b + c) is at out[(width-1-8b-c) * n_words/8 + k].
 */
void bitshuffle_rows(const uint8_t *in, int64_t rows, int64_t n_words,
                     int word_bytes, uint8_t *out)
{
    int64_t nb = n_words >> 3, row_bytes = n_words * word_bytes;

    for (int64_t r = 0; r < rows; r++) {
        const uint8_t *src = in + r * row_bytes;
        uint8_t *dst = out + r * row_bytes;
        int64_t k = 0;
#if defined(__SSE2__) && !defined(PFPL_SCALAR)
        for (; k + 2 <= nb; k += 2)
            shuffle_pair_sse2(src, dst, nb, k, word_bytes);
#endif
        for (; k < nb; k++)
            shuffle_group(src, dst, nb, k, word_bytes);
    }
}

/* Stage L2 decode: the exact inverse of bitshuffle_rows. */
void bitunshuffle_rows(const uint8_t *in, int64_t rows, int64_t n_words,
                       int word_bytes, uint8_t *out)
{
    int64_t nb = n_words >> 3, row_bytes = n_words * word_bytes;

    for (int64_t r = 0; r < rows; r++) {
        const uint8_t *src = in + r * row_bytes;
        uint8_t *dst = out + r * row_bytes;
        int64_t k = 0;
#if defined(__SSE2__) && !defined(PFPL_SCALAR)
        for (; k + 16 <= nb; k += 16)
            unshuffle_block_sse2(src, dst, nb, k, word_bytes);
#endif
        for (; k < nb; k++)
            unshuffle_group(src, dst, nb, k, word_bytes);
    }
}
