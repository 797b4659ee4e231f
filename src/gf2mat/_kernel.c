/* Compiled kernels of gf2mat: the whole M4RM engine, run directly or on
 * the transpose, cubic, and the packed 64x64 block transpose.
 *
 * Matrices are bit-packed row-major words: column c of a row lives in word
 * c / 64 at bit 63 - c % 64. Every matrix argument is the address of its
 * first word plus a row stride in words, so windows of a larger parent are
 * passed without a copy. Bits beyond a matrix's last column may be live
 * (window parents); the kernels neither read them as entries nor change
 * them in C. Each product's scratch (the M4RM tables, and on the
 * transpose C^T and the windows of A and B; cubic's B transposed) is the
 * extension's own: taken from the interpreter's raw allocator, which
 * tracemalloc traces, before the interpreter lock is released, started
 * on a 64-byte cache line, not zeroed, and freed when the engine returns.
 * M4RM table rows are the caller's row stride apart: rows of 8 words or
 * more are padded to whole cache lines, so each table row starts on one,
 * and narrower rows to a power of two words.
 *
 * The index step: M4RM reads one 64-bit window of a row of a per group of
 * t stripes and slices the t table indices out of it, in vector registers
 * on AVX2 and AVX-512. Reading each index on its own costs a branch, one
 * or two loads and variable shifts per lookup, which on narrow rows costs
 * as much as the combine. Groups wider than 64 columns keep the per-index
 * read. Each index becomes its table row's address by a shift when the
 * table row stride is a power of two words, and by a 64-bit multiply
 * otherwise; core.padded_cols pads rows narrower than a cache line to a
 * power of two so that they take the shift. That step is on every
 * (row, group)'s dependency chain, and the multiply is three 32-bit
 * multiplies with shifts and adds on the avx512f copy, so on narrow
 * products, where a row's combine is short, it set the cost of a row.
 *
 * Packing: `pack` turns a dense bool/uint8 array into a matrix's words
 * in one read of the input, 64 entries to a word: 8 bytes at a time by a
 * multiply gather when a row's bytes are consecutive, byte by byte
 * otherwise.
 *
 * Built by _kernel.py as a CPython extension module with the system C
 * compiler, the interpreter's and numpy's headers and plain -O3 (no
 * -march), so a cached binary runs on any CPU of the same architecture
 * (and is rebuilt for another numpy). On x86-64 the M4RM engine and the
 * transpose are also compiled for AVX2 and AVX-512; the module's init
 * function picks the widest copies the CPU supports, once. M4RM on the
 * transpose is one portable driver over the chosen copies. That function
 * is the only exported symbol. The module's entries, at the end of this
 * file, take the operand matrices and integer arguments, check their
 * parameters and that the operands cover the product, and release the
 * interpreter lock around the engines, so products on distinct outputs
 * run in parallel threads.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <stdarg.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t word;

#define MAX_TABLES 8
/* read_bits reads at most 16 entries: the widest Gray table. */
#define MAX_K 16
/* Words of a's rows (64 columns each) m4rm_t transposes at a time. */
#define WINDOW 4

#if defined(__x86_64__) && defined(__GNUC__)
#define GF2MAT_DISPATCH
#endif

/* The engine and its helpers are inlined into each instruction set's
 * copy of it, so every copy is compiled for its own instruction set. */
#define INLINE static inline __attribute__((always_inline))

/* 8, 4 and 2 words XORed as one value: one 64-, 32- or 16-byte register.
 * Alignment 8: rows start on any word. */
typedef word v8 __attribute__((vector_size(64), aligned(8), may_alias));
typedef word v4 __attribute__((vector_size(32), aligned(8), may_alias));
typedef word v2 __attribute__((vector_size(16), aligned(8), may_alias));
/* One word per table of a stripe group: a shift, a mask or an address,
 * so a pointer must be one word wide. */
typedef word lanes __attribute__((vector_size(8 * MAX_TABLES)));
typedef char pointer_is_one_word[sizeof(const word *) == sizeof(word) ? 1
                                                                     : -1];

/* BODY on one chunk of NV registers of type V. */
#define CHUNK(T, nv, BODY) { typedef T V; enum { NV = nv }; BODY }

/* Run BODY over words [0, n) of a row, with w the first word of each
 * chunk: 8-word chunks (one cache line), then at most one chunk each of
 * 4, 2 and 1 words, so short rows never take a word-by-word loop. Chunks
 * are made of registers of vw words (8, 4 or 2), the widest the copy of
 * the engine's instruction set has; a vector wider than that would be
 * split through memory, so each copy passes vw as a constant. */
#define CHUNKED(vw, n, BODY)                                              \
    do {                                                                  \
        int64_t w = 0;                                                    \
        for (; w + 8 <= (n); w += 8) {                                    \
            if ((vw) == 8) CHUNK(v8, 1, BODY)                             \
            else if ((vw) == 4) CHUNK(v4, 2, BODY)                        \
            else CHUNK(v2, 4, BODY)                                       \
        }                                                                 \
        if (w + 4 <= (n)) {                                               \
            if ((vw) >= 4) CHUNK(v4, 1, BODY)                             \
            else CHUNK(v2, 2, BODY)                                       \
            w += 4;                                                       \
        }                                                                 \
        if (w + 2 <= (n)) {                                               \
            CHUNK(v2, 1, BODY)                                            \
            w += 2;                                                       \
        }                                                                 \
        if (w < (n)) CHUNK(word, 1, BODY)                                 \
    } while (0)

/* Inside BODY: register i of the chunk of row p. */
#define EACH for (int i = 0; i < NV; i++)
#define AT(p) (*(V *)((p) + w + i * (int)(sizeof(V) / sizeof(word))))

/* k <= 16 consecutive entries of `row` from column sc, the first one most
 * significant: the index of a stripe into its combination table. */
INLINE int64_t read_bits(const word *row, int64_t sc, int k)
{
    int64_t wi = sc >> 6;
    int off = (int)(sc & 63);
    word mask = ((word)1 << k) - 1;
    if (off + k <= 64)
        return (int64_t)((row[wi] >> (64 - off - k)) & mask);
    int nlo = off + k - 64;
    return (int64_t)(((row[wi] << nlo) | (row[wi + 1] >> (64 - nlo))) & mask);
}

/* Fill `table` (2^k rows of `width` words, `t_stride` words apart) with
 * every XOR combination of the k source rows, index bit k-1 selecting
 * source row 0. Walks the reflected Gray code: step j writes slot
 * j ^ (j >> 1) as the previous slot plus source row k-1-ctz(j), so the
 * table costs 2^k - 1 row additions. Source rows' last words are masked
 * with `tail` so table rows stay clean. */
INLINE void gray_table(int vw, word *restrict table, int64_t t_stride,
                       const word *src, int64_t src_stride, int k,
                       int64_t width, word tail)
{
    memset(table, 0, (size_t)width * sizeof(word));
    const word *prev = table;
    for (int64_t j = 1; j < ((int64_t)1 << k); j++) {
        word *dst = table + (j ^ (j >> 1)) * t_stride;
        const word *s = src + (k - 1 - __builtin_ctzll((word)j)) * src_stride;
        CHUNKED(vw, width - 1, EACH AT(dst) = AT(prev) ^ AT(s););
        dst[width - 1] = prev[width - 1] ^ (s[width - 1] & tail);
        prev = dst;
    }
}

/* c ^= r[0] ^ ... ^ r[t-1]: t table lookups fused into one pass over c. */
INLINE void combine_t(int vw, word *restrict c, const word *const *r, int t,
                      int64_t width)
{
    CHUNKED(vw, width, {
        V x[NV];
        EACH x[i] = AT(r[0]);
        for (int g = 1; g < t; g++)
            EACH x[i] ^= AT(r[g]);
        EACH AT(c) ^= x[i];
    });
}

/* combine_t, with the loop over the lookups unrolled for the full group
 * of MAX_TABLES tables (the default t); 16-byte registers need it most. */
INLINE void combine(int vw, word *restrict c, const word *const *r, int t,
                    int64_t width)
{
    if (t == MAX_TABLES)
        combine_t(vw, c, r, MAX_TABLES, width);
    else
        combine_t(vw, c, r, t, width);
}

/* The rows of a block for one stripe group of at most 64 columns: row r
 * reads its 64-bit window of a from word wi, shifted left by `bit` (with
 * the next word's high bits when `two`), slices each lane's stripe index
 * out of it (shift, mask) and scales it to its table row's address:
 * base + (index << scale) when `shifted`, else base + index * scale. Both
 * are one vector on AVX2 and AVX-512; the multiply, a 64-bit one, is
 * three multiplies of 32-bit halves there (AVX-512DQ's vpmullq is not in
 * the avx512f copy), all on the row's dependency chain, so the shift is
 * the cheap step. The plain copy, whose SSE2 has neither per-lane shifts
 * nor 64-bit multiplies, loops over the lanes. */
INLINE void window_rows(int vw, int shifted, word *c, int64_t c_stride,
                        const word *a, int64_t a_stride, int64_t rows,
                        int64_t wi, int bit, int two, const lanes *shift,
                        const lanes *mask, const lanes *base, word scale,
                        int ng, int64_t width)
{
    union { lanes v; const word *p[MAX_TABLES]; } at;
    for (int64_t r = 0; r < rows; r++) {
        const word *arow = a + r * a_stride;
        word x = arow[wi] << bit;
        if (two)
            x |= arow[wi + 1] >> (64 - bit);
        if (vw == 2) {
            for (int g = 0; g < ng; g++) {
                word idx = x >> (*shift)[g] & (*mask)[g];
                at.v[g] = (*base)[g] + (shifted ? idx << scale : idx * scale);
            }
        } else {
            lanes idx = ((lanes){0} + x) >> *shift & *mask;
            at.v = *base + (shifted ? idx << scale : idx * scale);
        }
        combine(vw, c + r * c_stride, at.p, ng, width);
    }
}

/* c += a @ b by M4RM: a is m x l, b is l x n, c is m x n, with row chunks
 * of vw words; only a's columns [a0, l) and b's rows [a0, l) are added,
 * so m4rm_t can run the engine over one window of a product's columns.
 *
 * Row blocks of b_s rows outer; inside a block, groups of t stripes of k
 * columns of a from column a0 (the last stripe may be narrower). Each
 * group builds its t Gray tables from the matching rows of b into
 * `tables` (t tables of 2^k rows of ceil(n/64) words, t_stride >=
 * ceil(n/64) words apart, consecutive), then updates every row of the
 * block once.
 *
 * The index step: when a group's columns span at most 64 bits, each row
 * reads one 64-bit window of a's row from the group's first column (its
 * second word only where column l reaches it) and slices all of the group's
 * stripe indices, a narrower last stripe's included, from that window:
 * one shift and mask per group, then a shift (or multiply) and add to
 * table row addresses (window_rows). Wider groups (t * k > 64) read each
 * index on its own (read_bits). */
INLINE void m4rm(int vw, word *c, int64_t c_stride, const word *a,
                 int64_t a_stride, const word *b, int64_t b_stride,
                 int64_t m, int64_t a0, int64_t l, int64_t n, int k,
                 int64_t b_s, int t, word *tables, int64_t t_stride)
{
    int64_t width = (n + 63) / 64, wl = (l + 63) / 64;
    /* The used bits of a row's last word of b. */
    word tail = ~(word)0 << (-(word)n & 63);
    int64_t table_words = t_stride << k;
    word row_bytes = (word)t_stride * sizeof(word);
    /* log2(row_bytes) when the stride is a power of two, else -1. */
    int row_shift = (t_stride & (t_stride - 1)) == 0
                    ? __builtin_ctzll(row_bytes) : -1;
    const word *rows[MAX_TABLES];
    int64_t sc[MAX_TABLES];
    int kw[MAX_TABLES];

    for (int64_t r0 = 0; r0 < m; r0 += b_s) {
        int64_t r1 = r0 + b_s < m ? r0 + b_s : m;
        for (int64_t g0 = a0; g0 < l; g0 += (int64_t)t * k) {
            int ng = 0;
            for (; ng < t && g0 + (int64_t)ng * k < l; ng++) {
                sc[ng] = g0 + (int64_t)ng * k;
                kw[ng] = l - sc[ng] < k ? (int)(l - sc[ng]) : k;
                gray_table(vw, tables + ng * table_words, t_stride,
                           b + sc[ng] * b_stride, b_stride, kw[ng], width,
                           tail);
            }
            if (sc[ng - 1] + kw[ng - 1] - g0 > 64) {
                for (int64_t r = r0; r < r1; r++) {
                    const word *arow = a + r * a_stride;
                    for (int g = 0; g < ng; g++)
                        rows[g] = tables + g * table_words
                                  + read_bits(arow, sc[g], kw[g]) * t_stride;
                    combine(vw, c + r * c_stride, rows, ng, width);
                }
                continue;
            }
            /* Lane g: stripe g's shift and mask in the window and its
             * table's address; lanes past ng stay unused. */
            lanes shift = {0}, mask = {0}, base = {0};
            for (int g = 0; g < ng; g++) {
                shift[g] = (word)(64 - (sc[g] - g0) - kw[g]);
                mask[g] = ((word)1 << kw[g]) - 1;
                base[g] = (word)(uintptr_t)(tables + g * table_words);
            }
            int64_t wi = g0 >> 6;
            int bit = (int)(g0 & 63);
            int two = bit > 0 && wi + 1 < wl;
            if (row_shift >= 0)
                window_rows(vw, 1, c + r0 * c_stride, c_stride,
                            a + r0 * a_stride, a_stride, r1 - r0, wi, bit,
                            two, &shift, &mask, &base, row_shift, ng,
                            width);
            else
                window_rows(vw, 0, c + r0 * c_stride, c_stride,
                            a + r0 * a_stride, a_stride, r1 - r0, wi, bit,
                            two, &shift, &mask, &base, row_bytes, ng,
                            width);
        }
    }
}

#define M4RM_PARAMS                                                       \
    word *c, int64_t c_stride, const word *a, int64_t a_stride,           \
    const word *b, int64_t b_stride, int64_t m, int64_t a0, int64_t l,    \
    int64_t n, int k, int64_t b_s, int t, word *tables, int64_t t_stride
#define M4RM_ARGS c, c_stride, a, a_stride, b, b_stride, m, a0, l, n, k,  \
    b_s, t, tables, t_stride

/* Low-half masks of the 64x64 bit transpose's six rounds, for swaps of
 * 32, 16, 8, 4, 2 and 1 bits. */
static const word lo[6] = {
    0x00000000FFFFFFFFull, 0x0000FFFF0000FFFFull, 0x00FF00FF00FF00FFull,
    0x0F0F0F0F0F0F0F0Full, 0x3333333333333333ull, 0x5555555555555555ull,
};

/* The lanes of x then y, picked by the constant indices that follow. */
#ifdef __clang__
#define SHUFFLE(x, y, ...) __builtin_shufflevector(x, y, __VA_ARGS__)
#else
#define SHUFFLE(x, y, ...) \
    __builtin_shuffle(x, y, (__typeof__(x)){__VA_ARGS__})
#endif

/* One round of the transpose on registers r[i] and r[i + d], whose lanes
 * are rows sh apart: the swap of the off-diagonal sh x sh blocks. */
#define SWAP_ROWS(r, i, d, sh, round)                                     \
    {                                                                     \
        V x = (r[i] ^ (r[(i) + (d)] >> (sh))) & lo[round];                \
        r[i] ^= x;                                                        \
        r[(i) + (d)] ^= x << (sh);                                        \
    }

/* The transpose's rounds on the 64 / VW registers r of VW words each (the
 * 64 rows in order), every loop unrolled. A round of sh >= VW pairs whole
 * registers, d = sh / VW apart. A round of sh < VW pairs the lanes of one
 * register: lane i's partner, lane i ^ sh, comes from the permute, and
 * each lane keeps its own half of every 2sh-bit group (the high one in
 * the pair's first row, the low one in its second) and takes the other
 * half from its partner, shifted. */
#define WHOLE_ROUND(VW, sh, round)                                        \
    _Pragma("GCC unroll 32")                                              \
    for (int j = 0; j < 64 / (VW); j++)                                   \
        if (!(j & (sh) / (VW)))                                           \
            SWAP_ROWS(r, j, (sh) / (VW), sh, round)
#define LANE_ROUND(VW, sh, round, ...)                                    \
    {                                                                     \
        V keep;                                                           \
        _Pragma("GCC unroll 8")                                           \
        for (int i = 0; i < (VW); i++)                                    \
            keep[i] = i & (sh) ? lo[round] : ~lo[round];                  \
        _Pragma("GCC unroll 32")                                          \
        for (int j = 0; j < 64 / (VW); j++) {                             \
            V p = SHUFFLE(r[j], r[j], __VA_ARGS__);                       \
            V rot = ((p >> (sh)) & lo[round]) | ((p << (sh)) & ~lo[round]); \
            r[j] = (r[j] & keep) | (rot & ~keep);                         \
        }                                                                 \
    }

/* Transpose v (64 words, 64-byte aligned) as a 64x64 bit matrix in place:
 * each round swaps the off-diagonal blocks of every 2sh x 2sh diagonal
 * block, in registers of vw words. */
INLINE void transpose64(int vw, word *v)
{
    if (vw == 8) {
        typedef v8 V;
        V r[8];
        memcpy(r, v, sizeof r);
        WHOLE_ROUND(8, 32, 0)
        WHOLE_ROUND(8, 16, 1)
        WHOLE_ROUND(8, 8, 2)
        LANE_ROUND(8, 4, 3, 4, 5, 6, 7, 0, 1, 2, 3)
        LANE_ROUND(8, 2, 4, 2, 3, 0, 1, 6, 7, 4, 5)
        LANE_ROUND(8, 1, 5, 1, 0, 3, 2, 5, 4, 7, 6)
        memcpy(v, r, sizeof r);
    } else if (vw == 4) {
        typedef v4 V;
        V r[16];
        memcpy(r, v, sizeof r);
        WHOLE_ROUND(4, 32, 0)
        WHOLE_ROUND(4, 16, 1)
        WHOLE_ROUND(4, 8, 2)
        WHOLE_ROUND(4, 4, 3)
        LANE_ROUND(4, 2, 4, 2, 3, 0, 1)
        LANE_ROUND(4, 1, 5, 1, 0, 3, 2)
        memcpy(v, r, sizeof r);
    } else {
        typedef v2 V;
        V r[32];
        memcpy(r, v, sizeof r);
        WHOLE_ROUND(2, 32, 0)
        WHOLE_ROUND(2, 16, 1)
        WHOLE_ROUND(2, 8, 2)
        WHOLE_ROUND(2, 4, 3)
        WHOLE_ROUND(2, 2, 4)
        LANE_ROUND(2, 1, 5, 1, 0)
        memcpy(v, r, sizeof r);
    }
}

/* Lanes i and i + s of X swap their off-diagonal blocks of s lanes:
 * after the stages of s = 1, 2, 4 (< VW), lane b of X[i] is lane i of
 * the X[b] before them. */
#define SWAP_LANES(VW, s, LO, HI)                                         \
    for (int i = 0; i < (VW); i++)                                        \
        if (!(i & (s))) {                                                 \
            V x0 = X[i], x1 = X[i + (s)];                                 \
            X[i] = SHUFFLE(x0, x1, UNPAREN LO);                           \
            X[i + (s)] = SHUFFLE(x0, x1, UNPAREN HI);                     \
        }
#define UNPAREN(...) __VA_ARGS__

/* out = in transposed, or out ^= it when `add`, for a whole tile of 64 *
 * VW rows of VW words of in, with in registers of VW words (V) holding
 * one row's words. Each of its VW row blocks is 64 registers r, on which
 * the six rounds pair whole registers: every lane is the same round of
 * its own 64x64 block. The rounds commute (each swaps one bit of the row
 * index with the same bit of the column index), so the 4-, 2- and
 * 1-rounds run on each 8 consecutive rows, then the 32-, 16- and 8-rounds
 * on each 8 rows congruent mod 8, 8 registers at work at a time. Lane b
 * of row i of block k is then word k of out's row 64 b + i: the VW
 * blocks' rows i become VW rows of out by swapping lanes between
 * registers, and each is stored whole. */
#define TILE(VW, STAGES)                                                  \
    {                                                                     \
        V R[VW][64];                                                      \
        for (int k = 0; k < (VW); k++) {                                  \
            V *r = R[k];                                                  \
            for (int i = 0; i < 64; i++)                                  \
                r[i] = *(const V *)(in + (64 * k + i) * in_stride);       \
            _Pragma("GCC unroll 8")                                       \
            for (int g = 0; g < 64; g += 8)                               \
                _Pragma("GCC unroll 3")                                   \
                for (int round = 3, sh = 4; round < 6; round++, sh >>= 1) \
                    _Pragma("GCC unroll 8")                               \
                    for (int i = g; i < g + 8; i++)                       \
                        if (!(i & sh))                                    \
                            SWAP_ROWS(r, i, sh, sh, round)                \
            _Pragma("GCC unroll 8")                                       \
            for (int g = 0; g < 8; g++)                                   \
                _Pragma("GCC unroll 3")                                   \
                for (int round = 0, sh = 32; round < 3; round++, sh >>= 1) \
                    _Pragma("GCC unroll 8")                               \
                    for (int i = g; i < 64; i += 8)                       \
                        if (!(i & sh))                                    \
                            SWAP_ROWS(r, i, sh, sh, round)                \
        }                                                                 \
        for (int i = 0; i < 64; i++) {                                    \
            V X[VW];                                                      \
            for (int k = 0; k < (VW); k++)                                \
                X[k] = R[k][i];                                           \
            STAGES                                                        \
            for (int b = 0; b < (VW); b++) {                              \
                V *o = (V *)(out + (64 * b + i) * out_stride);            \
                if (add)                                                  \
                    X[b] ^= *o;                                           \
                *o = X[b];                                                \
            }                                                             \
        }                                                                 \
    }

INLINE void transpose_tile(int vw, word *out, int64_t out_stride,
                           const word *in, int64_t in_stride, int add)
{
    if (vw == 8) {
        typedef v8 V;
        TILE(8, SWAP_LANES(8, 1, (0, 8, 2, 10, 4, 12, 6, 14),
                           (1, 9, 3, 11, 5, 13, 7, 15))
                SWAP_LANES(8, 2, (0, 1, 8, 9, 4, 5, 12, 13),
                           (2, 3, 10, 11, 6, 7, 14, 15))
                SWAP_LANES(8, 4, (0, 1, 2, 3, 8, 9, 10, 11),
                           (4, 5, 6, 7, 12, 13, 14, 15)))
    } else if (vw == 4) {
        typedef v4 V;
        TILE(4, SWAP_LANES(4, 1, (0, 4, 2, 6), (1, 5, 3, 7))
                SWAP_LANES(4, 2, (0, 1, 4, 5), (2, 3, 6, 7)))
    } else {
        typedef v2 V;
        TILE(2, SWAP_LANES(2, 1, (0, 2), (1, 3)))
    }
}

/* out = in transposed, or out ^= it when `add`: in holds rows x cols
 * entries, row i at in + i * in_stride; out gets cols rows, out_stride
 * words apart, of ceil(rows / 64) words. Rows past `rows` read as zero,
 * so out's bits beyond column `rows` are clear, or kept when added;
 * entries past column cols land in rows past cols, which are dropped.
 * Whole tiles of 64 * vw rows and columns go through transpose_tile; the
 * rest one 64x64 block at a time (64 words gathered, transposed in
 * registers by transpose64, stored). */
INLINE void transpose(int vw, word *out, int64_t out_stride, const word *in,
                      int64_t in_stride, int64_t rows, int64_t cols, int add)
{
    word v[64] __attribute__((aligned(64)));
    int64_t span = 64 * vw;
    for (int64_t t0 = 0; t0 < cols; t0 += span)
        for (int64_t s0 = 0; s0 < rows; s0 += span) {
            if (s0 + span <= rows && t0 + span <= cols) {
                transpose_tile(vw, out + t0 * out_stride + (s0 >> 6),
                               out_stride, in + s0 * in_stride + (t0 >> 6),
                               in_stride, add);
                continue;
            }
            for (int64_t j0 = t0; j0 < cols && j0 < t0 + span; j0 += 64)
                for (int64_t i0 = s0; i0 < rows && i0 < s0 + span;
                     i0 += 64) {
                    int nr = rows - i0 < 64 ? (int)(rows - i0) : 64;
                    int nc = cols - j0 < 64 ? (int)(cols - j0) : 64;
                    const word *p = in + i0 * in_stride + (j0 >> 6);
                    for (int r = 0; r < nr; r++)
                        v[r] = p[r * in_stride];
                    for (int r = nr; r < 64; r++)
                        v[r] = 0;
                    transpose64(vw, v);
                    word *o = out + j0 * out_stride + (i0 >> 6);
                    for (int r = 0; r < nc; r++)
                        o[r * out_stride] = add ? o[r * out_stride] ^ v[r]
                                                : v[r];
                }
        }
}

#define TRANSPOSE_PARAMS                                                  \
    word *out, int64_t out_stride, const word *in, int64_t in_stride,     \
    int64_t rows, int64_t cols, int add
#define TRANSPOSE_ARGS out, out_stride, in, in_stride, rows, cols, add

/* One copy of the M4RM engine and of the packed transpose per
 * instruction set. */
static void m4rm_default(M4RM_PARAMS) { m4rm(2, M4RM_ARGS); }
static void transpose_default(TRANSPOSE_PARAMS)
{
    transpose(2, TRANSPOSE_ARGS);
}
#ifdef GF2MAT_DISPATCH
__attribute__((target("avx2")))
static void m4rm_avx2(M4RM_PARAMS) { m4rm(4, M4RM_ARGS); }
__attribute__((target("avx2")))
static void transpose_avx2(TRANSPOSE_PARAMS)
{
    transpose(4, TRANSPOSE_ARGS);
}
__attribute__((target("avx512f")))
static void m4rm_avx512f(M4RM_PARAMS) { m4rm(8, M4RM_ARGS); }
__attribute__((target("avx512f")))
static void transpose_avx512f(TRANSPOSE_PARAMS)
{
    transpose(8, TRANSPOSE_ARGS);
}
#endif

/* The copies products run on: the widest this CPU supports, chosen once
 * by PyInit_gf2mat_kernel. */
static void (*engine)(M4RM_PARAMS) = m4rm_default;
static void (*transposer)(TRANSPOSE_PARAMS) = transpose_default;

/* c += a @ b by M4RM on the transpose, c^T += b^T @ a^T, for products
 * whose n is far below m: the engine steps through n rows of c^T, each
 * ceil(m/64) words wide, where it would step through m rows of
 * ceil(n/64). One portable driver over the engine and the transpose of
 * the CPU's instruction set.
 *
 * The engine runs on windows of at most WINDOW words (WINDOW * 64
 * columns), each starting at the word ws of the first stripe group not
 * yet added: a's columns [ws, end) transposed are its b (`at`, rows of
 * t_stride words) and b's rows [ws, end) transposed its a (`bw`, WINDOW
 * words per column of b). It adds the groups of t stripes of k columns
 * (t * k <= 64) that end inside the window. So each row of c^T reads a
 * group's indices from one or two words of bw, each line of a is read
 * once per window, and the scratch is bounded by c^T (`ct`, n rows of
 * t_stride words, zeroed first), the windows and the tables: no
 * transpose of all of a is made. c^T is added to c, transposed, at the
 * end, so c's bits beyond column n are kept. */
static void m4rm_t(word *c, int64_t c_stride, const word *a,
                   int64_t a_stride, const word *b, int64_t b_stride,
                   int64_t m, int64_t l, int64_t n, int k, int64_t b_s,
                   int t, word *tables, int64_t t_stride)
{
    int64_t wm = (m + 63) / 64, wl = (l + 63) / 64;
    int64_t ww = wl < WINDOW ? wl : WINDOW, span = (int64_t)t * k;
    int64_t stripes = (l + k - 1) / k;
    word *ct = tables + (t < stripes ? t : stripes) * (t_stride << k);
    word *at = ct + n * t_stride, *bw = at + 64 * ww * t_stride;

    /* c^T's rows, the tables' and at's are t_stride words wide, padding
     * included, and the engine adds them whole (its n is 64 * t_stride):
     * the padding of at is zero, so the tables' and c^T's stay zero. */
    memset(ct, 0, (size_t)(n * t_stride) * sizeof(word));
    for (int64_t r = 0; r < 64 * ww && t_stride > wm; r++)
        memset(at + r * t_stride + wm, 0,
               (size_t)(t_stride - wm) * sizeof(word));
    for (int64_t g0 = 0, g1; g0 < l; g0 = g1) {
        int64_t ws = g0 & ~(int64_t)63;
        int64_t end = l - ws < 64 * ww ? l : ws + 64 * ww;
        g1 = end == l ? l : g0 + (end - g0) / span * span;
        transposer(at, t_stride, a + (ws >> 6), a_stride, m, end - ws, 0);
        transposer(bw, ww, b + ws * b_stride, b_stride, end - ws, n, 0);
        engine(ct, t_stride, bw, ww, at, t_stride, n, g0 - ws, g1 - ws,
               64 * t_stride, k, b_s, t, tables, t_stride);
    }
    transposer(c, c_stride, ct, t_stride, n, m, 1);
}

/* Parities of 64 words packed into one, parity(s[i]) at bit 63 - i.
 *
 * The 64x64 transpose fold: each round pairs word i with word i + half and
 * folds every group of the pair to half its width (XOR of its two halves),
 * keeping the first word's groups in the high halves and the second's in
 * the low halves, with the masks of the 64x64 bit transpose. After six
 * rounds one word remains whose bit 63 - i holds the fold of s[i]. */
static word parity64(const word *s)
{
    word v[64];
    memcpy(v, s, sizeof v);
    int half = 64;
    for (int round = 0, sh = 32; sh; round++, sh >>= 1) {
        half >>= 1;
        for (int i = 0; i < half; i++) {
            word x = v[i], y = v[i + half];
            v[i] = ((x ^ (x << sh)) & ~lo[round])
                   | ((y ^ (y >> sh)) & lo[round]);
        }
    }
    return v[0];
}

/* c += a @ b by AND, XOR-accumulate and parity over b transposed.
 *
 * a is m x l, b is l x n, c is m x n and may be a window: each output word
 * is XORed into c, and its bits past column n are zero, so c's bits beyond
 * its right edge are kept, as in M4RM. `bt` is scratch for n rows of
 * ceil(l/64) words; b is transposed into it first, with bits beyond column
 * l clear, so the AND drops whatever a keeps beyond its edge. Full blocks
 * of 64 output columns take the transpose fold, the remainder popcount
 * parity of each sum as it is made. Stored to `sums` and read back, the
 * remainder (all of small-batch's cubic products, B under 64 columns)
 * ran 5-7% slower once the transpose call's seventh argument grew the
 * stack frame by 8 bytes, with the loops' code unchanged (BENCH_28.json).
 *
 * It starts on a 64-byte boundary, so its loops sit where they sit however
 * long the M4RM engine before it grows: started 48 bytes past one, the same
 * code ran small-batch's cubic products 6-12% slower (BENCH_10.json). It is
 * never inlined, so its caller cannot undo that placement. */
__attribute__((aligned(64), noinline))
static void gf2mat_cubic(word *c, int64_t c_stride, const word *a,
                         int64_t a_stride, const word *b, int64_t b_stride,
                         int64_t m, int64_t l, int64_t n, word *bt)
{
    int64_t wl = (l + 63) / 64;
    word sums[64];
    transposer(bt, wl, b, b_stride, l, n, 0);
    for (int64_t i = 0; i < m; i++) {
        const word *arow = a + i * a_stride;
        word *crow = c + i * c_stride;
        for (int64_t j0 = 0; j0 < n; j0 += 64) {
            int cnt = n - j0 < 64 ? (int)(n - j0) : 64;
            word out = 0;
            for (int jj = 0; jj < cnt; jj++) {
                const word *brow = bt + (j0 + jj) * wl;
                word s = 0;
                for (int64_t w = 0; w < wl; w++)
                    s ^= arow[w] & brow[w];
                if (cnt == 64)
                    sums[jj] = s;
                else
                    out |= (word)__builtin_parityll(s) << (63 - jj);
            }
            if (cnt == 64)
                out = parity64(sums);
            crow[j0 >> 6] ^= out;
        }
    }
}

/* The entries of the 8 bytes at p, the first byte's at bit 7: each
 * byte's bit 0, or with `nonzero` whether the byte is nonzero (its bits
 * ORed into bit 0 by three shifts, none of which carries a bit into
 * another byte's bit 0). The multiply moves byte j's bit 0 (bit 8j of the
 * little-endian value) to bit 63 - j, and no two of its partial products
 * meet, so nothing carries. */
INLINE word entries8(const uint8_t *p, int nonzero)
{
    word v;
    memcpy(&v, p, sizeof v);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    if (nonzero) {
        v |= v >> 4;
        v |= v >> 2;
        v |= v >> 1;
    }
    return ((v & 0x0101010101010101ull) * 0x8040201008040201ull) >> 56;
}

INLINE word entry(uint8_t byte, int nonzero)
{
    return nonzero ? byte != 0 : byte & 1;
}

/* The entries of the n <= 64 bytes at p, col_stride bytes apart, as one
 * word, byte c's at bit 63 - c and bits n.. zero: groups of 8 by
 * entries8 when the bytes are consecutive, the rest one by one, so
 * nothing past the n-th byte is read. */
INLINE word entries(const uint8_t *p, int64_t col_stride, int n,
                    int nonzero)
{
    word x = 0;
    int c = 0;
    if (col_stride == 1)
        for (; c + 8 <= n; c += 8)
            x |= entries8(p + c, nonzero) << (56 - c);
    for (; c < n; c++)
        x |= entry(p[c * col_stride], nonzero) << (63 - c);
    return x;
}

/* out = the entries of rows x cols bytes whose rows start d_stride bytes
 * apart and whose bytes are col_stride apart (negative or zero included),
 * bits past cols zero: with `nonzero` (bool input) whether each byte is
 * nonzero, else (uint8 input) its low bit. */
INLINE void pack_rows(word *out, int64_t out_stride, const uint8_t *d,
                      int64_t d_stride, int64_t col_stride, int64_t rows,
                      int64_t cols, int nonzero)
{
    for (int64_t r = 0; r < rows; r++) {
        const uint8_t *p = d + r * d_stride;
        word *o = out + r * out_stride;
        int64_t w = 0;
        for (; w < cols / 64; w++)
            o[w] = entries(p + w * 64 * col_stride, col_stride, 64,
                           nonzero);
        if (cols % 64)
            o[w] = entries(p + w * 64 * col_stride, col_stride,
                           (int)(cols % 64), nonzero);
    }
}

/* The module: one METH_FASTCALL entry per engine, the transpose and the
 * packer. The engines' first three arguments are the operands c, a and b:
 * objects
 * (gf2mat's matrices and windows) whose `words` attribute is a 2-D numpy
 * array of 64-bit words, one row per matrix row, with unit word stride.
 * The entry reads each one's first word, rows, words per row and row
 * stride through numpy's C API, and holds the arrays until the engine
 * returns; c's must be writable. The other arguments are Python ints (or
 * objects with __index__) read as one word each: sizes and parameters in
 * the order of the engine's parameters, scratch left out. Every entry
 * checks its arguments before anything is allocated or written, since
 * the engines would otherwise divide by zero or read and write out of
 * bounds: M4RM parameters outside 1 <= k <= min(l, 16), 1 <= t <= 8 and
 * b_s >= 1, or on the transpose t * k > 64, raise gf2mat's
 * ParameterError; operands that do not cover the product, or M4RM table
 * rows closer than a row of b (on the transpose, a row of c^T), its
 * DimensionError. The public entries have checked the same parameters
 * (StripeSpec, MulParams, the table budget) and call the engines only for
 * non-empty products; an empty M4RM product returns here. */

/* An operand as the engines see it; `words` keeps its array alive. */
typedef struct {
    PyObject *words;
    word *p;
    int64_t rows, width, stride;
} operand;

/* "words" and "ncols", interned at init. */
static PyObject *words_name, *ncols_name;

/* Sets gf2mat.errors.<name> with a printf-style message; returns -1. */
static int fail(const char *name, const char *format, ...)
{
    PyObject *errors = PyImport_ImportModule("gf2mat.errors");
    PyObject *error = errors == NULL ? NULL
                      : PyObject_GetAttrString(errors, name);
    Py_XDECREF(errors);
    if (error == NULL)
        return -1;
    va_list va;
    va_start(va, format);
    PyErr_FormatV(error, format, va);
    va_end(va);
    Py_DECREF(error);
    return -1;
}

/* Reads the operand `mat` into *op; -1 with an exception set if its
 * words are not a 2-D array of native, aligned 64-bit words with unit
 * word stride (writable, when asked). numpy gives an array with no rows
 * zero strides. */
static int get_operand(PyObject *mat, int writable, operand *op)
{
    PyObject *words = PyObject_GetAttr(mat, words_name);
    if (words == NULL)
        return -1;
    PyArrayObject *arr = (PyArrayObject *)words;
    if (PyArray_Check(words) && PyArray_NDIM(arr) == 2
        && PyArray_ISUNSIGNED(arr) && PyArray_ITEMSIZE(arr) == sizeof(word)
        && PyArray_ISNOTSWAPPED(arr) && PyArray_ISALIGNED(arr)
        && (!writable || PyArray_ISWRITEABLE(arr))
        && PyArray_STRIDE(arr, 0) % (npy_intp)sizeof(word) == 0
        && (PyArray_DIM(arr, 0) == 0 || PyArray_DIM(arr, 1) <= 1
            || PyArray_STRIDE(arr, 1) == sizeof(word))) {
        op->words = words;
        op->p = PyArray_DATA(arr);
        op->rows = PyArray_DIM(arr, 0);
        op->width = PyArray_DIM(arr, 1);
        op->stride = PyArray_STRIDE(arr, 0) / (npy_intp)sizeof(word);
        return 0;
    }
    PyErr_SetString(PyExc_TypeError, "operand words are not a 2-D array "
                    "of 64-bit words with unit word stride");
    Py_DECREF(words);
    return -1;
}

static void release(operand *op)
{
    for (int i = 0; i < 3; i++)
        Py_DECREF(op[i].words);
}

/* The operands c, a, b of args into op, and the nargs - 3 words after
 * them into w; -1 with an exception set (and nothing held) if the count
 * is wrong, an argument is not an integer or an operand is unreadable. */
static int parse(const char *name, PyObject *const *args, Py_ssize_t nargs,
                 Py_ssize_t want, operand *op, word *w)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)",
                     name, want, nargs);
        return -1;
    }
    for (Py_ssize_t i = 3; i < nargs; i++)
        w[i - 3] = PyLong_AsUnsignedLongLongMask(args[i]);
    if (PyErr_Occurred())
        return -1;
    for (int i = 0; i < 3; i++)
        if (get_operand(args[i], i == 0, &op[i]) < 0) {
            while (i--)
                Py_DECREF(op[i].words);
            return -1;
        }
    return 0;
}

/* Words per row of n columns, for any n >= 0 without overflow. */
static int64_t words_of(int64_t n)
{
    return n / 64 + (n % 64 != 0);
}

/* 0 if l, n >= 0 and c, a and b cover an m x l x n product (m: c's
 * rows) and, when `tables` is set, table rows t_stride words apart hold
 * a row of `tables` columns; else -1 with gf2mat.errors.DimensionError
 * set. */
static int cover(operand *op, int64_t l, int64_t n, int64_t tables,
                 int64_t t_stride)
{
    operand *c = &op[0], *a = &op[1], *b = &op[2];
    int64_t m = c->rows, wl = words_of(l), wn = words_of(n);
    if (l >= 0 && n >= 0 && c->width >= wn && a->rows >= m
        && a->width >= wl && b->rows >= l && b->width >= wn
        && (!tables || t_stride >= words_of(tables)))
        return 0;
    char apart[48] = "";
    if (tables)
        snprintf(apart, sizeof apart, ", table rows %lld apart",
                 (long long)t_stride);
    return fail("DimensionError", "kernel operands (c %lldx%lld, a "
                "%lldx%lld, b %lldx%lld words%s) do not cover a "
                "%lldx%lldx%lld product", (long long)c->rows,
                (long long)c->width, (long long)a->rows,
                (long long)a->width, (long long)b->rows,
                (long long)b->width, apart, (long long)m, (long long)l,
                (long long)n);
}

/* Scratch of rows x width + extra words from the raw domain, starting on
 * a 64-byte line; *block gets what PyMem_RawFree takes back. Not zeroed:
 * each engine writes every scratch word it reads. NULL with MemoryError
 * set when the size overflows or the allocation fails. Called with the
 * interpreter lock held. */
static word *scratch(word rows, word width, word extra, void **block)
{
    word words, limit = ((word)PY_SSIZE_T_MAX - 63) / sizeof(word);
    if (__builtin_mul_overflow(rows, width, &words)
        || __builtin_add_overflow(words, extra, &words) || words > limit)
        *block = NULL;
    else
        *block = PyMem_RawMalloc(words * sizeof(word) + 63);
    if (*block == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    return (word *)(((uintptr_t)*block + 63) & ~(uintptr_t)63);
}

/* The M4RM entries, m4rm and m4rm_t (c, a, b, l, n, k, b_s, t,
 * t_stride): c += a @ b by the engine, directly or `transposed`, with
 * tables for min(t, ceil(l / k)) stripes of 2^k rows, t_stride words
 * apart, of n columns (m4rm) or of m (m4rm_t, which also takes c^T, its
 * window of a and b and t * k <= 64: see m4rm_t). */
static PyObject *m4rm_entry(const char *name, int transposed,
                            PyObject *const *args, Py_ssize_t nargs)
{
    operand op[3];
    word w[6];
    void *block;
    if (parse(name, args, nargs, 9, op, w) < 0)
        return NULL;
    int64_t l = (int64_t)w[0], n = (int64_t)w[1], b_s = (int64_t)w[3];
    int64_t t_stride = (int64_t)w[5], m = op[0].rows;
    word k = w[2], t = w[4];
    word *tables = NULL;
    int ok = 0;
    if (k < 1 || k > MAX_K || (int64_t)k > l)
        fail("ParameterError", "k=%lld outside 1..min(l=%lld, %d)",
             (long long)k, (long long)l, MAX_K);
    else if (t < 1 || t > MAX_TABLES)
        fail("ParameterError", "t=%lld outside 1..%d", (long long)t,
             MAX_TABLES);
    else if (transposed && t * k > 64)
        fail("ParameterError", "t*k=%lld over 64", (long long)(t * k));
    else if (b_s < 1)
        fail("ParameterError", "block size %lld < 1", (long long)b_s);
    else if (cover(op, l, n, transposed ? m : n, t_stride) == 0) {
        word stripes = (w[0] + k - 1) / k, rows = (t < stripes ? t : stripes)
                                                   << k, extra = 0;
        /* m4rm_t's c^T and a's window, in rows as wide as the tables'
         * (t_stride words), and b's window follow the tables. */
        if (transposed) {
            word ww = (word)words_of(l) < WINDOW ? (word)words_of(l)
                                                 : WINDOW;
            rows += (word)n + 64 * ww;
            extra = (word)n * ww;
        }
        ok = m == 0 || n == 0
             || (tables = scratch(rows, w[5], extra, &block)) != NULL;
    }
    if (tables != NULL) {
        Py_BEGIN_ALLOW_THREADS
        if (transposed)
            m4rm_t(op[0].p, op[0].stride, op[1].p, op[1].stride, op[2].p,
                   op[2].stride, m, l, n, (int)k, b_s, (int)t, tables,
                   t_stride);
        else
            engine(op[0].p, op[0].stride, op[1].p, op[1].stride, op[2].p,
                   op[2].stride, m, 0, l, n, (int)k, b_s, (int)t, tables,
                   t_stride);
        Py_END_ALLOW_THREADS
        PyMem_RawFree(block);
    }
    release(op);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *py_m4rm(PyObject *self, PyObject *const *args,
                         Py_ssize_t nargs)
{
    (void)self;
    return m4rm_entry("m4rm", 0, args, nargs);
}

static PyObject *py_m4rm_t(PyObject *self, PyObject *const *args,
                           Py_ssize_t nargs)
{
    (void)self;
    return m4rm_entry("m4rm_t", 1, args, nargs);
}

/* cubic(c, a, b, l, n): c += a @ b by cubic, with B transposed in n rows
 * of ceil(l / 64) words. */
static PyObject *py_cubic(PyObject *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    operand op[3];
    word w[2];
    void *block;
    (void)self;
    if (parse("cubic", args, nargs, 5, op, w) < 0)
        return NULL;
    int64_t l = (int64_t)w[0], n = (int64_t)w[1];
    word *bt = NULL;
    if (cover(op, l, n, 0, 0) == 0
        && (bt = scratch(w[1], (word)words_of(l), 0, &block)) != NULL) {
        Py_BEGIN_ALLOW_THREADS
        gf2mat_cubic(op[0].p, op[0].stride, op[1].p, op[1].stride, op[2].p,
                     op[2].stride, op[0].rows, l, n, bt);
        Py_END_ALLOW_THREADS
        PyMem_RawFree(block);
    }
    release(op);
    if (bt == NULL)
        return NULL;
    Py_RETURN_NONE;
}

/* transpose(out, a, m, n): out's words = the m x n entries of a
 * transposed, n rows of ceil(m / 64) words whose bits beyond column m are
 * clear; a's bits beyond column n are not read as entries. Operands that
 * do not hold these words raise gf2mat's DimensionError before anything
 * is written. */
static PyObject *py_transpose(PyObject *self, PyObject *const *args,
                              Py_ssize_t nargs)
{
    operand op[2];
    (void)self;
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError,
                     "transpose takes 4 arguments (%zd given)", nargs);
        return NULL;
    }
    int64_t m = PyLong_AsLongLong(args[2]), n = PyLong_AsLongLong(args[3]);
    if (PyErr_Occurred() || get_operand(args[0], 1, &op[0]) < 0)
        return NULL;
    if (get_operand(args[1], 0, &op[1]) < 0) {
        Py_DECREF(op[0].words);
        return NULL;
    }
    int ok = m >= 0 && n >= 0 && op[1].rows >= m
             && op[1].width >= words_of(n) && op[0].rows >= n
             && op[0].width >= words_of(m);
    if (!ok)
        fail("DimensionError", "transpose operands (out %lldx%lld, a "
             "%lldx%lld words) do not hold a %lldx%lld transpose",
             (long long)op[0].rows, (long long)op[0].width,
             (long long)op[1].rows, (long long)op[1].width, (long long)m,
             (long long)n);
    else if (m && n) {
        Py_BEGIN_ALLOW_THREADS
        transposer(op[0].p, op[0].stride, op[1].p, op[1].stride, m, n, 0);
        Py_END_ALLOW_THREADS
    }
    Py_DECREF(op[0].words);
    Py_DECREF(op[1].words);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

/* pack(out, dense): out's words = the low bits of dense's entries, bits
 * beyond out's last column zero. out is a matrix (its `words` as above,
 * and `ncols`); dense a 2-D bool or uint8 array of out's shape, with any
 * strides, read once in place. A dense of another rank or shape raises
 * gf2mat's DimensionError, of another type its ParameterError, before
 * anything is written. */
static PyObject *py_pack(PyObject *self, PyObject *const *args,
                         Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "pack takes 2 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    PyArrayObject *dense = (PyArrayObject *)args[1];
    if (!PyArray_Check(args[1]) || (PyArray_TYPE(dense) != NPY_BOOL
                                    && PyArray_TYPE(dense) != NPY_UBYTE)) {
        fail("ParameterError", "pack takes a bool or uint8 array");
        return NULL;
    }
    if (PyArray_NDIM(dense) != 2) {
        fail("DimensionError", "pack takes a 2-D array, not %d-D",
             PyArray_NDIM(dense));
        return NULL;
    }
    PyObject *ncols_obj = PyObject_GetAttr(args[0], ncols_name);
    if (ncols_obj == NULL)
        return NULL;
    long long ncols = PyLong_AsLongLong(ncols_obj);
    Py_DECREF(ncols_obj);
    operand out;
    if ((ncols == -1 && PyErr_Occurred())
        || get_operand(args[0], 1, &out) < 0)
        return NULL;
    int64_t rows = PyArray_DIM(dense, 0), cols = PyArray_DIM(dense, 1);
    if (rows != out.rows || cols != ncols || words_of(cols) != out.width) {
        fail("DimensionError", "pack of a %lldx%lld array into a %lldx%lld "
             "matrix of %lld words a row", (long long)rows,
             (long long)cols, (long long)out.rows, ncols,
             (long long)out.width);
        Py_DECREF(out.words);
        return NULL;
    }
    const uint8_t *d = PyArray_DATA(dense);
    int64_t d_stride = PyArray_STRIDE(dense, 0);
    int64_t col_stride = PyArray_STRIDE(dense, 1);
    int nonzero = PyArray_TYPE(dense) == NPY_BOOL;
    Py_BEGIN_ALLOW_THREADS
    pack_rows(out.p, out.stride, d, d_stride, cols <= 1 ? 1 : col_stride,
              rows, cols, nonzero);
    Py_END_ALLOW_THREADS
    Py_DECREF(out.words);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"m4rm", (PyCFunction)(void (*)(void))py_m4rm, METH_FASTCALL,
     "m4rm(c, a, b, l, n, k, b_s, t, t_stride): c += a @ b by M4RM."},
    {"m4rm_t", (PyCFunction)(void (*)(void))py_m4rm_t, METH_FASTCALL,
     "m4rm_t(c, a, b, l, n, k, b_s, t, t_stride): c += a @ b by M4RM on "
     "the transpose."},
    {"cubic", (PyCFunction)(void (*)(void))py_cubic, METH_FASTCALL,
     "cubic(c, a, b, l, n): c += a @ b by cubic."},
    {"transpose", (PyCFunction)(void (*)(void))py_transpose, METH_FASTCALL,
     "transpose(out, a, m, n): out's words = a's m x n entries "
     "transposed."},
    {"pack", (PyCFunction)(void (*)(void))py_pack, METH_FASTCALL,
     "pack(out, dense): out's words = the low bits of dense's entries."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "gf2mat_kernel", .m_size = -1,
    .m_methods = methods,
};

/* Picks the engine copy for this CPU; `isa` names it. */
PyMODINIT_FUNC PyInit_gf2mat_kernel(void)
{
    const char *isa = "default";
#ifdef GF2MAT_DISPATCH
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) {
        engine = m4rm_avx512f;
        transposer = transpose_avx512f;
        isa = "avx512f";
    } else if (__builtin_cpu_supports("avx2")) {
        engine = m4rm_avx2;
        transposer = transpose_avx2;
        isa = "avx2";
    }
#endif
    import_array1(NULL);
    words_name = PyUnicode_InternFromString("words");
    ncols_name = PyUnicode_InternFromString("ncols");
    if (words_name == NULL || ncols_name == NULL)
        return NULL;
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddStringConstant(mod, "isa", isa) < 0)
        Py_CLEAR(mod);
    return mod;
}
