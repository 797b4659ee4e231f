/* Compiled kernels of gf2mat: the whole M4RM engine and cubic.
 *
 * Matrices are bit-packed row-major words: column c of a row lives in word
 * c / 64 at bit 63 - c % 64. Every matrix argument is the address of its
 * first word plus a row stride in words, so windows of a larger parent are
 * passed without a copy. Bits beyond a matrix's last column may be live
 * (window parents); the kernels neither read them as entries nor change
 * them in C. Each product's scratch (the M4RM tables, cubic's B
 * transposed) is the extension's own: taken from the interpreter's raw
 * allocator, which tracemalloc traces, before the interpreter lock is
 * released, started on a 64-byte cache line, never zeroed, and freed when
 * the engine returns. M4RM table rows are the caller's row stride apart:
 * rows of 8 words or more are padded to whole cache lines, so each table
 * row starts on one, and narrower rows to a power of two words.
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
 * (and is rebuilt for another numpy). On x86-64 the M4RM engine is also
 * compiled for AVX2 and AVX-512; the module's init function picks the
 * widest copy the CPU supports, once. That function
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
 * table costs 2^k - 1 row additions. Source rows are masked with `tail`
 * so table rows stay clean. */
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
 * of vw words.
 *
 * Row blocks of b_s rows outer; inside a block, groups of t stripes of k
 * columns of a (the last stripe may be narrower). Each group builds its t
 * Gray tables from the matching rows of b into `tables` (t tables of 2^k
 * rows of ceil(n/64) words, t_stride >= ceil(n/64) words apart,
 * consecutive), then updates every row of the block once.
 *
 * The index step: when a group's columns span at most 64 bits, each row
 * reads one 64-bit window of a's row from the group's first column (its
 * second word only where the row has one) and slices all of the group's
 * stripe indices, a narrower last stripe's included, from that window:
 * one shift and mask per group, then a shift (or multiply) and add to
 * table row addresses (window_rows). Wider groups (t * k > 64) read each
 * index on its own (read_bits). */
INLINE void m4rm(int vw, word *c, int64_t c_stride, const word *a,
                 int64_t a_stride, const word *b, int64_t b_stride,
                 int64_t m, int64_t l, int64_t n, int k, int64_t b_s, int t,
                 word *tables, int64_t t_stride)
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
        for (int64_t g0 = 0; g0 < l; g0 += (int64_t)t * k) {
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
    const word *b, int64_t b_stride, int64_t m, int64_t l, int64_t n,     \
    int k, int64_t b_s, int t, word *tables, int64_t t_stride
#define M4RM_ARGS c, c_stride, a, a_stride, b, b_stride, m, l, n, k, b_s, \
    t, tables, t_stride

/* One copy of the engine per instruction set. */
static void m4rm_default(M4RM_PARAMS) { m4rm(2, M4RM_ARGS); }
#ifdef GF2MAT_DISPATCH
__attribute__((target("avx2")))
static void m4rm_avx2(M4RM_PARAMS) { m4rm(4, M4RM_ARGS); }
__attribute__((target("avx512f")))
static void m4rm_avx512f(M4RM_PARAMS) { m4rm(8, M4RM_ARGS); }
#endif

/* The copy of the engine products run on: the widest this CPU supports,
 * chosen once by PyInit_gf2mat_kernel. */
static void (*engine)(M4RM_PARAMS) = m4rm_default;

/* Low-half masks of the 64x64 bit transpose's six rounds, for swaps of
 * 32, 16, 8, 4, 2 and 1 bits. */
static const word lo[6] = {
    0x00000000FFFFFFFFull, 0x0000FFFF0000FFFFull, 0x00FF00FF00FF00FFull,
    0x0F0F0F0F0F0F0F0Full, 0x3333333333333333ull, 0x5555555555555555ull,
};

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

/* Transpose v as a 64x64 bit matrix in place: each round swaps the
 * off-diagonal blocks of every 2sh x 2sh diagonal block. */
static void transpose64(word *v)
{
    for (int round = 0, sh = 32; sh; round++, sh >>= 1)
        for (int i0 = 0; i0 < 64; i0 += 2 * sh)
            for (int i = i0; i < i0 + sh; i++) {
                word x = (v[i] ^ (v[i + sh] >> sh)) & lo[round];
                v[i] ^= x;
                v[i + sh] ^= x << sh;
            }
}

/* bt = b transposed: b is l x n, bt is n rows of wl = ceil(l/64) words
 * (stride wl). Rows past l read as zero, so bt's bits beyond column l are
 * clear; b's bits beyond column n land in rows past n, which are dropped. */
static void transpose(word *bt, const word *b, int64_t b_stride, int64_t l,
                      int64_t n)
{
    int64_t wl = (l + 63) / 64;
    word v[64];
    for (int64_t i0 = 0; i0 < l; i0 += 64) {
        int rows = l - i0 < 64 ? (int)(l - i0) : 64;
        for (int64_t j0 = 0; j0 < n; j0 += 64) {
            int cols = n - j0 < 64 ? (int)(n - j0) : 64;
            for (int r = 0; r < 64; r++)
                v[r] = r < rows ? b[(i0 + r) * b_stride + (j0 >> 6)] : 0;
            transpose64(v);
            for (int r = 0; r < cols; r++)
                bt[(j0 + r) * wl + (i0 >> 6)] = v[r];
        }
    }
}

/* c += a @ b by AND, XOR-accumulate and parity over b transposed.
 *
 * a is m x l, b is l x n, c is m x n and may be a window: each output word
 * is XORed into c, and its bits past column n are zero, so c's bits beyond
 * its right edge are kept, as in M4RM. `bt` is scratch for n rows of
 * ceil(l/64) words; b is transposed into it first, with bits beyond column
 * l clear, so the AND drops whatever a keeps beyond its edge. Full blocks
 * of 64 output columns take the transpose fold, the remainder popcount
 * parity.
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
    transpose(bt, b, b_stride, l, n);
    for (int64_t i = 0; i < m; i++) {
        const word *arow = a + i * a_stride;
        word *crow = c + i * c_stride;
        for (int64_t j0 = 0; j0 < n; j0 += 64) {
            int cnt = n - j0 < 64 ? (int)(n - j0) : 64;
            for (int jj = 0; jj < cnt; jj++) {
                const word *brow = bt + (j0 + jj) * wl;
                word s = 0;
                for (int64_t w = 0; w < wl; w++)
                    s ^= arow[w] & brow[w];
                sums[jj] = s;
            }
            word out = 0;
            if (cnt == 64) {
                out = parity64(sums);
            } else {
                for (int jj = 0; jj < cnt; jj++)
                    out |= (word)__builtin_parityll(sums[jj]) << (63 - jj);
            }
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

/* The module: one METH_FASTCALL entry per engine and the packer. The
 * engines' first three arguments are the operands c, a and b: objects
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
 * b_s >= 1 raise gf2mat's ParameterError; operands that do not cover the
 * product, or M4RM table rows closer than a row of b, its
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
 * a row of b; else -1 with gf2mat.errors.DimensionError set. */
static int cover(operand *op, int64_t l, int64_t n, int tables,
                 int64_t t_stride)
{
    operand *c = &op[0], *a = &op[1], *b = &op[2];
    int64_t m = c->rows, wl = words_of(l), wn = words_of(n);
    if (l >= 0 && n >= 0 && c->width >= wn && a->rows >= m
        && a->width >= wl && b->rows >= l && b->width >= wn
        && (!tables || t_stride >= wn))
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

/* Scratch of rows x width words from the raw domain, starting on a
 * 64-byte line; *block gets what PyMem_RawFree takes back. Not zeroed:
 * each engine writes every scratch word it reads. NULL with MemoryError
 * set when the size overflows or the allocation fails. Called with the
 * interpreter lock held. */
static word *scratch(word rows, word width, void **block)
{
    if (width && rows > ((word)PY_SSIZE_T_MAX - 63) / sizeof(word) / width)
        *block = NULL;
    else
        *block = PyMem_RawMalloc(rows * width * sizeof(word) + 63);
    if (*block == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    return (word *)(((uintptr_t)*block + 63) & ~(uintptr_t)63);
}

/* m4rm(c, a, b, l, n, k, b_s, t, t_stride): c += a @ b by M4RM, with
 * tables for min(t, ceil(l / k)) stripes of 2^k rows, t_stride words
 * apart. */
static PyObject *py_m4rm(PyObject *self, PyObject *const *args,
                         Py_ssize_t nargs)
{
    operand op[3];
    word w[6];
    void *block;
    (void)self;
    if (parse("m4rm", args, nargs, 9, op, w) < 0)
        return NULL;
    int64_t l = (int64_t)w[0], n = (int64_t)w[1], b_s = (int64_t)w[3];
    int64_t t_stride = (int64_t)w[5];
    word k = w[2], t = w[4];
    word *tables = NULL;
    int ok = 0;
    if (k < 1 || k > MAX_K || (int64_t)k > l)
        fail("ParameterError", "k=%lld outside 1..min(l=%lld, %d)",
             (long long)k, (long long)l, MAX_K);
    else if (t < 1 || t > MAX_TABLES)
        fail("ParameterError", "t=%lld outside 1..%d", (long long)t,
             MAX_TABLES);
    else if (b_s < 1)
        fail("ParameterError", "block size %lld < 1", (long long)b_s);
    else if (cover(op, l, n, 1, t_stride) == 0) {
        word stripes = (w[0] + k - 1) / k;
        ok = op[0].rows == 0 || n == 0
             || (tables = scratch((t < stripes ? t : stripes) << k, w[5],
                                  &block)) != NULL;
    }
    if (tables != NULL) {
        Py_BEGIN_ALLOW_THREADS
        engine(op[0].p, op[0].stride, op[1].p, op[1].stride, op[2].p,
               op[2].stride, op[0].rows, l, n, (int)k, b_s, (int)t, tables,
               t_stride);
        Py_END_ALLOW_THREADS
        PyMem_RawFree(block);
    }
    release(op);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
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
        && (bt = scratch(w[1], (word)words_of(l), &block)) != NULL) {
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
    {"cubic", (PyCFunction)(void (*)(void))py_cubic, METH_FASTCALL,
     "cubic(c, a, b, l, n): c += a @ b by cubic."},
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
        isa = "avx512f";
    } else if (__builtin_cpu_supports("avx2")) {
        engine = m4rm_avx2;
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
