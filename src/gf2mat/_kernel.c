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
 * Built by _kernel.py as a CPython extension module with the system C
 * compiler, the interpreter's headers and plain -O3 (no -march), so a
 * cached binary runs on any CPU of the same architecture. On x86-64 the
 * M4RM engine is also compiled for AVX2 and AVX-512; the module's init
 * function picks the widest copy the CPU supports, once. That function
 * is the only exported symbol. The module's entries, at the end of this
 * file, take integer arguments and release the interpreter lock around
 * the engines.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

typedef uint64_t word;

#define MAX_TABLES 8

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

/* The module: one METH_FASTCALL entry per engine. Every argument is a
 * Python int (or an object with __index__) read as one 64-bit word:
 * addresses, row strides in words, sizes and parameters, in the order of
 * the engine's parameters, scratch left out. _kernel.py has checked that
 * the operands cover the product and that M4RM's table row stride covers
 * a row of B. The parameters come validated by the callers (StripeSpec,
 * MulParams, the table budget): 1 <= k <= min(l, 16), 1 <= t <= 8,
 * b_s >= 1, and the product is not empty. */

/* The nargs words of args into w; -1 with an exception set if the count
 * is wrong or an argument is not an integer. */
static int words_of(const char *name, PyObject *const *args,
                    Py_ssize_t nargs, Py_ssize_t want, word *w)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)",
                     name, want, nargs);
        return -1;
    }
    for (Py_ssize_t i = 0; i < nargs; i++)
        w[i] = PyLong_AsUnsignedLongLongMask(args[i]);
    return PyErr_Occurred() ? -1 : 0;
}

/* Scratch of `words` words from the raw domain, starting on a 64-byte
 * line; *block gets what PyMem_RawFree takes back. Not zeroed: each
 * engine writes every scratch word it reads. NULL with MemoryError set
 * when the allocation fails. Called with the interpreter lock held. */
static word *scratch(word words, void **block)
{
    *block = PyMem_RawMalloc(words * sizeof(word) + 63);
    if (*block == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    return (word *)(((uintptr_t)*block + 63) & ~(uintptr_t)63);
}

#define PTR(x) ((word *)(uintptr_t)(x))

/* m4rm(c, c_stride, a, a_stride, b, b_stride, m, l, n, k, b_s, t,
 * t_stride): tables for min(t, ceil(l / k)) stripes of 2^k rows,
 * t_stride words apart. */
static PyObject *py_m4rm(PyObject *self, PyObject *const *args,
                         Py_ssize_t nargs)
{
    word w[13];
    void *block;
    (void)self;
    if (words_of("m4rm", args, nargs, 13, w) < 0)
        return NULL;
    word l = w[7], k = w[9], t = w[11], stripes = (l + k - 1) / k;
    word *tables = scratch(((t < stripes ? t : stripes) << k) * w[12],
                           &block);
    if (tables == NULL)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    engine(PTR(w[0]), (int64_t)w[1], PTR(w[2]), (int64_t)w[3], PTR(w[4]),
           (int64_t)w[5], (int64_t)w[6], (int64_t)l, (int64_t)w[8], (int)k,
           (int64_t)w[10], (int)t, tables, (int64_t)w[12]);
    Py_END_ALLOW_THREADS
    PyMem_RawFree(block);
    Py_RETURN_NONE;
}

/* cubic(c, c_stride, a, a_stride, b, b_stride, m, l, n): B transposed
 * in n rows of ceil(l / 64) words. */
static PyObject *py_cubic(PyObject *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    word w[9];
    void *block;
    (void)self;
    if (words_of("cubic", args, nargs, 9, w) < 0)
        return NULL;
    word *bt = scratch(w[8] * ((w[7] + 63) / 64), &block);
    if (bt == NULL)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    gf2mat_cubic(PTR(w[0]), (int64_t)w[1], PTR(w[2]), (int64_t)w[3],
                 PTR(w[4]), (int64_t)w[5], (int64_t)w[6], (int64_t)w[7],
                 (int64_t)w[8], bt);
    Py_END_ALLOW_THREADS
    PyMem_RawFree(block);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"m4rm", (PyCFunction)(void (*)(void))py_m4rm, METH_FASTCALL,
     "m4rm(c, c_stride, a, a_stride, b, b_stride, m, l, n, k, b_s, t, "
     "t_stride): c += a @ b by M4RM."},
    {"cubic", (PyCFunction)(void (*)(void))py_cubic, METH_FASTCALL,
     "cubic(c, c_stride, a, a_stride, b, b_stride, m, l, n): "
     "c += a @ b by cubic."},
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
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddStringConstant(mod, "isa", isa) < 0)
        Py_CLEAR(mod);
    return mod;
}
