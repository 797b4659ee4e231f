/* Compiled kernels of gf2mat: the whole M4RM engine and cubic's row loop.
 *
 * Matrices are bit-packed row-major words: column c of a row lives in word
 * c / 64 at bit 63 - c % 64. Every matrix argument is the address of its
 * first word plus a row stride in words, so windows of a larger parent are
 * passed without a copy. Bits beyond a matrix's last column may be live
 * (window parents); the kernels neither read them as entries nor change
 * them in C.
 *
 * Built by _kernel.py with the system C compiler and plain -O3 (no
 * -march), so a cached binary runs on any CPU of the same architecture.
 */

#include <stdint.h>
#include <string.h>

typedef uint64_t word;

#define MAX_TABLES 8

/* k <= 16 consecutive entries of `row` from column sc, the first one most
 * significant: the index of a stripe into its combination table. */
static inline int64_t read_bits(const word *row, int64_t sc, int k)
{
    int64_t wi = sc >> 6;
    int off = (int)(sc & 63);
    word mask = ((word)1 << k) - 1;
    if (off + k <= 64)
        return (int64_t)((row[wi] >> (64 - off - k)) & mask);
    int nlo = off + k - 64;
    return (int64_t)(((row[wi] << nlo) | (row[wi + 1] >> (64 - nlo))) & mask);
}

/* Fill `table` (2^k rows of `width` words) with every XOR combination of
 * the k source rows, index bit k-1 selecting source row 0. Walks the
 * reflected Gray code: step j writes slot j ^ (j >> 1) as the previous
 * slot plus source row k-1-ctz(j), so the table costs 2^k - 1 row
 * additions. Source rows are masked with `tail` so table rows stay clean. */
static void gray_table(word *restrict table, const word *src,
                       int64_t src_stride, int k, int64_t width, word tail)
{
    memset(table, 0, (size_t)width * sizeof(word));
    const word *prev = table;
    for (int64_t j = 1; j < ((int64_t)1 << k); j++) {
        word *dst = table + (j ^ (j >> 1)) * width;
        const word *s = src + (k - 1 - __builtin_ctzll((word)j)) * src_stride;
        for (int64_t w = 0; w < width - 1; w++)
            dst[w] = prev[w] ^ s[w];
        dst[width - 1] = prev[width - 1] ^ (s[width - 1] & tail);
        prev = dst;
    }
}

#define FUSE(expr)                                  \
    for (int64_t w = 0; w < width; w++)             \
        c[w] ^= expr;                               \
    break

/* c ^= r[0] ^ ... ^ r[t-1]: t table lookups fused into one pass over c. */
static void combine(word *restrict c, const word *const *r, int t,
                    int64_t width)
{
    const word *r0 = r[0], *r1 = r[1], *r2 = r[2], *r3 = r[3];
    const word *r4 = r[4], *r5 = r[5], *r6 = r[6], *r7 = r[7];
    switch (t) {
    case 1: FUSE(r0[w]);
    case 2: FUSE(r0[w] ^ r1[w]);
    case 3: FUSE(r0[w] ^ r1[w] ^ r2[w]);
    case 4: FUSE(r0[w] ^ r1[w] ^ r2[w] ^ r3[w]);
    case 5: FUSE(r0[w] ^ r1[w] ^ r2[w] ^ r3[w] ^ r4[w]);
    case 6: FUSE(r0[w] ^ r1[w] ^ r2[w] ^ r3[w] ^ r4[w] ^ r5[w]);
    case 7: FUSE(r0[w] ^ r1[w] ^ r2[w] ^ r3[w] ^ r4[w] ^ r5[w] ^ r6[w]);
    default: FUSE(r0[w] ^ r1[w] ^ r2[w] ^ r3[w] ^ r4[w] ^ r5[w] ^ r6[w]
                  ^ r7[w]);
    }
}

/* c += a @ b by M4RM: a is m x l, b is l x n, c is m x n.
 *
 * Row blocks of b_s rows outer; inside a block, groups of t stripes of k
 * columns of a (the last stripe may be narrower). Each group builds its t
 * Gray tables from the matching rows of b into `tables` (t tables of 2^k
 * rows of ceil(n/64) words, consecutive), then updates every row of the
 * block once. `tail` masks the used bits of a row's last word of b. */
void gf2mat_m4rm(word *c, int64_t c_stride, const word *a, int64_t a_stride,
                 const word *b, int64_t b_stride, int64_t m, int64_t l,
                 int64_t n, int k, int64_t b_s, int t, word tail,
                 word *tables)
{
    int64_t width = (n + 63) / 64;
    int64_t table_words = width << k;
    const word *rows[MAX_TABLES] = {0};
    int64_t sc[MAX_TABLES];
    int kw[MAX_TABLES];

    for (int64_t r0 = 0; r0 < m; r0 += b_s) {
        int64_t r1 = r0 + b_s < m ? r0 + b_s : m;
        for (int64_t g0 = 0; g0 < l; g0 += (int64_t)t * k) {
            int ng = 0;
            for (; ng < t && g0 + (int64_t)ng * k < l; ng++) {
                sc[ng] = g0 + (int64_t)ng * k;
                kw[ng] = l - sc[ng] < k ? (int)(l - sc[ng]) : k;
                gray_table(tables + ng * table_words, b + sc[ng] * b_stride,
                           b_stride, kw[ng], width, tail);
            }
            for (int64_t r = r0; r < r1; r++) {
                const word *arow = a + r * a_stride;
                for (int g = 0; g < ng; g++)
                    rows[g] = tables + g * table_words
                              + read_bits(arow, sc[g], kw[g]) * width;
                combine(c + r * c_stride, rows, ng, width);
            }
        }
    }
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
    static const word lo[6] = {
        0x00000000FFFFFFFFull, 0x0000FFFF0000FFFFull, 0x00FF00FF00FF00FFull,
        0x0F0F0F0F0F0F0F0Full, 0x3333333333333333ull, 0x5555555555555555ull,
    };
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

/* c = a @ b by AND, XOR-accumulate and parity, with b given transposed.
 *
 * a is m x l (wl = ceil(l/64) words per row), bt is n x l with bits beyond
 * column l clear, so the AND drops whatever a keeps beyond its edge. c is
 * m x n and owned: every word of its rows is written. Full blocks of 64
 * output columns take the transpose fold, the remainder popcount parity. */
void gf2mat_cubic(word *c, int64_t c_stride, const word *a, int64_t a_stride,
                  const word *bt, int64_t bt_stride, int64_t m, int64_t wl,
                  int64_t n)
{
    word sums[64];
    for (int64_t i = 0; i < m; i++) {
        const word *arow = a + i * a_stride;
        word *crow = c + i * c_stride;
        for (int64_t j0 = 0; j0 < n; j0 += 64) {
            int cnt = n - j0 < 64 ? (int)(n - j0) : 64;
            for (int jj = 0; jj < cnt; jj++) {
                const word *brow = bt + (j0 + jj) * bt_stride;
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
            crow[j0 >> 6] = out;
        }
    }
}
