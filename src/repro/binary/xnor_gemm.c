/* Binary GEMM on packed bipolar operands: the XNOR/popcount arithmetic a
 * logic-in-memory crossbar computes natively.
 *
 *   out[i, j] = length - 2 * sum_w popcount(a[i, w] ^ bt[w, j])
 *
 * a is (m, words) and bt is (words, n), both row-major uint64; out is
 * (m, n) row-major int64.  The right operand comes transposed so the
 * loop over output columns is innermost and contiguous: the compiler
 * vectorises the XOR, the popcount and the accumulation across LANES
 * columns, whose accumulators stay in registers for a whole row.
 *
 * Built and loaded at run time by repro/binary/native.py, which checks
 * it against the numpy word loop of repro/binary/bitops.py before use.
 */
#include <stdint.h>

#define LANES 8

/* Columns [j, j + cols) of every row, cols <= LANES.  Called with the
 * constant LANES for all full column blocks, so that copy is unrolled. */
static inline void columns(const uint64_t *restrict a,
                           const uint64_t *restrict bt, int64_t *restrict out,
                           int64_t m, int64_t n, int64_t words,
                           int64_t length, int64_t j, int64_t cols)
{
    for (int64_t i = 0; i < m; i++) {
        const uint64_t *restrict row = a + i * words;
        int64_t acc[LANES] = {0};
        for (int64_t w = 0; w < words; w++) {
            const uint64_t x = row[w];
            const uint64_t *restrict col = bt + w * n + j;
            for (int64_t k = 0; k < cols; k++)
                acc[k] += __builtin_popcountll(x ^ col[k]);
        }
        for (int64_t k = 0; k < cols; k++)
            out[i * n + j + k] = length - 2 * acc[k];
    }
}

void xnor_gemm(const uint64_t *restrict a, const uint64_t *restrict bt,
               int64_t *restrict out, int64_t m, int64_t n, int64_t words,
               int64_t length)
{
    int64_t j = 0;
    for (; j + LANES <= n; j += LANES)
        columns(a, bt, out, m, n, words, length, j, LANES);
    if (j < n)
        columns(a, bt, out, m, n, words, length, j, n - j);
}
