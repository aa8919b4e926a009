/* Native kernels for the packed-bit hot spots.
 *
 * Compiled at runtime by repro.gf2.kernels (plain `cc -O3 -shared -fPIC`)
 * and loaded through ctypes — no build step, no new dependency; if no
 * compiler is available the pure-numpy backend takes over.  Every function
 * here is bit-identical to its numpy reference (pinned by
 * tests/test_kernels.py).
 *
 * Everything runs on the calling thread.  The callers parallelize with
 * forked worker processes, and a thread team started here in the parent
 * would not exist in a forked child, which would then wait on it forever.
 *
 * Bit conventions match repro.gf2.bitmat.pack_rows: bit j of a row lives
 * in word j/64 at little-endian bit position j%64.
 */

#include <stdint.h>

/* 64x64 bit transpose of one block, little-endian butterfly network
 * (Hacker's Delight 7-3, mirrored for little-endian bit order exactly
 * like the numpy reference in repro.gf2.bitmat). */
static void transpose64(uint64_t w[64]) {
  static const int shifts[6] = {32, 16, 8, 4, 2, 1};
  static const uint64_t masks[6] = {
      0x00000000FFFFFFFFULL, 0x0000FFFF0000FFFFULL, 0x00FF00FF00FF00FFULL,
      0x0F0F0F0F0F0F0F0FULL, 0x3333333333333333ULL, 0x5555555555555555ULL,
  };
  for (int s = 0; s < 6; s++) {
    const int j = shifts[s];
    const uint64_t m = masks[s];
    for (int lo = 0; lo < 64; lo++) {
      if (lo & j) {
        continue;
      }
      const int hi = lo | j;
      const uint64_t a = w[lo];
      const uint64_t b = w[hi];
      const uint64_t t = ((a >> j) ^ b) & m;
      w[lo] = a ^ (t << j);
      w[hi] = b ^ t;
    }
  }
}

/* Blockwise bit transpose.
 *
 * in : (row_blocks * 64, nwords) uint64, row-major, rows >= m zero-padded
 * out: (nwords * 64, row_blocks) uint64, row-major
 *
 * out[(c*64 + j) * row_blocks + b] bit i == in[(b*64 + i) * nwords + c]
 * bit j — the same contract as the vectorized numpy butterfly.
 */
void repro_transpose_words(const uint64_t *in, uint64_t *out,
                           long row_blocks, long nwords) {
  const long nblocks = row_blocks * nwords;
  for (long t = 0; t < nblocks; t++) {
    const long b = t / nwords;
    const long c = t % nwords;
    uint64_t w[64];
    const uint64_t *src = in + (b * 64) * nwords + c;
    for (int i = 0; i < 64; i++) {
      w[i] = src[(long)i * nwords];
    }
    transpose64(w);
    uint64_t *dst = out + (c * 64) * row_blocks + b;
    for (int j = 0; j < 64; j++) {
      dst[(long)j * row_blocks] = w[j];
    }
  }
}

/* Per-row popcount: out[i] = number of set bits in row i of (m, n). */
void repro_popcount_rows(const uint64_t *in, long m, long n, int64_t *out) {
  for (long i = 0; i < m; i++) {
    const uint64_t *row = in + i * n;
    int64_t total = 0;
    for (long k = 0; k < n; k++) {
#if defined(__GNUC__) || defined(__clang__)
      total += __builtin_popcountll(row[k]);
#else
      uint64_t v = row[k];
      v = v - ((v >> 1) & 0x5555555555555555ULL);
      v = (v & 0x3333333333333333ULL) + ((v >> 2) & 0x3333333333333333ULL);
      v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
      total += (int64_t)((v * 0x0101010101010101ULL) >> 56);
#endif
    }
    out[i] = total;
  }
}

/* splitmix64-style fold of multi-word rows to one uint64 hash key each —
 * the sort key for the hash-grouped unique_shot_words fast path. */
void repro_fold_rows(const uint64_t *in, long m, long n, uint64_t *out) {
  for (long i = 0; i < m; i++) {
    const uint64_t *row = in + i * n;
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (long k = 0; k < n; k++) {
      uint64_t v = row[k] + h;
      v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ULL;
      v = (v ^ (v >> 27)) * 0x94D049BB133111EBULL;
      h = v ^ (v >> 31);
    }
    out[i] = h;
  }
}
