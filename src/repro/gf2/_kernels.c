/* Native kernels for the packed-bit hot spots, the BP+OSD decoder and
 * the sampler's shot draw.
 *
 * Compiled at runtime by repro.gf2.kernels (`cc -O3 -ffp-contract=off
 * -shared -fPIC`) and loaded through ctypes — no build step, no new
 * dependency; if no compiler is available the pure-numpy backend takes
 * over.  Every function here is bit-identical to its numpy reference
 * (pinned by tests/test_kernels.py, tests/test_bposd_kernels.py and
 * tests/test_sample_fires_kernel.py).
 * The BP kernel reproduces numpy's floating-point operations one for
 * one, so the compiler must not fuse a multiply and an add into an FMA:
 * hence -ffp-contract=off.
 *
 * Everything runs on the calling thread.  The callers parallelize with
 * forked worker processes, and a thread team started here in the parent
 * would not exist in a forked child, which would then wait on it forever.
 *
 * Bit conventions match repro.gf2.bitmat.pack_rows: bit j of a row lives
 * in word j/64 at little-endian bit position j%64.
 */

#include <stdint.h>
#include <math.h>
#include <string.h>

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
static uint64_t fold_row(const uint64_t *row, long n) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (long k = 0; k < n; k++) {
    uint64_t v = row[k] + h;
    v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ULL;
    v = (v ^ (v >> 27)) * 0x94D049BB133111EBULL;
    h = v ^ (v >> 31);
  }
  return h;
}

void repro_fold_rows(const uint64_t *in, long m, long n, uint64_t *out) {
  for (long i = 0; i < m; i++) {
    out[i] = fold_row(in + i * n, n);
  }
}

/* -- BP: normalized min-sum, one syndrome at a time ----------------------
 *
 * The numpy reference runs all shots of a batch together; this kernel
 * walks one shot's edges at a time and repeats its arithmetic exactly:
 *
 *   check node  c2v = (+-)(double)0.8f * min(min over the row's other
 *               edges of |v2c|, 25.0), negative iff the syndrome bit
 *               XOR the parity of the other edges' negative messages;
 *   column sum  numpy's add.reduceat: the first edge of the column plus
 *               the pairwise sum of the rest (pairwise_sum below), in
 *               double, then cast to float (0 for a column no detector
 *               touches);
 *   posterior   post = prior + colsum, in float;
 *   v2c         (double)post - c2v.
 *
 * Messages start as the float priors.  A shot stops at the first
 * iteration whose hard decision (post < 0) reproduces its syndrome and
 * keeps that iteration's outputs; max_iterations == 0 returns the
 * priors, zero decisions and converged = 0.
 */

/* numpy's pairwise summation of n >= 1 gathered doubles (the inner loop
 * of its float64 add reduction): plain below 8 terms, eight strided
 * accumulators up to 128, halves above. */
static double pairwise_sum(const double *a, const int64_t *idx, long n) {
  if (n < 8) {
    double res = -0.0;
    for (long i = 0; i < n; i++) {
      res += a[idx[i]];
    }
    return res;
  }
  if (n <= 128) {
    double r[8];
    long i;
    for (int j = 0; j < 8; j++) {
      r[j] = a[idx[j]];
    }
    for (i = 8; i < n - (n % 8); i += 8) {
      for (int j = 0; j < 8; j++) {
        r[j] += a[idx[i + j]];
      }
    }
    double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++) {
      res += a[idx[i]];
    }
    return res;
  }
  long n2 = n / 2;
  n2 -= n2 % 8;
  return pairwise_sum(a, idx, n2) + pairwise_sum(a, idx + n2, n - n2);
}

/* syndromes : (shots, rows) uint8
 * row_ptr   : (rows + 1,) edge offsets, edges numbered row-major
 * edge_col  : (edges,) column of each edge
 * col_ptr   : (cols + 1,) offsets into col_order
 * col_order : (edges,) edge ids grouped by column, rows ascending
 * prior     : (cols,) float prior LLRs
 * work      : (2 * edges,) double scratch
 * posterior : (shots, cols) float out;  decisions : (shots, cols) uint8
 * out;  converged : (shots,) uint8 out
 */
void repro_bp_min_sum(const uint8_t *syndromes, long shots, long rows,
                      long cols, const int64_t *row_ptr,
                      const int64_t *edge_col, const int64_t *col_ptr,
                      const int64_t *col_order, const float *prior,
                      long max_iterations, double *work, float *posterior,
                      uint8_t *decisions, uint8_t *converged) {
  const long edges = row_ptr[rows];
  double *v2c = work;
  double *c2v = work + edges;
  const double scale = (double)0.8f;
  for (long s = 0; s < shots; s++) {
    const uint8_t *syn = syndromes + s * rows;
    float *post = posterior + s * cols;
    uint8_t *dec = decisions + s * cols;
    converged[s] = 0;
    for (long c = 0; c < cols; c++) {
      post[c] = prior[c];
      dec[c] = 0;
    }
    for (long e = 0; e < edges; e++) {
      v2c[e] = (double)prior[edge_col[e]];
    }
    for (long it = 0; it < max_iterations; it++) {
      for (long r = 0; r < rows; r++) {
        const long lo = row_ptr[r];
        const long hi = row_ptr[r + 1];
        double min1 = INFINITY;
        double min2 = INFINITY;
        long count = 0; /* edges at min1: a wide count, never wraps */
        int parity = syn[r] & 1;
        for (long e = lo; e < hi; e++) {
          const double m = fabs(v2c[e]);
          parity ^= v2c[e] < 0;
          if (m < min1) {
            min2 = min1;
            min1 = m;
            count = 1;
          } else if (m == min1) {
            count++;
          } else if (m < min2) {
            min2 = m;
          }
        }
        if (count > 1) {
          min2 = min1;
        }
        for (long e = lo; e < hi; e++) {
          const double m = fabs(v2c[e]);
          double ext = (m == min1 && count == 1) ? min2 : min1;
          if (ext > 25.0) {
            ext = 25.0;
          }
          const double mag = scale * ext;
          c2v[e] = (parity ^ (v2c[e] < 0)) ? -mag : mag;
        }
      }
      for (long c = 0; c < cols; c++) {
        const long lo = col_ptr[c];
        const long n = col_ptr[c + 1] - lo;
        float colsum = 0.0f;
        if (n > 0) {
          double sum = c2v[col_order[lo]];
          if (n > 1) {
            sum += pairwise_sum(c2v, col_order + lo + 1, n - 1);
          }
          colsum = (float)sum;
        }
        const float p = prior[c] + colsum;
        post[c] = p;
        dec[c] = p < 0.0f;
        for (long k = lo; k < lo + n; k++) {
          const long e = col_order[k];
          v2c[e] = (double)p - c2v[e];
        }
      }
      int ok = 1;
      for (long r = 0; r < rows && ok; r++) {
        int parity = syn[r] & 1;
        for (long e = row_ptr[r]; e < row_ptr[r + 1]; e++) {
          parity ^= dec[edge_col[e]];
        }
        ok = !parity;
      }
      if (ok) {
        converged[s] = 1;
        break;
      }
    }
  }
}

/* -- OSD: greedy column basis ---------------------------------------------
 *
 * Row-reducing H with its columns in reliability order pivots exactly on
 * the greedy basis of those columns: column i is a pivot iff it is not
 * in the span of the columns before it.  So instead of an RREF, walk the
 * columns in order and reduce each against the basis built so far.
 * Basis vectors are kept by leading bit (an XOR basis), each with the
 * bitset of pivots whose sum it is.  A column that reduces to zero is
 * the sum of the pivots in its accumulated bitset — exactly its column
 * in the RREF — and a syndrome that reduces to zero is solved by its
 * bitset, the unique solution on the pivot columns.
 *
 * hcols     : (cols, nwords) packed columns of H (rows <= 64 * nwords)
 * order     : (cols,) the column order to walk
 * syndrome  : (nwords,) packed
 * target    : stop once this many pivots are found (rank(H)), or -1 to
 *             walk every column
 * n_free    : also record the first n_free non-pivot positions
 * work      : (2 * 64 * nwords * nwords + 3 * nwords,) uint64 scratch
 * pivots    : (cap,) positions in `order` of the pivots, ascending
 * solution  : (cap,) the syndrome's pivot coefficients
 * free_cols : (n_free,) positions of the first non-pivot columns
 * combos    : (n_free, cap) zeroed; combos[f][k] = 1 iff pivot k is in
 *             the sum equal to free column f
 * counts    : out [rank, free columns found, syndrome consistent]
 */
static long top_bit(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
  return 63 - __builtin_clzll(x);
#else
  long b = 63;
  while (!(x >> b)) {
    b--;
  }
  return b;
#endif
}

static int reduce_vec(uint64_t *v, uint64_t *comb, long nwords,
                      const uint64_t *have, const uint64_t *bvec,
                      const uint64_t *bcomb) {
  int left = 0;
  for (long w = nwords - 1; w >= 0; w--) {
    uint64_t x;
    while ((x = v[w] & have[w]) != 0) {
      const long slot = w * 64 + top_bit(x);
      const uint64_t *b = bvec + slot * nwords;
      const uint64_t *c = bcomb + slot * nwords;
      for (long k = 0; k <= w; k++) {
        v[k] ^= b[k];
      }
      for (long k = 0; k < nwords; k++) {
        comb[k] ^= c[k];
      }
    }
    left |= v[w] != 0;
  }
  return left;
}

void repro_osd_basis(const uint64_t *hcols, long cols, long nwords,
                     const int64_t *order, const uint64_t *syndrome,
                     long target, long n_free, long cap, uint64_t *work,
                     int64_t *pivots, uint8_t *solution, int64_t *free_cols,
                     uint8_t *combos, int64_t *counts) {
  const long slots = 64 * nwords;
  uint64_t *bvec = work;
  uint64_t *bcomb = bvec + slots * nwords;
  uint64_t *have = bcomb + slots * nwords;
  uint64_t *v = have + nwords;
  uint64_t *comb = v + nwords;
  memset(have, 0, nwords * sizeof(uint64_t));
  long rank = 0;
  long nfree = 0;
  for (long i = 0; i < cols; i++) {
    if (rank == target && nfree >= n_free) {
      break;
    }
    memcpy(v, hcols + order[i] * nwords, nwords * sizeof(uint64_t));
    memset(comb, 0, nwords * sizeof(uint64_t));
    if (reduce_vec(v, comb, nwords, have, bvec, bcomb)) {
      long w = nwords - 1;
      while (v[w] == 0) {
        w--;
      }
      const long slot = w * 64 + top_bit(v[w]);
      comb[rank / 64] ^= 1ULL << (rank % 64);
      memcpy(bvec + slot * nwords, v, nwords * sizeof(uint64_t));
      memcpy(bcomb + slot * nwords, comb, nwords * sizeof(uint64_t));
      have[w] |= 1ULL << (slot % 64);
      pivots[rank++] = i;
    } else if (nfree < n_free) {
      for (long k = 0; k < rank; k++) {
        combos[nfree * cap + k] = (comb[k / 64] >> (k % 64)) & 1;
      }
      free_cols[nfree++] = i;
    }
  }
  memcpy(v, syndrome, nwords * sizeof(uint64_t));
  memset(comb, 0, nwords * sizeof(uint64_t));
  const int consistent = !reduce_vec(v, comb, nwords, have, bvec, bcomb);
  if (consistent) {
    for (long k = 0; k < rank; k++) {
      solution[k] = (comb[k / 64] >> (k % 64)) & 1;
    }
  }
  counts[0] = rank;
  counts[1] = nfree;
  counts[2] = consistent;
}

/* Shot indices of the sampler's fire events, drawn exactly as numpy's
 * Generator.choice(pop, size=counts[m], replace=False) draws them, one
 * mechanism after another from the caller's generator.
 *
 * bitgen_t is numpy's C bit-generator interface (numpy/random/bitgen.h),
 * reached through BitGenerator.ctypes.bit_generator; the caller holds
 * the generator's lock.  Bounded draws are numpy's
 * random_bounded_uint64(bitgen, 0, rng, 0, 0) for rng < 2**32: nothing
 * for rng == 0, one raw word for rng == 2**32 - 1, else Lemire's
 * rejection method on next_uint32.
 *
 * Floyd path (pop <= 10000 or size <= pop / 50): for j in pop-size ..
 * pop-1 take a draw v in [0, j], or j itself when v was already taken,
 * then shuffle the size results (numpy's _shuffle_int with first = 1).
 * `marks` (pop bytes, zero on entry and on return) stands in for
 * numpy's hash set.  Tail path (otherwise): shuffle positions pop-1
 * down to max(pop-size, 1) of arange(pop) in `perm` (pop int64) and
 * take the last size entries.
 *
 * out receives sum(counts) indices, mechanism after mechanism.
 */
typedef struct {
  void *state;
  uint64_t (*next_uint64)(void *st);
  uint32_t (*next_uint32)(void *st);
  double (*next_double)(void *st);
  uint64_t (*next_raw)(void *st);
} bitgen_t;

static uint64_t bounded_draw(bitgen_t *bitgen, uint64_t rng) {
  if (rng == 0) {
    return 0;
  }
  if (rng == 0xFFFFFFFFULL) {
    return bitgen->next_uint32(bitgen->state);
  }
  const uint32_t rng_excl = (uint32_t)rng + 1;
  uint64_t m = (uint64_t)bitgen->next_uint32(bitgen->state) * rng_excl;
  uint32_t leftover = (uint32_t)m;
  if (leftover < rng_excl) {
    const uint32_t threshold = (UINT32_MAX - (uint32_t)rng) % rng_excl;
    while (leftover < threshold) {
      m = (uint64_t)bitgen->next_uint32(bitgen->state) * rng_excl;
      leftover = (uint32_t)m;
    }
  }
  return m >> 32;
}

static void shuffle_tail(bitgen_t *bitgen, int64_t *data, int64_t n,
                         int64_t first) {
  for (int64_t i = n - 1; i >= first; i--) {
    const int64_t j = (int64_t)bounded_draw(bitgen, (uint64_t)i);
    const int64_t t = data[j];
    data[j] = data[i];
    data[i] = t;
  }
}

void repro_sample_fires(bitgen_t *bitgen, int64_t pop, const int64_t *counts,
                        long n, uint8_t *marks, int64_t *perm, int64_t *out) {
  for (long m = 0; m < n; m++) {
    const int64_t size = counts[m];
    if (pop <= 10000 || size <= pop / 50) {
      for (int64_t j = pop - size; j < pop; j++) {
        int64_t v = (int64_t)bounded_draw(bitgen, (uint64_t)j);
        if (marks[v]) {
          v = j;
        }
        marks[v] = 1;
        out[j - (pop - size)] = v;
      }
      shuffle_tail(bitgen, out, size, 1);
      for (int64_t k = 0; k < size; k++) {
        marks[out[k]] = 0;
      }
    } else {
      for (int64_t k = 0; k < pop; k++) {
        perm[k] = k;
      }
      shuffle_tail(bitgen, perm, pop, pop - size > 1 ? pop - size : 1);
      memcpy(out, perm + (pop - size), size * sizeof(int64_t));
    }
    out += size;
  }
}

/* -- DEM extraction: the backward sensitivity walk -------------------------
 *
 * Walks a circuit's op table from the last op to the first.  Each qubit
 * keeps an X and a Z row of nwords words: the detectors/observables an
 * X (Z) error on it at this point would flip.  Gate codes are the fixed
 * built-in codes of repro.circuits.gates.GATE_NAMES (H, CNOT, R, RX, M,
 * MX, then the four noise gates); every other code is skipped.
 *
 *   CNOT(c, t)  sx[c] ^= sx[t], sz[t] ^= sz[c]  (pairs in reverse)
 *   H           swap sx, sz
 *   R, RX       clear both rows
 *   M (MX)      sx (sz) ^= the measurement's row (targets in reverse)
 *   noise       snapshot sx, sz of each target, in target order
 *
 * out row 0 stays zero; snapshots fill rows 1, 2, ... in walk order.
 * sx and sz are (nqubits, nwords) work buffers, zeroed by the caller.
 */
enum {
  G_H = 0, G_CNOT = 1, G_R = 2, G_RX = 3, G_M = 4, G_MX = 5,
  G_NOISE_FIRST = 6, G_NOISE_LAST = 9,
};

void repro_walk_back(const int32_t *gates, long nops, const int64_t *tptr,
                     const int64_t *targets, const uint64_t *meas, long nmeas,
                     long nwords, uint64_t *sx, uint64_t *sz, uint64_t *out) {
  long m = nmeas;
  uint64_t *row = out + nwords;
  for (long i = nops - 1; i >= 0; i--) {
    const int32_t g = gates[i];
    const int64_t lo = tptr[i], hi = tptr[i + 1];
    if (g == G_CNOT) {
      for (int64_t k = hi - 2; k >= lo; k -= 2) {
        uint64_t *xc = sx + targets[k] * nwords, *xt = sx + targets[k + 1] * nwords;
        uint64_t *zc = sz + targets[k] * nwords, *zt = sz + targets[k + 1] * nwords;
        for (long w = 0; w < nwords; w++) {
          xc[w] ^= xt[w];
          zt[w] ^= zc[w];
        }
      }
    } else if (g == G_H) {
      for (int64_t k = lo; k < hi; k++) {
        uint64_t *x = sx + targets[k] * nwords, *z = sz + targets[k] * nwords;
        for (long w = 0; w < nwords; w++) {
          const uint64_t t = x[w];
          x[w] = z[w];
          z[w] = t;
        }
      }
    } else if (g == G_R || g == G_RX) {
      for (int64_t k = lo; k < hi; k++) {
        memset(sx + targets[k] * nwords, 0, nwords * sizeof(uint64_t));
        memset(sz + targets[k] * nwords, 0, nwords * sizeof(uint64_t));
      }
    } else if (g == G_M || g == G_MX) {
      uint64_t *rows = g == G_M ? sx : sz;
      for (int64_t k = hi - 1; k >= lo; k--) {
        m--;
        uint64_t *r = rows + targets[k] * nwords;
        const uint64_t *src = meas + m * nwords;
        for (long w = 0; w < nwords; w++) {
          r[w] ^= src[w];
        }
      }
    } else if (g >= G_NOISE_FIRST && g <= G_NOISE_LAST) {
      for (int64_t k = lo; k < hi; k++) {
        memcpy(row, sx + targets[k] * nwords, nwords * sizeof(uint64_t));
        memcpy(row + nwords, sz + targets[k] * nwords, nwords * sizeof(uint64_t));
        row += 2 * nwords;
      }
    }
  }
}

/* -- DEM extraction: grouping faults into mechanisms -----------------------
 *
 * Faults come in site order, each with its (nwords)-word signature and
 * probability.  A fault that flips nothing gets mechanism -1.  With
 * merge, a visible fault joins the mechanism of the first earlier fault
 * with the same signature (an open-addressing table of cap slots, a
 * power of two, holding mechanism ids, -1 = empty, keyed by the
 * splitmix64 fold of fold_row); without, every visible fault is
 * its own mechanism.  So mechanisms come out in first-fault order, and
 * each probability is composed over its faults in site order as
 * p = a(1-p') + p'(1-a) — the numpy reference's operations, unfused.
 * Returns the number of mechanisms.
 */
long repro_group_faults(const uint64_t *sig, long nfaults, long nwords,
                        const double *probs, int merge, int64_t *table,
                        long cap, uint64_t *out_sig, double *out_probs,
                        int32_t *fault_mech) {
  long count = 0;
  for (long f = 0; f < nfaults; f++) {
    const uint64_t *s = sig + f * nwords;
    int visible = 0;
    for (long w = 0; w < nwords; w++) {
      visible |= s[w] != 0;
    }
    if (!visible) {
      fault_mech[f] = -1;
      continue;
    }
    long mech = -1;
    if (merge) {
      uint64_t slot = fold_row(s, nwords) & (uint64_t)(cap - 1);
      while (table[slot] >= 0) {
        if (memcmp(out_sig + table[slot] * nwords, s, nwords * sizeof(uint64_t)) == 0) {
          mech = (long)table[slot];
          break;
        }
        slot = (slot + 1) & (uint64_t)(cap - 1);
      }
      if (mech < 0) {
        table[slot] = count;
      }
    }
    const double p = probs[f];
    if (mech < 0) {
      mech = count++;
      memcpy(out_sig + mech * nwords, s, nwords * sizeof(uint64_t));
      out_probs[mech] = p;
    } else {
      const double a = out_probs[mech];
      out_probs[mech] = a * (1.0 - p) + p * (1.0 - a);
    }
    fault_mech[f] = (int32_t)mech;
  }
  return count;
}
