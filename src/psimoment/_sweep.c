/* The piece sweep of psimoment.sweep.sweep_segment, compiled.
 *
 * It does, block by block, what the numpy path of sweep_segment does after
 * window_events: merge the two sorted event runs, continue the running
 * window weight, build the pieces' lengths and u, multiply out the running
 * power terms of fold_powers and fold each order like _fold.  Every value
 * takes the same IEEE operations in the same order as there, so the bits
 * are the same: build it with -ffp-contract=off and without -ffast-math, so
 * that no a*b + c becomes one rounding.  psimoment.kernel builds and loads
 * it, and psimoment.sweep checks it against the numpy path before using it.
 *
 * Only the order of the work differs.  The merge is one linear pass instead
 * of a sort per block.  The terms are made TERM_CHUNK pieces at a time for
 * GROUP orders at once, and the first TwoSum level of a block pairs them as
 * they are made, so a block's pieces go through memory once per GROUP
 * orders rather than twice per order.
 *
 * It also does the two sums around the sweep that the numpy path leaves to
 * math.fsum: the window weight at the segment's start, over the weights
 * inside the window there, and each order's sum of its parts.  fsum below
 * is CPython's math.fsum, operation for operation, so both have its bits.
 *
 * Built by GCC 11 or later for x86-64 with glibc, the hot functions are
 * compiled for x86-64-v4 (AVX-512), x86-64-v3 (AVX2) and the baseline, and
 * the dynamic loader picks the clone that the running CPU can run when the
 * library loads (an ifunc), so a library in a cache shared by machines
 * never runs an instruction the CPU lacks.  Wider vectors only change how
 * many elementwise operations run at once: with -ffp-contract=off no clone
 * fuses a multiply and an add, and none reorders an addition, so every
 * clone gives the same bits.  Other compilers build the baseline alone.
 * On a 2-vCPU AVX-512 VM, one-target builds of this source (-march, no
 * clones) swept the pieces of a 2^21 segment near 1e8 in 2.43 ms for the
 * baseline, 2.19 ms for x86-64-v3 and 2.15 ms for x86-64-v4 with a fixed
 * window, and in 2.74, 2.51 and 2.23 ms with a scaled one (medians over 7
 * alternating processes; each v3 process beat each baseline one).
 */

#include <stdint.h>
#include <string.h>

#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 11 && defined(__x86_64__) \
    && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define CLONES
#endif

#define RUN_CHUNK 128 /* coordinates of a run converted at a time for the merge */
#define SIGN INT64_MIN /* a double's sign bit */
#define TERM_CHUNK 128 /* pieces whose terms are made at a time */
#define GROUP 3 /* orders folded in one pass over a block */

static int64_t min64(int64_t a, int64_t b) { return a < b ? a : b; }

static int64_t bits(double v)
{
    int64_t i;
    memcpy(&i, &v, sizeof i);
    return i;
}

static double real(int64_t i)
{
    double v;
    memcpy(&v, &i, sizeof v);
    return v;
}

/* The correctly rounded sum of v[0..n), as CPython's math.fsum has it: the
 * input is added into a list of nonoverlapping partials, exactly, and the
 * partials are added from the largest, with the last rounding made half-even
 * across them.  Where math.fsum raises or returns a value that is not finite
 * (an infinite or NaN value, an intermediate overflow) or more than
 * MAX_PARTIALS partials would be kept, this returns NaN instead, and the
 * caller sums with math.fsum. */
#define MAX_PARTIALS 2100 /* nonoverlapping: at most one per bit from 2^-1074 to 2^1023 */

static double magnitude(double v) { return v < 0.0 ? -v : v; }

static double fsum(const double *v, int64_t n)
{
    double p[MAX_PARTIALS];
    int64_t m = 0;
    for (int64_t t = 0; t < n; t++) {
        double x = v[t];
        int64_t i = 0;
        for (int64_t j = 0; j < m; j++) {
            double y = p[j];
            if (magnitude(x) < magnitude(y)) {
                double swap = x;
                x = y;
                y = swap;
            }
            double hi = x + y;
            double lo = y - (hi - x);
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        if (!(x - x == 0.0) || i == MAX_PARTIALS) /* x - x is NaN for inf and NaN */
            return 0.0 / 0.0;
        m = i;
        if (x != 0.0)
            p[m++] = x;
    }
    double hi = 0.0, lo = 0.0;
    if (m > 0) {
        hi = p[--m];
        while (m > 0) { /* add from the top while the sum stays exact */
            double x = hi, y = p[--m];
            hi = x + y;
            lo = y - (hi - x);
            if (lo != 0.0)
                break;
        }
        /* Round half-even across the partials below: a tie by hi + lo alone
         * may not be one once they are counted. */
        if (m > 0 && ((lo < 0.0 && p[m - 1] < 0.0) || (lo > 0.0 && p[m - 1] > 0.0))) {
            double y = lo * 2.0, x = hi + y;
            if (y == x - hi)
                hi = x;
        }
    }
    return hi;
}

/* One TwoSum step: the sum of a and b and its rounding error, in Knuth's
 * branch-free form, as _fold has it. */
static double two_sum(double a, double b, double *err)
{
    double s = a + b;
    double z = s - a;
    *err = (a - (s - z)) + (b - z);
    return s;
}

/* The terms of pieces [0, n), n <= TERM_CHUNK, in the ascending orders
 * ks[0..ng), to terms[g]: fold_powers' running products.  Piece t runs from x[t] to
 * x[t + 1] with window weight u[t] + beta.  With delta = 0 its term is
 * L*u^k; otherwise L*P_k, P_k = u_hi*P_(k-1) + u_lo^k, with
 * u_lo = u - x*delta at its start and u_hi at its end. */
CLONES static void powers(const double *x, const double *u, double delta, int64_t n,
                          const int64_t *ks, int64_t ng, double (*terms)[TERM_CHUNK])
{
    double r[TERM_CHUNK], q[TERM_CHUNK], lo[TERM_CHUNK], hi[TERM_CHUNK];
    for (int64_t t = 0; t < n; t++) {
        r[t] = x[t + 1] - x[t];
        q[t] = r[t];
        lo[t] = u[t];
    }
    if (delta != 0.0)
        for (int64_t t = 0; t < n; t++) {
            hi[t] = u[t] - x[t + 1] * delta;
            lo[t] = u[t] - x[t] * delta;
        }
    for (int64_t k = 1, g = 0; g < ng; k++) {
        if (delta != 0.0)
            for (int64_t t = 0; t < n; t++) {
                r[t] = r[t] * lo[t];
                q[t] = q[t] * hi[t];
                q[t] = q[t] + r[t];
            }
        else
            for (int64_t t = 0; t < n; t++)
                r[t] = r[t] * lo[t];
        if (k == ks[g])
            memcpy(terms[g++], delta != 0.0 ? q : r, n * sizeof(double));
    }
}

/* The terms of the block's pieces [0, pieces) in the ascending orders
 * ks[0..ng), each folded as _fold folds it, to parts[g*cap + counts[g] ..).
 * out[g] takes the first TwoSum level, its m sums then its m errors, and
 * every later level of w values halves them in place: a step writes index
 * i < w/2 after it has read i and i + w/2, and no later step reads below
 * w/2. */
CLONES static void fold_block(const double *x, const double *u, double delta,
                              int64_t pieces, const int64_t *ks, int64_t ng, int64_t fold_to,
                              double **out, double *parts, int64_t cap, int64_t *counts)
{
    double a[GROUP][TERM_CHUNK], b[GROUP][TERM_CHUNK];
    if (pieces <= fold_to) {
        for (int64_t t0 = 0; t0 < pieces; t0 += TERM_CHUNK) {
            int64_t n = min64(TERM_CHUNK, pieces - t0);
            powers(x + t0, u + t0, delta, n, ks, ng, a);
            for (int64_t g = 0; g < ng; g++)
                for (int64_t t = 0; t < n; t++)
                    parts[g * cap + counts[g]++] = a[g][t];
        }
        return;
    }
    int64_t m = pieces / 2;
    if (pieces % 2) {
        powers(x + pieces - 1, u + pieces - 1, delta, 1, ks, ng, a);
        for (int64_t g = 0; g < ng; g++)
            parts[g * cap + counts[g]++] = a[g][0];
    }
    for (int64_t t0 = 0; t0 < m; t0 += TERM_CHUNK) {
        int64_t n = min64(TERM_CHUNK, m - t0);
        powers(x + t0, u + t0, delta, n, ks, ng, a);
        powers(x + m + t0, u + m + t0, delta, n, ks, ng, b);
        for (int64_t g = 0; g < ng; g++)
            for (int64_t t = 0; t < n; t++)
                out[g][t0 + t] = two_sum(a[g][t], b[g][t], &out[g][m + t0 + t]);
    }
    for (int64_t g = 0; g < ng; g++) {
        double *v = out[g], *e = out[g] + m, *p = parts + g * cap;
        int64_t np = counts[g], w = m;
        for (; w > fold_to; w /= 2) {
            int64_t h = w / 2;
            if (w % 2) {
                p[np++] = v[w - 1];
                p[np++] = e[w - 1];
            }
            for (int64_t i = 0; i < h; i++) {
                double err;
                v[i] = two_sum(v[i], v[h + i], &err);
                err += e[i];
                e[i] = err + e[h + i];
            }
        }
        for (int64_t i = 0; i < w; i++)
            p[np++] = v[i];
        for (int64_t i = 0; i < w; i++)
            p[np++] = e[i];
        counts[g] = np;
    }
}

/* Sweep one segment: n_leaves leaves and n_enters enters (ascending prime
 * powers and their weights), the n_inside weights inside the window at
 * x = a, the window (x, (1 + delta)x + beta], and the n_ks orders ks.  x,
 * u, c, d and r are block + 2 values each.  The parts of order ks[o] go to
 * parts[o*cap ..), their count to counts[o] and their fsum to sums[o].
 * Returns the window weight s0 at x = a, the fsum of the inside weights;
 * where that is NaN, nothing is swept. */
CLONES double psimoment_sweep(const int64_t *leaves, const double *leave_ws, int64_t n_leaves,
                              const int64_t *enters, const double *enter_ws, int64_t n_enters,
                              const double *inside, int64_t n_inside,
                              double a, double b, double delta, double beta,
                              const int64_t *ks, int64_t n_ks, int64_t block, int64_t fold_to,
                              double *x, double *u, double *c, double *d, double *r,
                              double *parts, int64_t cap, int64_t *counts, double *sums)
{
    int64_t n = n_leaves + n_enters;
    double den = 1.0 + delta, s0 = fsum(inside, n_inside);
    if (s0 != s0)
        return s0;
    for (int64_t o = 0; o < n_ks; o++)
        counts[o] = 0;
    x[0] = a;
    u[0] = s0 - beta;
    int64_t p = 0, q = 0; /* the leaves and enters merged so far */
    for (int64_t i = 0; i <= n; i += block) {
        int64_t j = min64(i + block, n + 1), pieces = j - i;
        int64_t count = min64(j, n) - i; /* events x[1..count] */

        /* The merge, leaves first on equal coordinates, and the cumsum of
         * the signed weights.  The coordinates of the leaves and enters this
         * block can reach go to d and c, RUN_CHUNK at a time as the merge needs
         * them; every coordinate is positive, so they order as their bits. */
        int64_t lmax = min64(count, n_leaves - p), emax = min64(count, n_enters - q);
        const int64_t *lv = leaves + p, *ev = enters + q;
        const double *lw = leave_ws + p, *ew = enter_ws + q;
        int64_t l = 0, e = 0, t = 0, lready = 0, eready = 0;
        double acc = u[0];
        for (;;) {
            if (l == lready && lready < lmax)
                for (int64_t stop = min64(lmax, lready + RUN_CHUNK); lready < stop; lready++)
                    d[lready] = (double)lv[lready];
            if (e == eready && eready < emax)
                for (int64_t stop = min64(emax, eready + RUN_CHUNK); eready < stop; eready++)
                    c[eready] = ((double)ev[eready] - beta) / den;
            int64_t steps = min64(count - t, min64(lready - l, eready - e));
            if (steps <= 0)
                break;
            for (int64_t s = 0; s < steps; s++) {
                int64_t lc = bits(d[l]), ec = bits(c[e]);
                int64_t take = lc <= ec, mask = -take;
                x[t + 1] = real((lc & mask) | (ec & ~mask));
                acc = acc + real(((bits(lw[l]) ^ SIGN) & mask) | (bits(ew[e]) & ~mask));
                u[t + 1] = acc;
                l += take;
                e += 1 - take;
                t++;
            }
        }
        for (; t < count && l < lmax; t++, l++) {
            x[t + 1] = (double)lv[l];
            acc = acc + -lw[l];
            u[t + 1] = acc;
        }
        for (; t < count && e < emax; t++, e++) {
            x[t + 1] = ((double)ev[e] - beta) / den;
            acc = acc + ew[e];
            u[t + 1] = acc;
        }
        p += l;
        q += e;
        if (j == n + 1)
            x[pieces] = b;

        /* Every order's terms, GROUP orders at a time into c, d and r. */
        double *out[GROUP] = {c, d, r};
        for (int64_t g = 0; g < n_ks; g += GROUP)
            fold_block(x, u, delta, pieces, ks + g, min64(GROUP, n_ks - g), fold_to, out,
                       parts + g * cap, cap, counts + g);
        x[0] = x[pieces]; /* the next block's start */
        u[0] = u[pieces];
    }
    for (int64_t o = 0; o < n_ks; o++)
        sums[o] = fsum(parts + o * cap, counts[o]);
    return s0;
}
