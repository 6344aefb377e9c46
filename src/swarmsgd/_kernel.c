/* The engine's per-update arithmetic, its threshold watch, its records
 * and its event heap, in one stated order, so that no result depends on
 * a BLAS kernel or a SIMD width.
 *
 * Built by _kernel.py with -O3 -ffp-contract=off (no FMA contraction, no
 * fast-math, no -march), loaded through ctypes; _kernel.py holds a numpy
 * twin of every function that follows the same order bit for bit. -O3
 * vectorizes the element-wise loops, which reorders no sum; without
 * -fassociative-math the dots and the pairwise sums stay serial.
 *
 * The oracle draws come from the run's own numpy bit generator, through
 * the bitgen_t its Generator's bit_generator.ctypes.bit_generator points
 * at, held under the generator's lock: each uniform is next_double(), as
 * numpy's Generator.random draws it, so the kernel's draws and the
 * stream after them are numpy's.
 *
 * The order:
 * - a dot u . x is u[0] x[0], then + u[m] x[m] for m = 1, 2, ... in turn;
 * - a matrix row times a vector is that row's dot with the vector;
 * - a delta is, element by element, the oracle term, + coef x_i, then
 *   + gamma a P, where P is the swarm sum row or the neighbours' rows
 *   added in index order; the pull term is left out when gamma a is 0.
 *   A ridge oracle term over several samples adds r_s u_s for s = 0, 1,
 *   ... in turn, quadratic's is the row of -gamma Q times x_i plus the
 *   shift, sine's sin(2 x) (-3 gamma) plus the shift;
 * - the swarm sum S adds each delta after the update, S[m] += d[m]; the
 *   swarm mean is S[m] inv_n;
 * - the watched error of a mean is e . e with e = mean - x_star, or with
 *   e its gradient where there is no optimum;
 * - a record of a (rows, dim) state is metrics.snapshot's: the mean adds
 *   the rows one at a time from 0.0 and divides by rows (at dim 1, the
 *   pairwise sum below over the rows); Vbar is the pairwise sum of the
 *   squares (x - mean)^2 over the flat state, divided by rows; U is
 *   e . e with e = mean - x_star; grad_norm_sq is g . g of the gradient
 *   at the mean; f_gap is the objective at the mean minus f_star.
 *   The gradient: ridge (2/3 + 2 rho) m - (2/3) x_tilde, quadratic Q m + b,
 *   sine m + 3 sin(2 m). The objective: ridge (d . d) / 3 + rho (m . m) + 1
 *   with d = m - x_tilde, quadratic (Q (0.5 m)) . m + m . b, sine 0.5
 *   (m . m) + 3 (s . s) with s = sin(m).
 * - the pairwise sum is numpy's: fewer than 8 terms are added in turn
 *   from 0.0; up to 128 go to 8 accumulators, r[j] += a[8 i + j], which
 *   are combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) before
 *   the tail is added in turn; more are split at n / 2 rounded down to a
 *   multiple of 8 and the two halves' sums added. The sum adds to 0.0.
 * - a standard normal is the Marsaglia polar method's, in
 *   randomness.polar_normals' rounds: a feature u is next_double() 2 - 1,
 *   and a ridge response is u . x_tilde + eps.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define KIND_RIDGE 0
#define KIND_QUADRATIC 1
#define KIND_SINE 2

#define PULL_NONE 0
#define PULL_SUM 1
#define PULL_NEIGHBOURS 2

/* numpy's bitgen_t (numpy/random/bitgen.h), declared here so that the
 * kernel needs no numpy header. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* One run's arrays and constants; _kernel.Run mirrors this layout. work
 * holds dim + max(batch, dim) + 3 dim + rows dim doubles. */
struct run {
    int64_t rows, dim, kind, batch, pull, record_every;
    /* the watch: on until the first crossing, whose update count is hit */
    int64_t watch, stop, hit;
    /* the sorted update counts whose mean is captured before the update */
    int64_t n_captures, next_capture;
    const int64_t *captures, *nbr_start, *nbr_idx;
    double *X, *S, *captured, *work;
    const double *G, *coef, *Q, *b, *x_tilde, *x_star;
    double tg, sine_coef, ga, inv_n, threshold, f_star, rho;
};

static double dot(const double *u, const double *x, int64_t dim)
{
    double s = u[0] * x[0];
    for (int64_t m = 1; m < dim; m++)
        s += u[m] * x[m];
    return s;
}

static double pairwise(const double *a, int64_t n, int64_t stride)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i * stride];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j * stride];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[(i + j) * stride];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i * stride];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2, stride) + pairwise(a + n2 * stride, n - n2, stride);
}

/* out[r] = A[r] . B[r]; B advances by b_stride doubles a row (0: one vector). */
void swarmsgd_dots(int64_t rows, int64_t dim, const double *A, const double *B,
                   int64_t b_stride, double *out)
{
    for (int64_t r = 0; r < rows; r++)
        out[r] = dot(A + r * dim, B + r * b_stride, dim);
}

/* out[0 .. n) = n standard normals from g. Each round draws max(8,
 * int(0.7 deficit) + 4) candidate pairs (x, y), each next_double() 2 - 1;
 * while the count is short, a pair with 0 < s = x x + y y < 1 gives x f,
 * then y f, with f = sqrt(-2 log(s) / s). Candidates past the count are
 * drawn and dropped. */
void swarmsgd_normals(bitgen_t *g, int64_t n, double *out)
{
    int64_t filled = 0;
    while (filled < n) {
        int64_t pairs = (int64_t)((double)(n - filled) * 0.7) + 4;
        if (pairs < 8)
            pairs = 8;
        for (int64_t p = 0; p < pairs; p++) {
            double x = g->next_double(g->state) * 2.0 - 1.0;
            double y = g->next_double(g->state) * 2.0 - 1.0;
            double s = x * x + y * y;
            if (filled < n && s > 0.0 && s < 1.0) {
                double f = sqrt(-2.0 * log(s) / s);
                out[filled++] = x * f;
                if (filled < n)
                    out[filled++] = y * f;
            }
        }
    }
}

/* Ridge's draws for rows oracle calls from g: the (rows, dim) features U,
 * row by row, then the rows normals eps, then c[r] = U[r] . x_tilde +
 * eps[r]. */
void swarmsgd_ridge_draws(bitgen_t *g, int64_t rows, int64_t dim, const double *x_tilde,
                          double *U, double *c)
{
    for (int64_t i = 0; i < rows * dim; i++)
        U[i] = g->next_double(g->state) * 2.0 - 1.0;
    swarmsgd_normals(g, rows, c);
    for (int64_t r = 0; r < rows; r++)
        c[r] = dot(U + r * dim, x_tilde, dim) + c[r];
}

/* out[r][m] = M[m] . X[r] for the (dim, dim) matrix M. */
void swarmsgd_matvecs(int64_t rows, int64_t dim, const double *M, const double *X,
                      double *out)
{
    for (int64_t r = 0; r < rows; r++)
        for (int64_t m = 0; m < dim; m++)
            out[r * dim + m] = dot(M + m * dim, X + r * dim, dim);
}

/* The event-driven schedule: a binary min-heap of n pending (time, id)
 * completions, ordered by time and then id. Each of the count durations
 * pops the earliest completion into (times, threads) and pushes the
 * same thread back at its time plus the duration. */
void swarmsgd_heap_block(int64_t n, double *ht, int64_t *hi, int64_t count,
                         const double *durations, double *times, int64_t *threads)
{
    for (int64_t c = 0; c < count; c++) {
        double t = ht[0] + durations[c];
        int64_t id = hi[0];
        times[c] = ht[0];
        threads[c] = id;
        /* Sift the new entry down from the root. */
        int64_t pos = 0;
        for (;;) {
            int64_t child = 2 * pos + 1;
            if (child >= n)
                break;
            if (child + 1 < n && (ht[child + 1] < ht[child] ||
                                  (ht[child + 1] == ht[child] && hi[child + 1] < hi[child])))
                child++;
            if (ht[child] < t || (ht[child] == t && hi[child] < id)) {
                ht[pos] = ht[child];
                hi[pos] = hi[child];
                pos = child;
            } else {
                break;
            }
        }
        ht[pos] = t;
        hi[pos] = id;
    }
}

/* g = the exact gradient at the mean m. */
static void gradient(const struct run *r, const double *m, double *g)
{
    int64_t dim = r->dim;
    if (r->kind == KIND_RIDGE) {
        double c = 2.0 / 3.0 + 2.0 * r->rho;
        for (int64_t i = 0; i < dim; i++)
            g[i] = c * m[i] - 2.0 / 3.0 * r->x_tilde[i];
    } else if (r->kind == KIND_QUADRATIC) {
        for (int64_t i = 0; i < dim; i++)
            g[i] = dot(r->Q + i * dim, m, dim) + r->b[i];
    } else {
        for (int64_t i = 0; i < dim; i++)
            g[i] = m[i] + 3.0 * sin(2.0 * m[i]);
    }
}

/* The watched error of the mean m, which e overwrites. */
static double watched_error(const struct run *r, const double *m, double *e)
{
    if (r->x_star == NULL) {
        gradient(r, m, e);
    } else {
        for (int64_t i = 0; i < r->dim; i++)
            e[i] = m[i] - r->x_star[i];
    }
    return dot(e, e, r->dim);
}

/* out = U, Vbar, f_gap, grad_norm_sq of the (rows, dim) state P. */
static void record_metrics(const struct run *r, const double *P, double *out)
{
    int64_t rows = r->rows, dim = r->dim;
    double *m = r->work + dim + (r->batch > dim ? r->batch : dim);
    double *e = m + dim, *h = e + dim, *squares = h + dim;
    if (dim == 1) {
        m[0] = 0.0 + pairwise(P, rows, 1);
    } else {
        for (int64_t i = 0; i < dim; i++)
            m[i] = 0.0;
        for (int64_t n = 0; n < rows; n++)
            for (int64_t i = 0; i < dim; i++)
                m[i] += P[n * dim + i];
    }
    for (int64_t i = 0; i < dim; i++)
        m[i] /= (double)rows;
    for (int64_t n = 0; n < rows; n++)
        for (int64_t i = 0; i < dim; i++) {
            double v = P[n * dim + i] - m[i];
            squares[n * dim + i] = v * v;
        }
    out[1] = (0.0 + pairwise(squares, rows * dim, 1)) / (double)rows;
    out[0] = r->x_star == NULL ? NAN : watched_error(r, m, e);
    double value;
    if (r->kind == KIND_RIDGE) {
        for (int64_t i = 0; i < dim; i++)
            e[i] = m[i] - r->x_tilde[i];
        value = dot(e, e, dim) / 3.0 + r->rho * dot(m, m, dim) + 1.0;
    } else if (r->kind == KIND_QUADRATIC) {
        for (int64_t i = 0; i < dim; i++)
            h[i] = 0.5 * m[i];
        for (int64_t i = 0; i < dim; i++)
            e[i] = dot(r->Q + i * dim, h, dim);
        value = dot(e, m, dim) + dot(m, r->b, dim);
    } else {
        for (int64_t i = 0; i < dim; i++)
            e[i] = sin(m[i]);
        value = 0.5 * dot(m, m, dim) + 3.0 * dot(e, e, dim);
    }
    out[2] = value - r->f_star;
    gradient(r, m, e);
    out[3] = dot(e, e, dim);
}

/* Record X as the state after update count k in slot *written. */
static void record(const struct run *r, int64_t k, double *states, double *records,
                   int64_t *ks, int64_t *written)
{
    int64_t size = r->rows * r->dim;
    memcpy(states + *written * size, r->X, size * sizeof(double));
    record_metrics(r, r->X, records + 4 * *written);
    ks[*written] = k;
    (*written)++;
}

/* Run the n_run updates of one block from update count k0, and return
 * how many records it wrote. Update j moves row threads[j] of the (rows,
 * dim) positions X by its delta and adds the delta to the sum row S. Its
 * oracle inputs: for ridge the batch feature rows feat[j * batch ..] and
 * targets targ[j * batch ..], r_s = targ_s - tg u_s . x; else the shift
 * row shift[j] and, for quadratic, the (dim, dim) matrix G = -gamma Q.
 * coef[i] is row i's own coefficient; PULL_NEIGHBOURS reads the rows
 * nbr_idx[nbr_start[i] .. nbr_start[i + 1]].
 *
 * Before update k0 + j the mean is copied into the next row of captured
 * when k0 + j is the next capture; after it, while the watch is on, its
 * watched error is tested against the threshold. A state is recorded,
 * into the next slots of states, records and ks, at k = 0 (the start),
 * after every update whose count is a multiple of record_every, after
 * the first crossing, and with ends after the block's last update, or
 * at k0 for an empty block, unless one of those recorded it already. With
 * stop the block ends at the crossing. */
int64_t swarmsgd_move(struct run *r, int64_t n_run, int64_t k0, int64_t ends,
                      const int64_t *threads, const double *feat, const double *targ,
                      const double *shift, double *states, double *records, int64_t *ks)
{
    int64_t dim = r->dim, batch = r->batch, written = 0;
    double *X = r->X, *S = r->S, *d = r->work, *scratch = r->work + dim;
    double *mean = scratch + (batch > dim ? batch : dim), *e = mean + dim;
    if (k0 == 0)
        record(r, 0, states, records, ks, &written);
    for (int64_t j = 0; j < n_run; j++) {
        if (r->next_capture < r->n_captures && r->captures[r->next_capture] == k0 + j) {
            double *c = r->captured + r->next_capture * dim;
            for (int64_t m = 0; m < dim; m++)
                c[m] = S[m] * r->inv_n;
            r->next_capture++;
        }
        int64_t i = threads[j];
        double *x = X + i * dim;
        if (r->kind == KIND_RIDGE) {
            const double *u = feat + j * batch * dim;
            for (int64_t s = 0; s < batch; s++)
                scratch[s] = targ[j * batch + s] - r->tg * dot(u + s * dim, x, dim);
            for (int64_t m = 0; m < dim; m++) {
                double v = scratch[0] * u[m];
                for (int64_t s = 1; s < batch; s++)
                    v += scratch[s] * u[s * dim + m];
                d[m] = v;
            }
        } else if (r->kind == KIND_QUADRATIC) {
            for (int64_t m = 0; m < dim; m++)
                d[m] = dot(r->G + m * dim, x, dim) + shift[j * dim + m];
        } else {
            for (int64_t m = 0; m < dim; m++)
                d[m] = sin(x[m] * 2.0) * r->sine_coef + shift[j * dim + m];
        }
        double c = r->coef[i];
        for (int64_t m = 0; m < dim; m++)
            d[m] += c * x[m];
        if (r->pull == PULL_SUM) {
            for (int64_t m = 0; m < dim; m++)
                d[m] += r->ga * S[m];
        } else if (r->pull == PULL_NEIGHBOURS) {
            const int64_t *nb = r->nbr_idx + r->nbr_start[i];
            int64_t count = r->nbr_start[i + 1] - r->nbr_start[i];
            memcpy(scratch, X + nb[0] * dim, dim * sizeof(double));
            for (int64_t q = 1; q < count; q++) {
                const double *y = X + nb[q] * dim;
                for (int64_t m = 0; m < dim; m++)
                    scratch[m] += y[m];
            }
            for (int64_t m = 0; m < dim; m++)
                d[m] += r->ga * scratch[m];
        }
        for (int64_t m = 0; m < dim; m++)
            x[m] += d[m];
        for (int64_t m = 0; m < dim; m++)
            S[m] += d[m];
        int64_t k = k0 + j + 1;
        int crossed = 0;
        if (r->watch) {
            for (int64_t m = 0; m < dim; m++)
                mean[m] = S[m] * r->inv_n;
            if (watched_error(r, mean, e) <= r->threshold) {
                crossed = 1;
                r->watch = 0;
                r->hit = k;
            }
        }
        if (crossed || k % r->record_every == 0 || (ends && j + 1 == n_run))
            record(r, k, states, records, ks, &written);
        if (crossed && r->stop)
            return written;
    }
    if (ends && n_run == 0 && k0 % r->record_every && k0 != r->hit)
        record(r, k0, states, records, ks, &written);
    return written;
}
