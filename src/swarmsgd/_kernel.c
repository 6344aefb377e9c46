/* The engine's per-update arithmetic and its event heap, in one stated
 * order, so that no result depends on a BLAS kernel or a SIMD width.
 *
 * Built by _kernel.py with -O2 -ffp-contract=off (no FMA contraction, no
 * fast-math), loaded through ctypes; _kernel.py holds a numpy twin of
 * every function that follows the same order bit for bit.
 *
 * The order:
 * - a dot u . x is u[0] x[0], then + u[m] x[m] for m = 1, 2, ... in turn;
 * - a matrix row times a vector is that row's dot with the vector;
 * - a delta is, element by element, the oracle term, + coef x_i, then
 *   + gamma a P, where P is the swarm sum row or the neighbours' rows
 *   added in index order; the pull term is left out when gamma a is 0.
 *   A ridge oracle term over several samples adds r_s u_s for s = 0, 1,
 *   ... in turn, quadratic's is the row of -gamma Q times x_i plus the
 *   shift, sine's sin(2 x) (-3 gamma) plus the shift.
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

static double dot(const double *u, const double *x, int64_t dim)
{
    double s = u[0] * x[0];
    for (int64_t m = 1; m < dim; m++)
        s += u[m] * x[m];
    return s;
}

/* out[r] = A[r] . B[r]; B advances by b_stride doubles a row (0: one vector). */
void swarmsgd_dots(int64_t rows, int64_t dim, const double *A, const double *B,
                   int64_t b_stride, double *out)
{
    for (int64_t r = 0; r < rows; r++)
        out[r] = dot(A + r * dim, B + r * b_stride, dim);
}

/* out[i] = log(x[i]), the C library's. */
void swarmsgd_logs(int64_t n, const double *x, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = log(x[i]);
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

/* Run n_run updates of one block. Update j moves row threads[j] of the
 * (rows, dim) positions X by its delta, which it also writes into row
 * j + 1 of D; with pull PULL_SUM it adds the delta to the sum row S too.
 * Its oracle inputs: for ridge the batch feature rows feat[j * batch ..]
 * and targets targ[j * batch ..], r_s = targ_s - tg u_s . x; else the
 * shift row shift[j] and, for quadratic, the (dim, dim) matrix G = -gamma
 * Q. coef[i] is row i's own coefficient; PULL_NEIGHBOURS reads the rows
 * nbr_idx[nbr_start[i] .. nbr_start[i + 1]]. After every update whose
 * count k0 + j + 1 is a multiple of record_every, X is copied into the
 * next (rows, dim) slot of states. scratch holds max(batch, dim) doubles. */
void swarmsgd_move(int64_t n_run, int64_t rows, int64_t dim, int64_t kind, int64_t batch,
                   double *X, double *S, double *D, const int64_t *threads,
                   const double *feat, const double *targ, const double *shift,
                   const double *G, const double *coef, double tg, double sine_coef,
                   double ga, int64_t pull, const int64_t *nbr_start,
                   const int64_t *nbr_idx, double *scratch, int64_t k0,
                   int64_t record_every, double *states)
{
    int64_t written = 0;
    for (int64_t j = 0; j < n_run; j++) {
        int64_t i = threads[j];
        double *x = X + i * dim;
        double *d = D + (j + 1) * dim;
        if (kind == KIND_RIDGE) {
            const double *u = feat + j * batch * dim;
            for (int64_t s = 0; s < batch; s++)
                scratch[s] = targ[j * batch + s] - tg * dot(u + s * dim, x, dim);
            for (int64_t m = 0; m < dim; m++) {
                double v = scratch[0] * u[m];
                for (int64_t s = 1; s < batch; s++)
                    v += scratch[s] * u[s * dim + m];
                d[m] = v;
            }
        } else if (kind == KIND_QUADRATIC) {
            for (int64_t m = 0; m < dim; m++)
                d[m] = dot(G + m * dim, x, dim) + shift[j * dim + m];
        } else {
            for (int64_t m = 0; m < dim; m++)
                d[m] = sin(x[m] * 2.0) * sine_coef + shift[j * dim + m];
        }
        double c = coef[i];
        for (int64_t m = 0; m < dim; m++)
            d[m] += c * x[m];
        if (pull == PULL_SUM) {
            for (int64_t m = 0; m < dim; m++)
                d[m] += ga * S[m];
        } else if (pull == PULL_NEIGHBOURS) {
            const int64_t *nb = nbr_idx + nbr_start[i];
            int64_t count = nbr_start[i + 1] - nbr_start[i];
            memcpy(scratch, X + nb[0] * dim, dim * sizeof(double));
            for (int64_t q = 1; q < count; q++) {
                const double *y = X + nb[q] * dim;
                for (int64_t m = 0; m < dim; m++)
                    scratch[m] += y[m];
            }
            for (int64_t m = 0; m < dim; m++)
                d[m] += ga * scratch[m];
        }
        for (int64_t m = 0; m < dim; m++)
            x[m] += d[m];
        if (pull == PULL_SUM)
            for (int64_t m = 0; m < dim; m++)
                S[m] += d[m];
        if ((k0 + j + 1) % record_every == 0) {
            memcpy(states + written * rows * dim, X, rows * dim * sizeof(double));
            written++;
        }
    }
}
