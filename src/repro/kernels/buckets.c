/*
 * The compiled Δ-bucket loop: repro.sssp.fused.run_buckets in plain C.
 *
 * The paper's fastest delta-stepping (§VI.B, Fig. 3's "Fused C impl.")
 * fuses the Hadamard product, the vxm and the vector filters into one
 * direct loop over one source's vertices.  This file is that loop, for
 * every caller of run_buckets: single-source solves (the service's
 * batches are K of them) and incremental repair.  It relaxes one vertex
 * space: t has one entry per CSR row.  Plain C ABI, no Python.h;
 * repro.kernels.compiled builds it at import and calls it through ctypes
 * (which releases the GIL).
 *
 * The schedule is the NumPy loop's, step for step, so distances and the
 * four counters (buckets, phases, relaxations, updates) match exactly:
 *
 *  - the bucket queue is repro.kernels.BucketQueue: bucket ids from
 *    NumPy's fmod-based floor_divide, walked to b*Δ <= d < (b+1)*Δ
 *    under those exact products; pop takes the smallest pending bucket,
 *    dedupes it, drops entries below its window and refiles entries at
 *    or above its top; light improvements that leave the window go
 *    straight to bucket i+1;
 *  - a bucket runs light phases until quiescent, then one heavy phase
 *    over the union of its phase frontiers (the settled set);
 *  - waves are Jacobi: the whole frontier is scanned into a request
 *    array (per-target minimum, NaN propagating as in np.minimum) from
 *    the distances at wave start, then the improvements are applied.
 *
 * Frontier order differs (a mark array dedupes instead of a sort);
 * neither the distances nor the counters depend on it.  All scratch is
 * allocated per call and there are no globals, so calls may run on
 * threads at once.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

enum { RB_OK = 0, RB_OVERFLOW = 1, RB_BAD_CSR = 2, RB_NO_MEMORY = 3 };

/* per-vertex mark bits: seen in this pop, settled in this bucket, holds a request */
enum { M_POP = 1, M_SETTLED = 2, M_REQ = 4 };

/* BucketQueue.push refuses distance/delta ratios from here on */
#define MAX_BUCKET 4611686018427387904.0 /* 2**62 */

typedef struct {
    int64_t *a;
    int64_t len, cap;
} vec;

static int vec_reserve(vec *v, int64_t need)
{
    if (need <= v->cap)
        return 1;
    int64_t cap = v->cap ? v->cap : 256;
    while (cap < need)
        cap *= 2;
    int64_t *a = realloc(v->a, (size_t)cap * sizeof *a);
    if (!a)
        return 0;
    v->a = a;
    v->cap = cap;
    return 1;
}

static int vec_push(vec *v, int64_t x)
{
    if (v->len == v->cap && !vec_reserve(v, v->len + 1))
        return 0;
    v->a[v->len++] = x;
    return 1;
}

static void vec_swap(vec *a, vec *b)
{
    vec tmp = *a;
    *a = *b;
    *b = tmp;
}

/* a binary min-heap of (bucket, key) entries */
typedef struct {
    int64_t b, key;
} entry;

typedef struct {
    entry *a;
    int64_t len, cap;
} heap;

static int heap_push(heap *h, int64_t b, int64_t key)
{
    if (h->len == h->cap) {
        int64_t cap = h->cap ? 2 * h->cap : 256;
        entry *a = realloc(h->a, (size_t)cap * sizeof *a);
        if (!a)
            return 0;
        h->a = a;
        h->cap = cap;
    }
    int64_t i = h->len++;
    while (i > 0) {
        int64_t p = (i - 1) / 2;
        if (h->a[p].b <= b)
            break;
        h->a[i] = h->a[p];
        i = p;
    }
    h->a[i].b = b;
    h->a[i].key = key;
    return 1;
}

static int64_t heap_pop_key(heap *h)
{
    int64_t key = h->a[0].key;
    entry last = h->a[--h->len];
    int64_t i = 0, n = h->len;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && h->a[c + 1].b < h->a[c].b)
            c++;
        if (h->a[c].b >= last.b)
            break;
        h->a[i] = h->a[c];
        i = c;
    }
    if (n)
        h->a[i] = last;
    return key;
}

/*
 * The pending entries, split in two: a ring of RING slots holds buckets
 * cur+1 .. cur+RING (slot b % RING), where light phases and most heavy
 * edges file; a heap holds every other entry.  Pop merges both for the
 * smallest bucket, so the split changes nothing but the cost.
 */
#define RING 64

typedef struct {
    double delta;
    int64_t cur;     /* the bucket popped last */
    int started;     /* a bucket was popped: the ring window exists */
    int64_t in_ring; /* entries across all ring slots */
    vec ring[RING];
    heap far;
} queue;

static int in_window(const queue *q, int64_t b)
{
    return q->started && b > q->cur && b - q->cur <= RING;
}

static int file_key(queue *q, int64_t b, int64_t key)
{
    if (in_window(q, b)) {
        q->in_ring++;
        return vec_push(&q->ring[b & (RING - 1)], key);
    }
    return heap_push(&q->far, b, key);
}

/* Move the ring into the heap, before the window moves down (a bucket
 * below cur only appears through negative weights). */
static int spill_ring(queue *q)
{
    for (int64_t b = q->cur + 1; b <= q->cur + RING; b++) {
        vec *slot = &q->ring[b & (RING - 1)];
        for (int64_t j = 0; j < slot->len; j++)
            if (!heap_push(&q->far, b, slot->a[j]))
                return 0;
        slot->len = 0;
    }
    q->in_ring = 0;
    return 1;
}

/* NumPy's float floor_divide (npy_divmod), so the 2**62 guard fires on
 * exactly the inputs it fires on in BucketQueue.push */
static double np_floor_divide(double a, double b)
{
    if (!b)
        return a / b;
    double mod = fmod(a, b);
    double div = (a - mod) / b;
    if (mod && ((b < 0) != (mod < 0)))
        div -= 1.0;
    if (!div)
        return copysign(0.0, a / b);
    double floordiv = floor(div);
    if (div - floordiv > 0.5)
        floordiv += 1.0;
    return floordiv;
}

/* BucketQueue.push: file keys under the buckets of their distances in t.
 * The guard checks the whole batch before anything is filed. */
static int push_batch(queue *q, const double *t, const vec *keys, vec *idx)
{
    const double delta = q->delta;
    if (!vec_reserve(idx, keys->len))
        return RB_NO_MEMORY;
    for (int64_t j = 0; j < keys->len; j++) {
        double d = t[keys->a[j]], guess = d / delta;
        /* below 2**61 the quotient is a valid first guess (the walk
         * reaches the same bucket from any start) and floor_divide is
         * below 2**62; elsewhere floor_divide itself decides the guard */
        if (!(guess >= 0 && guess < MAX_BUCKET / 2)) {
            guess = np_floor_divide(d, delta);
            /* the lower bound (never reached from non-negative
             * distances) keeps the conversion below defined */
            if (!(guess < MAX_BUCKET) || !(guess > -MAX_BUCKET))
                return RB_OVERFLOW;
        }
        idx->a[j] = (int64_t)guess;
    }
    for (int64_t j = 0; j < keys->len; j++) {
        double d = t[keys->a[j]];
        int64_t b = idx->a[j];
        /* floor_divide misrounds at bucket boundaries: walk to the fixed
         * point of b*Δ <= d < (b+1)*Δ under the exact window products */
        while ((double)b * delta > d)
            b--;
        while ((double)(b + 1) * delta <= d)
            b++;
        if (!file_key(q, b, keys->a[j]))
            return RB_NO_MEMORY;
    }
    return RB_OK;
}

typedef struct {
    const int64_t *ptr, *idx;
    const double *w;
    int64_t nnz;
} csr;

/* One Jacobi wave's first half: every out-edge of the frontier becomes a
 * request, min-reduced per target into req (NaN propagating, as in
 * np.minimum); the targets with a request are listed once each.  Rows
 * and columns are bounds-checked. */
static int scan(const vec *frontier, const csr *A, int64_t n, const double *t, double *req,
                unsigned char *mark, vec *touched, int64_t *relaxations)
{
    touched->len = 0;
    for (int64_t f = 0; f < frontier->len; f++) {
        int64_t u = frontier->a[f];
        int64_t s = A->ptr[u], e = A->ptr[u + 1];
        if (s < 0 || e < s || e > A->nnz)
            return RB_BAD_CSR;
        double du = t[u];
        *relaxations += e - s;
        for (int64_t j = s; j < e; j++) {
            int64_t v = A->idx[j];
            if ((uint64_t)v >= (uint64_t)n)
                return RB_BAD_CSR;
            double c = du + A->w[j];
            /* a candidate that neither improves t nor is NaN cannot
             * change the wave's outcome (t is not written until the
             * wave applies) */
            if (!(c < t[v]) && c == c)
                continue;
            if (mark[v] & M_REQ) {
                if (c < req[v] || c != c)
                    req[v] = c;
            } else {
                mark[v] |= M_REQ;
                req[v] = c;
                if (!vec_push(touched, v))
                    return RB_NO_MEMORY;
            }
        }
    }
    return RB_OK;
}

/* The wave's second half: every improving request lowers t; the key goes
 * to *out* below *hi* and otherwise into bucket b+1 (a light edge out of
 * window b lands at or above the window's floor, so that is its bucket).
 * The heavy phase passes hi = INFINITY: all its improvements go to *out*. */
static int apply(const vec *touched, double *t, const double *req, unsigned char *mark,
                 queue *q, int64_t b, double hi, vec *out, int64_t *updates)
{
    out->len = 0;
    for (int64_t j = 0; j < touched->len; j++) {
        int64_t key = touched->a[j];
        double r = req[key];
        mark[key] &= (unsigned char)~M_REQ;
        if (!(r < t[key]))
            continue;
        t[key] = r;
        ++*updates;
        if (r < hi ? !vec_push(out, key) : !file_key(q, b + 1, key))
            return RB_NO_MEMORY;
    }
    return RB_OK;
}

/* BucketQueue.pop_bucket: the next non-empty bucket into *frontier*;
 * returns with frontier->len == 0 when no work is left. */
static int pop_bucket(queue *q, const double *t, unsigned char *mark, vec *gathered,
                      vec *frontier, vec *late, vec *idx)
{
    frontier->len = 0;
    while (q->in_ring || q->far.len) {
        int64_t b = INT64_MAX;
        if (q->in_ring)
            for (b = q->cur + 1; !q->ring[b & (RING - 1)].len; b++)
                ;
        if (q->far.len && q->far.a[0].b < b)
            b = q->far.a[0].b;
        if (q->started && b < q->cur && !spill_ring(q))
            return RB_NO_MEMORY;
        gathered->len = 0;
        if (in_window(q, b)) {
            vec *slot = &q->ring[b & (RING - 1)];
            q->in_ring -= slot->len;
            vec_swap(gathered, slot);
        }
        while (q->far.len && q->far.a[0].b == b)
            if (!vec_push(gathered, heap_pop_key(&q->far)))
                return RB_NO_MEMORY;
        q->cur = b;
        q->started = 1;
        const double lo = (double)b * q->delta, hi = (double)(b + 1) * q->delta;
        late->len = 0;
        for (int64_t j = 0; j < gathered->len; j++) {
            int64_t key = gathered->a[j];
            if (mark[key] & M_POP)
                continue;
            mark[key] |= M_POP;
            double d = t[key];
            if (d >= hi) {
                if (!vec_push(late, key))
                    return RB_NO_MEMORY;
            } else if (d >= lo && !vec_push(frontier, key)) {
                return RB_NO_MEMORY;
            }
        }
        for (int64_t j = 0; j < gathered->len; j++)
            mark[gathered->a[j]] &= (unsigned char)~M_POP;
        if (late->len) {
            int status = push_batch(q, t, late, idx);
            if (status)
                return status;
        }
        if (frontier->len)
            return RB_OK;
    }
    return RB_OK;
}

/*
 * Run the light/heavy bucket loop from *seeds* to quiescence over the
 * vertices 0..n-1, updating t (n entries) in place.  A_L and A_H are CSR
 * triples over n rows (ptr has n + 1 entries, idx and w at least nnz).
 * counters receives buckets, phases, relaxations and updates.  Returns
 * RB_OK, or RB_OVERFLOW (a distance/delta ratio reached 2**62),
 * RB_BAD_CSR (a row or column out of range) or RB_NO_MEMORY; t is then
 * partly updated.  The caller guarantees n > 0 and 0 <= seeds[j] < n.
 */
int repro_run_buckets(double *t, int64_t n, const int64_t *seeds, int64_t num_seeds,
                      double delta, const int64_t *al_ptr, const int64_t *al_idx,
                      const double *al_w, int64_t al_nnz, const int64_t *ah_ptr,
                      const int64_t *ah_idx, const double *ah_w, int64_t ah_nnz,
                      int64_t *counters)
{
    const csr AL = {al_ptr, al_idx, al_w, al_nnz}, AH = {ah_ptr, ah_idx, ah_w, ah_nnz};
    int64_t steps = 0, phases = 0, relaxations = 0, updates = 0;
    int status = RB_NO_MEMORY;
    vec frontier = {0}, next = {0}, settled = {0}, touched = {0}, gathered = {0}, late = {0},
        idx = {0};
    queue q = {.delta = delta};
    unsigned char *mark = calloc((size_t)n, 1);
    double *req = malloc((size_t)n * sizeof *req);
    if (!mark || !req)
        goto done;

    vec seed_vec = {(int64_t *)seeds, num_seeds, num_seeds};
    status = push_batch(&q, t, &seed_vec, &idx);
    while (status == RB_OK) {
        status = pop_bucket(&q, t, mark, &gathered, &frontier, &late, &idx);
        if (status || !frontier.len)
            break;
        const int64_t b = q.cur;
        const double hi = (double)(b + 1) * delta;
        steps++;
        settled.len = 0;
        /* light phases until the bucket is quiescent; the settled set is
         * the union of their frontiers */
        while (frontier.len && status == RB_OK) {
            phases++;
            for (int64_t j = 0; j < frontier.len && status == RB_OK; j++) {
                int64_t key = frontier.a[j];
                if (!(mark[key] & M_SETTLED)) {
                    mark[key] |= M_SETTLED;
                    if (!vec_push(&settled, key))
                        status = RB_NO_MEMORY;
                }
            }
            if (status == RB_OK)
                status = scan(&frontier, &AL, n, t, req, mark, &touched, &relaxations);
            if (status == RB_OK)
                status = apply(&touched, t, req, mark, &q, b, hi, &next, &updates);
            vec_swap(&frontier, &next);
        }
        /* one heavy phase over the settled set */
        phases++;
        if (status == RB_OK)
            status = scan(&settled, &AH, n, t, req, mark, &touched, &relaxations);
        if (status == RB_OK)
            status = apply(&touched, t, req, mark, &q, b, INFINITY, &next, &updates);
        if (status == RB_OK)
            status = push_batch(&q, t, &next, &idx);
        for (int64_t j = 0; j < settled.len; j++)
            mark[settled.a[j]] &= (unsigned char)~M_SETTLED;
    }

done:
    counters[0] = steps;
    counters[1] = phases;
    counters[2] = relaxations;
    counters[3] = updates;
    free(mark);
    free(req);
    free(frontier.a);
    free(next.a);
    free(settled.a);
    free(touched.a);
    free(gathered.a);
    free(late.a);
    free(idx.a);
    for (int r = 0; r < RING; r++)
        free(q.ring[r].a);
    free(q.far.a);
    return status;
}
