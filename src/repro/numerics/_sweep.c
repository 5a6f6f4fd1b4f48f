/* Compiled Gauss-Seidel and Jacobi block sweeps for repro.numerics.kernels.
 *
 * One call sweeps a block; each plane is built row by row, and every
 * element gets exactly the IEEE-754 operations the numpy kernels in
 * kernels.py apply to it, in the same order, so the two backends
 * produce the same bits:
 *
 *   neighbour sum  t = seed; t += up; t += down; t += left*; t += right*;
 *                  t -= left* (x = 0); t -= right* (x = n-1)
 *                  (* the flattened-row neighbour: at the x-edges it is
 *                  the adjacent row's edge value, added and then
 *                  subtracted again, as _inplane_sum does)
 *   Gauss-Seidel   seed = above, or 0.0 on a ghost-less top plane;
 *                  new = (below*d) + ((t*d) [+ cur*a] [+ db])
 *   Jacobi         seed = below + above, a missing plane (no ghost at
 *                  the block's edge) counting as 0.0;
 *                  new = ((cur*a) + (t*d) | t*d) [+ db]
 *   projection     new = max(new, lower), then min(new, upper), with
 *                  numpy's NaN propagation; a tie keeps the bound, which
 *                  matters for +0.0 against -0.0 only (_ckernels.py
 *                  checks at load time that numpy does the same)
 *   diff           max(max(new - cur), -min(new - cur)), NaN when any
 *                  difference is NaN, and +0.0 when it is zero
 *
 * "[+ x]" terms are skipped exactly when the numpy kernels skip them.
 * float32 sweeps compute in float with each coefficient rounded once,
 * where numpy multiplies a float32 array by the coefficient in float32
 * (a Python float).  Where numpy does it in float64 (a numpy float64
 * under NumPy 2; _ckernels.py asks numpy which), params->strong is set
 * and the product is taken in double and rounded to float, as numpy's
 * float64 loop with a float32 output does.  Build with
 * -ffp-contract=off (no fused multiply-add) and never with -ffast-math.
 *
 * The body is built twice: for the baseline instruction set of the
 * compile flags (SSE2 on x86-64) and, on x86-64 GCC or clang, once more
 * for AVX2 through a target pragma (entry points suffixed _avx2);
 * repro_cpu_avx2() tells the loader which one this CPU can run.  AVX2
 * only widens the vectors: FMA stays off (an #error guards it) and no
 * AVX-512 body exists (it measured slower).  Each element still gets
 * the operations listed above, in that order.  The one thing the
 * vectoriser may regroup is the extrema reduction, which is safe: max
 * and min do not depend on the grouping except for which zero a
 * +0.0/-0.0 tie keeps, the diff does not see that sign (Gauss-Seidel
 * ends in + 0.0, Jacobi only takes a strictly larger value over 0.0),
 * and NaN is tracked apart from the extrema.
 *
 * A sweep runs as a job (repro_sweep_start, then repro_sweep_join) on
 * a small pool of worker threads, or on the joining thread itself; see
 * "Worker pool" below.  Whichever thread runs it, it is the same call
 * of the same body on the same arrays, so the bits do not depend on it.
 * A job arrives with the addresses of its ndarray objects, and
 * repro_sweep_start, which runs under the interpreter lock, swaps in
 * their data pointers, read at params->data_off (the first field after
 * the object header in numpy's ABI-stable PyArrayObject): the kernels
 * touch no Python object.  The caller has already checked type, shape,
 * dtype, alignment and contiguity.
 */

#ifndef REPRO_SWEEP_BODY
#define REPRO_SWEEP_BODY

#define _POSIX_C_SOURCE 200809L

#include <float.h>
#include <math.h>
#include <pthread.h>
#include <signal.h>
#include <stddef.h>
#include <stdint.h>
#include <time.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "FLT_EVAL_METHOD != 0: arithmetic would not round like numpy's"
#endif
#ifdef __FAST_MATH__
#error "-ffast-math reorders floating-point operations"
#endif

/* Mirrors _ckernels.Params field for field. */
typedef struct {
    int64_t n, m;                            /* plane side, planes */
    int64_t has_a;                           /* a != 0.0, tested in double */
    int64_t strong;                          /* numpy scales float32 in double */
    int64_t db_kind, lower_kind, upper_kind; /* 0 absent, 1 scalar, 2 field */
    int64_t data_off;                        /* ndarray data pointer offset */
    double d, a, db;                         /* coefficients as Python floats */
    double diff;                             /* out: the sweep's diff */
    const void *db_field, *lower, *upper;    /* field or 0-d data pointers */
} repro_sweep_params;

/* The data pointer of the ndarray object at obj (load-time self-test). */
const void *repro_array_data(const void *obj, int64_t data_off)
{
    return *(const void *const *)((const char *)obj + data_off);
}


static int overlaps(const char *a, size_t a_len, const char *b, size_t b_len)
{
    return b != NULL && a < b + b_len && b < a + a_len;
}

#define T double
#define NAME(x) x##_f64
#define NARROW 0
#include "_sweep.c" /* this file, once per dtype */
#undef T
#undef NAME
#undef NARROW

#define T float
#define NAME(x) x##_f32
#define NARROW 1
#include "_sweep.c" /* this file, once per dtype */
#undef T
#undef NAME
#undef NARROW

/* The same body again, compiled for AVX2: 32-byte vectors, same
 * operations in the same order per element.  Only on x86-64 under GCC
 * or clang; elsewhere the baseline body is all there is. */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#ifdef __clang__
#pragma clang attribute push(__attribute__((target("avx2"))), apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2")
#endif
#ifdef __FMA__
#error "FMA enabled: a fused multiply-add rounds once where numpy rounds twice"
#endif

#define T double
#define NAME(x) x##_f64_avx2
#define NARROW 0
#include "_sweep.c" /* this file, once per dtype */
#undef T
#undef NAME
#undef NARROW

#define T float
#define NAME(x) x##_f32_avx2
#define NARROW 1
#include "_sweep.c" /* this file, once per dtype */
#undef T
#undef NAME
#undef NARROW

#ifdef __clang__
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

/* 1 when this CPU runs the AVX2 body: it has AVX2 and the operating
 * system saves the YMM registers (the builtin checks both). */
int repro_cpu_avx2(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
}

#else

int repro_cpu_avx2(void) { return 0; }

#endif

/* Worker pool.
 *
 * repro_sweep_start queues a job and wakes a worker; repro_sweep_join
 * waits for it.  A joiner whose job is still queued takes it back and
 * runs it itself, and one whose job is running elsewhere runs other
 * queued jobs while it waits, so with no workers at all (one usable
 * CPU) every sweep simply runs at join.  Workers start on the first
 * job and block every signal, which the interpreter's thread keeps
 * handling.  None of this touches the interpreter: the caller holds a
 * reference to every array of a job until it has joined it.
 *
 * fork: the prepare handler stops workers and joiners from taking new
 * jobs and waits until no job is running, so the child inherits every
 * job either done or queued, with all of its arrays written or none.
 * The child has no workers (threads do not survive fork); the next
 * start spawns them again, and a join there runs its queued job. */

/* Mirrors _ckernels.Job field for field. */
typedef struct repro_job {
    int (*kernel)(repro_sweep_params *, const void *, void *,
                  const void *, const void *);
    repro_sweep_params *p;
    const void *cur;                         /* ndarray objects, then */
    void *nxt;                               /* their data pointers */
    const void *gb, *ga;
    double seconds;                          /* out: the kernel's run time */
    int64_t status;                          /* out: the kernel's result */
    int64_t state;                           /* pool-owned, see below */
    struct repro_job *next;                  /* pool-owned queue link */
} repro_job;

enum { JOB_IDLE, JOB_QUEUED, JOB_RUNNING, JOB_DONE };

static pthread_mutex_t pool_lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t pool_work = PTHREAD_COND_INITIALIZER; /* queued, or fork over */
static pthread_cond_t pool_done = PTHREAD_COND_INITIALIZER; /* a job finished */
static repro_job *queue_head, *queue_tail;
static int64_t pool_workers;  /* threads wanted */
static int64_t pool_started;  /* threads running in this process */
static int64_t pool_busy;     /* jobs being run, by workers or joiners */
static int pool_forking;
static int pool_atfork;

/* Run job on this thread, timing the kernel (lock not held). */
static void run_job(repro_job *job)
{
    struct timespec t0, t1;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    job->status = job->kernel(job->p, job->cur, job->nxt, job->gb, job->ga);
    clock_gettime(CLOCK_MONOTONIC, &t1);
    job->seconds = (double)(t1.tv_sec - t0.tv_sec)
                   + 1e-9 * (double)(t1.tv_nsec - t0.tv_nsec);
}

/* Take job out of the queue to run it (lock held). */
static void claim(repro_job *job)
{
    repro_job **link = &queue_head, *prev = NULL;
    while (*link != job) {
        prev = *link;
        link = &prev->next;
    }
    *link = job->next;
    if (queue_tail == job)
        queue_tail = prev;
    job->state = JOB_RUNNING;
    pool_busy++;
}

/* Run a claimed job and mark it done (lock held on entry and exit). */
static void run_claimed(repro_job *job)
{
    pthread_mutex_unlock(&pool_lock);
    run_job(job);
    pthread_mutex_lock(&pool_lock);
    job->state = JOB_DONE;
    pool_busy--;
    pthread_cond_broadcast(&pool_done);
}

static void *worker(void *unused)
{
    (void)unused;
    pthread_mutex_lock(&pool_lock);
    for (;;) {
        if (pool_forking || queue_head == NULL) {
            pthread_cond_wait(&pool_work, &pool_lock);
            continue;
        }
        repro_job *job = queue_head;
        claim(job);
        run_claimed(job);
    }
    return NULL;
}

/* Start workers up to pool_workers (lock held); a thread that cannot
 * be created lowers the target, and joiners run what is left. */
static void spawn_workers(void)
{
    sigset_t all, old;
    pthread_attr_t attr;
    if (pool_started >= pool_workers)
        return;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    pthread_attr_init(&attr);
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
    while (pool_started < pool_workers) {
        pthread_t thread;
        if (pthread_create(&thread, &attr, worker, NULL) != 0) {
            pool_workers = pool_started;
            break;
        }
        pool_started++;
    }
    pthread_attr_destroy(&attr);
    pthread_sigmask(SIG_SETMASK, &old, NULL);
}

static void before_fork(void)
{
    pthread_mutex_lock(&pool_lock);
    pool_forking = 1;
    while (pool_busy > 0)
        pthread_cond_wait(&pool_done, &pool_lock);
}

static void after_fork_parent(void)
{
    pool_forking = 0;
    pthread_cond_broadcast(&pool_work);
    pthread_cond_broadcast(&pool_done);
    pthread_mutex_unlock(&pool_lock);
}

/* The forking thread held the lock; its copy is re-made unlocked, as
 * are the conditions whose waiters did not survive the fork. */
static void after_fork_child(void)
{
    pool_forking = 0;
    pool_started = 0;
    pthread_mutex_init(&pool_lock, NULL);
    pthread_cond_init(&pool_work, NULL);
    pthread_cond_init(&pool_done, NULL);
}

/* Set how many workers the pool runs (the loader derives it from the
 * CPUs this process may use); returns 0, or an errno value when the
 * fork handlers cannot be installed (then no worker ever starts). */
int repro_pool_size(int64_t workers)
{
    int err = 0;
    pthread_mutex_lock(&pool_lock);
    if (!pool_atfork) {
        err = pthread_atfork(before_fork, after_fork_parent,
                             after_fork_child);
        pool_atfork = err == 0;
    }
    pool_workers = pool_atfork && workers > 0 ? workers : 0;
    pthread_mutex_unlock(&pool_lock);
    return err;
}

#define REPRO_DATA(obj) \
    ((obj) ? *(char *const *)((const char *)(obj) + job->p->data_off) : NULL)

/* Queue job; it may start running at once on a worker.  Called under
 * the interpreter lock, with job's arrays as ndarray objects. */
void repro_sweep_start(repro_job *job)
{
    job->cur = REPRO_DATA(job->cur);
    job->nxt = REPRO_DATA(job->nxt);
    job->gb = REPRO_DATA(job->gb);
    job->ga = REPRO_DATA(job->ga);
    pthread_mutex_lock(&pool_lock);
    job->state = JOB_QUEUED;
    job->next = NULL;
    if (queue_tail)
        queue_tail->next = job;
    else
        queue_head = job;
    queue_tail = job;
    spawn_workers();
    pthread_cond_signal(&pool_work);
    pthread_mutex_unlock(&pool_lock);
}

/* Wait for a started job; returns its kernel's result (0: done, 1:
 * nxt overlaps an input and nothing was written). */
int repro_sweep_join(repro_job *job)
{
    pthread_mutex_lock(&pool_lock);
    while (job->state != JOB_DONE) {
        if (pool_forking) {
            pthread_cond_wait(&pool_done, &pool_lock);
        } else if (job->state == JOB_QUEUED) {
            claim(job);
            run_claimed(job);
        } else if (queue_head != NULL) {
            repro_job *other = queue_head;
            claim(other);
            run_claimed(other);
        } else {
            pthread_cond_wait(&pool_done, &pool_lock);
        }
    }
    job->state = JOB_IDLE;
    pthread_mutex_unlock(&pool_lock);
    return (int)job->status;
}

#else /* REPRO_SWEEP_BODY: everything below is instantiated per dtype */

/* x * coefficient, in the precision numpy picks for it (a strong
 * coefficient only differs from a weak one when T is narrower). */
static inline T NAME(scale)(T x, T c, double c_strong, int strong)
{
    return NARROW && strong ? (T)((double)x * c_strong) : x * c;
}

/* np.maximum / np.minimum: a NaN operand wins, a tie keeps the bound. */
static inline T NAME(maximum)(T v, T bound) { return (v != v || v > bound) ? v : bound; }
static inline T NAME(minimum)(T v, T bound) { return (v != v || v < bound) ? v : bound; }

/* Relax plane z into out and fold its differences into *hi, *lo, *nan.
 *
 * Gauss-Seidel (gs): za is the old plane above (NULL: seed 0.0) and
 * below the already-updated plane below (NULL: none).  Jacobi: zb and
 * za are the old planes below and above (NULL: a 0.0 plane). */
static void NAME(plane)(const repro_sweep_params *p, int gs, int64_t z,
                        const T *restrict c, const T *restrict zb,
                        const T *restrict za,
                        const T *restrict below, T *restrict out,
                        T *hi, T *lo, int *nan)
{
    const int64_t n = p->n, nn = n * n;
    const T d = (T)p->d, a = (T)p->a, db = (T)p->db;
    const int has_a = p->has_a != 0, strong = p->strong != 0;
    const int db_kind = (int)p->db_kind;
    const int lower_kind = (int)p->lower_kind, upper_kind = (int)p->upper_kind;
    const T *restrict db_field =
        db_kind == 2 ? (const T *)p->db_field + z * nn : NULL;
    const T *restrict lower = (const T *)p->lower + (lower_kind == 2 ? z * nn : 0);
    const T *restrict upper = (const T *)p->upper + (upper_kind == 2 ? z * nn : 0);
    T h0 = *hi, h1 = h0, h2 = h0, h3 = h0;
    T l0 = *lo, l1 = l0, l2 = l0, l3 = l0;
    int bad = *nan;

    /* Each row is built in place in out by the numpy kernels' passes,
     * in their order; a row stays in L1 across the passes. */
    for (int64_t y = 0; y < n; y++) {
        const int64_t r = y * n;
        T *restrict o = out + r;
        const T *restrict cr = c + r;
        int64_t x;

        if (gs) {
            for (x = 0; x < n; x++)
                o[x] = za ? za[r + x] : (T)0.0;
        } else if (zb && za) {
            for (x = 0; x < n; x++)
                o[x] = zb[r + x] + za[r + x];
        } else if (zb) {
            for (x = 0; x < n; x++)
                o[x] = zb[r + x] + (T)0.0;
        } else if (za) {
            for (x = 0; x < n; x++)
                o[x] = (T)0.0 + za[r + x];
        } else {
            for (x = 0; x < n; x++)
                o[x] = (T)0.0;
        }

        /* _inplane_sum: the rows above and below, the flattened left
         * and right neighbours, then the x-edge contamination back out */
        if (y >= 1 && y <= n - 2) {
            /* interior row: the same five steps, fused per element */
            o[0] = ((((o[0] + cr[-n]) + cr[n]) + cr[-1]) + cr[1]) - cr[-1];
            for (x = 1; x < n - 1; x++)
                o[x] = (((o[x] + cr[x - n]) + cr[x + n]) + cr[x - 1]) + cr[x + 1];
            o[n - 1] = ((((o[n - 1] + cr[-1]) + cr[2 * n - 1]) + cr[n - 2]) + cr[n]) - cr[n];
        } else {
            if (y >= 1)
                for (x = 0; x < n; x++)
                    o[x] += cr[x - n];
            if (y <= n - 2)
                for (x = 0; x < n; x++)
                    o[x] += cr[x + n];
            for (x = y == 0; x < n; x++)
                o[x] += cr[x - 1];
            for (x = 0; x < n - (y == n - 1); x++)
                o[x] += cr[x + 1];
            if (n > 1 && y >= 1)
                o[0] -= cr[-1];
            if (n > 1 && y <= n - 2)
                o[n - 1] -= cr[n];
        }

        for (x = 0; x < n; x++)
            o[x] = NAME(scale)(o[x], d, p->d, strong);
        if (has_a) {
            if (gs)
                for (x = 0; x < n; x++)
                    o[x] = o[x] + NAME(scale)(cr[x], a, p->a, strong);
            else
                for (x = 0; x < n; x++)
                    o[x] = NAME(scale)(cr[x], a, p->a, strong) + o[x];
        }
        if (db_kind == 1)
            for (x = 0; x < n; x++)
                o[x] = o[x] + db;
        else if (db_kind == 2)
            for (x = 0; x < n; x++)
                o[x] = o[x] + db_field[r + x];
        if (below)
            for (x = 0; x < n; x++)
                o[x] = NAME(scale)(below[r + x], d, p->d, strong) + o[x];
        if (lower_kind == 1)
            for (x = 0; x < n; x++)
                o[x] = NAME(maximum)(o[x], lower[0]);
        else if (lower_kind == 2)
            for (x = 0; x < n; x++)
                o[x] = NAME(maximum)(o[x], lower[r + x]);
        if (upper_kind == 1)
            for (x = 0; x < n; x++)
                o[x] = NAME(minimum)(o[x], upper[0]);
        else if (upper_kind == 2)
            for (x = 0; x < n; x++)
                o[x] = NAME(minimum)(o[x], upper[r + x]);

        /* Four independent extrema chains (max and min do not depend
         * on the grouping); NaN compares false, so it never moves them. */
        for (x = 0; x + 4 <= n; x += 4) {
            const T c0 = o[x] - cr[x], c1 = o[x + 1] - cr[x + 1];
            const T c2 = o[x + 2] - cr[x + 2], c3 = o[x + 3] - cr[x + 3];
            bad |= (c0 != c0) | (c1 != c1) | (c2 != c2) | (c3 != c3);
            h0 = c0 > h0 ? c0 : h0;
            h1 = c1 > h1 ? c1 : h1;
            h2 = c2 > h2 ? c2 : h2;
            h3 = c3 > h3 ? c3 : h3;
            l0 = c0 < l0 ? c0 : l0;
            l1 = c1 < l1 ? c1 : l1;
            l2 = c2 < l2 ? c2 : l2;
            l3 = c3 < l3 ? c3 : l3;
        }
        for (; x < n; x++) {
            const T change = o[x] - cr[x];
            bad |= change != change;
            h0 = change > h0 ? change : h0;
            l0 = change < l0 ? change : l0;
        }
    }
    h0 = h1 > h0 ? h1 : h0;
    h2 = h3 > h2 ? h3 : h2;
    l0 = l1 < l0 ? l1 : l0;
    l2 = l3 < l2 ? l3 : l2;
    *hi = h2 > h0 ? h2 : h0;
    *lo = l2 < l0 ? l2 : l0;
    *nan = bad;
}

/* Nonzero when nxt overlaps an input (the caller then takes numpy). */
static int NAME(aliased)(const repro_sweep_params *p, const char *cur,
                         const char *nxt, const char *gb, const char *ga)
{
    const size_t plane = (size_t)(p->n * p->n) * sizeof(T);
    const size_t block = (size_t)p->m * plane;
    const size_t lower = p->lower_kind == 2 ? block : sizeof(T);
    const size_t upper = p->upper_kind == 2 ? block : sizeof(T);
    return overlaps(nxt, block, cur, block) || overlaps(nxt, block, gb, plane)
        || overlaps(nxt, block, ga, plane)
        || (p->db_kind == 2 && overlaps(nxt, block, p->db_field, block))
        || (p->lower_kind && overlaps(nxt, block, p->lower, lower))
        || (p->upper_kind && overlaps(nxt, block, p->upper, upper));
}

int NAME(repro_gauss_seidel)(repro_sweep_params *p, const void *cur_data,
                             void *nxt_data, const void *gb_data,
                             const void *ga_data)
{
    const T *cur = (const T *)cur_data;
    T *nxt = (T *)nxt_data;
    const T *gb = (const T *)gb_data;
    const T *ga = (const T *)ga_data;
    if (NAME(aliased)(p, (const char *)cur, (const char *)nxt,
                      (const char *)gb, (const char *)ga))
        return 1;
    const int64_t m = p->m, nn = p->n * p->n;
    T hi = (T)-INFINITY, lo = (T)INFINITY;
    int nan = 0;
    for (int64_t z = 0; z < m; z++) {
        const T *above = z < m - 1 ? cur + (z + 1) * nn : ga;
        const T *below = z > 0 ? nxt + (z - 1) * nn : gb;
        NAME(plane)(p, 1, z, cur + z * nn, NULL, above, below,
                    nxt + z * nn, &hi, &lo, &nan);
    }
    /* max(float(stage.max()), -float(stage.min())) + 0.0 */
    const double top = hi, bottom = -(double)lo;
    p->diff = nan ? (double)NAN : (bottom > top ? bottom : top) + 0.0;
    return 0;
}

int NAME(repro_jacobi)(repro_sweep_params *p, const void *cur_data,
                       void *nxt_data, const void *gb_data,
                       const void *ga_data)
{
    const T *cur = (const T *)cur_data;
    T *nxt = (T *)nxt_data;
    const T *gb = (const T *)gb_data;
    const T *ga = (const T *)ga_data;
    if (NAME(aliased)(p, (const char *)cur, (const char *)nxt,
                      (const char *)gb, (const char *)ga))
        return 1;
    const int64_t m = p->m, nn = p->n * p->n;
    T hi = (T)-INFINITY, lo = (T)INFINITY;
    int nan = 0;
    for (int64_t z = 0; z < m; z++) {
        const T *below = z > 0 ? cur + (z - 1) * nn : gb;
        const T *above = z < m - 1 ? cur + (z + 1) * nn : ga;
        NAME(plane)(p, 0, z, cur + z * nn, below, above, NULL,
                    nxt + z * nn, &hi, &lo, &nan);
    }
    /* diff = 0.0, raised by a strictly larger maximum or -minimum */
    double diff = 0.0;
    if ((double)hi > diff)
        diff = hi;
    if (-(double)lo > diff)
        diff = -(double)lo;
    p->diff = nan ? (double)NAN : diff;
    return 0;
}

#endif /* REPRO_SWEEP_BODY */
