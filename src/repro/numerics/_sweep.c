/* Compiled Gauss-Seidel and Jacobi block sweeps for repro.numerics.kernels.
 *
 * A sweep relaxes a block in row bands (below); a band builds rows
 * [y0, y1) of every plane in turn, and every element gets exactly the
 * IEEE-754 operations the numpy kernels in kernels.py apply to it, in
 * the same order, so the two backends produce the same bits:
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
 * One pass per element: an interior row (0 < y < n-1) is built a
 * vector at a time, each vector's neighbour sums, terms, projection,
 * store and change fold done before the next is loaded; the x = 0 and
 * x = n-1 lanes take their contamination out as the list says.  An
 * edge row builds its neighbour sums with the numpy kernels' passes
 * first, then takes the same one pass for the rest.  Vectors are GCC's
 * vector extensions (GCC or clang): per lane, +, -, * and the
 * comparisons are the scalar IEEE operations, so the lanes are the
 * elements, each with its operations in order.  The last vector of a
 * row whose length the lane count does not divide repeats the row's
 * last element in its extra lanes and stores only the real ones.  The
 * extrema are folded per lane, then across lanes, then across bands:
 * max and min do not depend on the grouping except for which zero a
 * +0.0/-0.0 tie keeps, the diff rule erases that sign (its + 0.0), and
 * NaN is tracked apart from the extrema.  The branches on which terms
 * a plane has are taken once per vector.
 *
 * The body is built twice: for the baseline instruction set of the
 * compile flags, with 16-byte vectors (SSE2 on x86-64), and, on x86-64
 * GCC or clang, once more for AVX2 through a target pragma, with
 * 32-byte vectors (entry points suffixed _avx2); repro_cpu_avx2() tells
 * the loader which one this CPU can run.  AVX2 only widens the
 * vectors: FMA stays off (an #error guards it) and no AVX-512 body
 * exists (it measured slower).
 *
 * A sweep runs as a job (repro_sweep_start, then repro_sweep_join) on
 * a small pool of worker threads and the joining thread; see "Worker
 * pool" below.  Whichever thread runs a band, it is the same call of
 * the same body on the same arrays, so the bits do not depend on it.
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
#include <string.h>
#include <time.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "FLT_EVAL_METHOD != 0: arithmetic would not round like numpy's"
#endif
#ifdef __FAST_MATH__
#error "-ffast-math reorders floating-point operations"
#endif
#ifndef __GNUC__
#error "the sweeps are written with GCC's vector extensions (GCC 9+ or clang)"
#endif
#if !defined(__clang__)
/* Vectors pass between inlined helpers only, never across the ABI. */
#pragma GCC diagnostic ignored "-Wpsabi"
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

/* The folded changes of a band, or of the bands of a job so far. */
typedef struct {
    double hi, lo;                           /* extrema, NaN never */
    int64_t nan;                             /* any change NaN */
} repro_fold;

/* Mirrors _ckernels.Stats: what the joins of one telemetry registry's
 * compiled sweeps of one order counted since it was last drained; the
 * Python side merges it into the registry before each snapshot, so a
 * sweep costs the interpreter nothing to count. */
#define REPRO_BOUNDS 16
typedef struct {
    double bounds[REPRO_BOUNDS];             /* histogram bucket bounds */
    int64_t nbounds;
    int64_t sweeps, bands, joins;            /* joins: of any outcome */
    double seconds, wait;                    /* band run times, join times */
    int64_t seconds_counts[REPRO_BOUNDS + 1], wait_counts[REPRO_BOUNDS + 1];
} repro_stats;

/* The data pointer of the ndarray object at obj (load-time self-test). */
const void *repro_array_data(const void *obj, int64_t data_off)
{
    return *(const void *const *)((const char *)obj + data_off);
}


static int overlaps(const char *a, size_t a_len, const char *b, size_t b_len)
{
    return b != NULL && a < b + b_len && b < a + a_len;
}

#define VBYTES 16 /* SSE2's vectors, or two halves of one elsewhere */

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

#undef VBYTES

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

#define VBYTES 32

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

#undef VBYTES

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
 * A sweep of at least two minimum bands' worth of points (BAND_POINTS)
 * is split into row bands, y in [y0, y1) across all of its planes; a
 * smaller one, or any sweep when the pool has no worker, is one band.
 * repro_sweep_start queues the job and wakes workers, which each claim
 * the next unclaimed band of the job at the head of the queue; a job
 * leaves the queue with its last band.  repro_sweep_join runs its own
 * job's unclaimed bands, then other queued bands while the rest of its
 * own runs elsewhere, so with no workers at all (one usable CPU) every
 * sweep simply runs at join.  Workers start on the first job and block
 * every signal, which the interpreter's thread keeps handling.  None of
 * this touches the interpreter: the caller holds a reference to every
 * array of a job until it has joined it.
 *
 * Each band folds its own extrema and NaN flag; the job merges them
 * under the pool lock and the last band to finish turns them into the
 * diff.  The bits do not depend on the split: max and min do not depend
 * on the grouping except for which zero a +0.0/-0.0 tie keeps, the diff
 * rule erases that sign, and NaN is OR'd.
 *
 * Wakes are signalled after the lock is released wherever the waker no
 * longer needs it (a start's pool_work, a finished job's pool_done): a
 * thread woken under the lock often lands on the waker's CPU and blocks
 * on it at once.  Every predicate a waiter tests (queue, job state,
 * pool_busy, pool_forking) is changed under the lock, so a waiter that
 * tested it before the change is already waiting when the lock is
 * released, and the later wake reaches it.
 *
 * fork: the prepare handler stops workers and joiners from claiming
 * bands and waits until no band is running, so the child inherits every
 * band either done or unclaimed, with all of its rows written or none:
 * a job may arrive half done.  The child has no workers (threads do not
 * survive fork); the next start spawns them again, and a join there
 * runs whatever bands of its job are left.  A wake under way in another
 * thread at the fork leaves nothing behind in the child, which re-makes
 * the lock and both conditions. */

/* Mirrors _ckernels.Job field for field. */
typedef struct repro_job {
    int (*kernel)(const repro_sweep_params *, const void *, void *,
                  const void *, const void *, int64_t, int64_t,
                  repro_fold *);
    repro_sweep_params *p;
    const void *cur;                         /* ndarray objects, then */
    void *nxt;                               /* their data pointers */
    const void *gb, *ga;
    repro_stats *stats;                      /* counted there, or NULL */
    double seconds;                          /* out: band run times, summed */
    int64_t status;                          /* out: the kernel's result */
    int64_t bands;                           /* out: bands it was split into */
    int64_t state;                           /* pool-owned from here on */
    int64_t claimed, finished;               /* bands handed out, bands done */
    repro_fold fold;                         /* the finished bands' changes */
    struct repro_job *next;                  /* queue link */
} repro_job;

enum { JOB_IDLE, JOB_QUEUED, JOB_RUNNING, JOB_DONE };

/* Fewest points a band may have: below it, handing rows to another
 * thread costs more than it saves. */
#define BAND_POINTS 32768

static pthread_mutex_t pool_lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t pool_work = PTHREAD_COND_INITIALIZER; /* queued, or fork over */
static pthread_cond_t pool_done = PTHREAD_COND_INITIALIZER; /* a job, or all bands, done */
static repro_job *queue_head, *queue_tail;
static int64_t pool_workers;  /* threads wanted */
static int64_t pool_started;  /* threads running in this process */
static int64_t pool_busy;     /* bands being run, by workers or joiners */
static int pool_forking;
static int pool_atfork;

/* How many bands a sweep of p is split into (lock held): two per
 * thread that may run one, at most one per row, none smaller than
 * BAND_POINTS, and one when no worker runs. */
static int64_t band_count(const repro_sweep_params *p)
{
    int64_t bands = pool_workers > 0 ? 2 * (pool_workers + 1) : 1;
    const int64_t fit = p->m * p->n * p->n / BAND_POINTS;
    if (bands > p->n)
        bands = p->n;
    if (bands > fit)
        bands = fit;
    return bands > 1 ? bands : 1;
}

/* Hand out the next band of a queued job (lock held); the job leaves
 * the queue with its last one. */
static int64_t claim(repro_job *job)
{
    const int64_t band = job->claimed++;
    if (job->claimed == job->bands) {
        repro_job **link = &queue_head, *prev = NULL;
        while (*link != job) {
            prev = *link;
            link = &prev->next;
        }
        *link = job->next;
        if (queue_tail == job)
            queue_tail = prev;
        job->state = JOB_RUNNING;
    }
    pool_busy++;
    return band;
}

static double now(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

/* Run a claimed band, timing the kernel, and fold it into its job; the
 * last band sets the diff and marks the job done (lock held on entry
 * and exit).  Returns 1 when pool_done must be broadcast (a job is
 * done, or no band is running): the caller does so once it no longer
 * needs the lock, so a woken joiner does not block on it. */
static int run_band(repro_job *job, int64_t band)
{
    const repro_sweep_params *p = job->p;
    repro_fold fold;
    pthread_mutex_unlock(&pool_lock);
    const double t0 = now();
    const int status = job->kernel(p, job->cur, job->nxt, job->gb, job->ga,
                                   band * p->n / job->bands,
                                   (band + 1) * p->n / job->bands, &fold);
    const double t1 = now();
    pthread_mutex_lock(&pool_lock);
    job->seconds += t1 - t0;
    job->status |= status;
    if (fold.hi > job->fold.hi)
        job->fold.hi = fold.hi;
    if (fold.lo < job->fold.lo)
        job->fold.lo = fold.lo;
    job->fold.nan |= fold.nan;
    pool_busy--;
    if (++job->finished == job->bands) {
        /* The numpy kernels' two rules in one: Gauss-Seidel's
         * max(max, -min) + 0.0 and Jacobi's 0.0 raised by a strictly
         * larger max or -min agree, since max >= min makes one of
         * max and -min >= 0. */
        const double top = job->fold.hi, bottom = -job->fold.lo;
        job->p->diff = job->fold.nan ? (double)NAN
                       : (bottom > top ? bottom : top) + 0.0;
        job->state = JOB_DONE;
        return 1;
    }
    return pool_busy == 0;
}

/* A worker wakes the joiners of the job it finished outside the lock
 * (a joiner woken under it would block on it at once), then takes the
 * lock back for its next band or its wait. */
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
        if (run_band(job, claim(job))) {
            pthread_mutex_unlock(&pool_lock);
            pthread_cond_broadcast(&pool_done);
            pthread_mutex_lock(&pool_lock);
        }
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

/* Queue job, split into bands; they may start running at once on
 * workers.  Called under the interpreter lock, with job's arrays as
 * ndarray objects. */
void repro_sweep_start(repro_job *job)
{
    job->cur = REPRO_DATA(job->cur);
    job->nxt = REPRO_DATA(job->nxt);
    job->gb = REPRO_DATA(job->gb);
    job->ga = REPRO_DATA(job->ga);
    job->seconds = 0.0;
    job->status = 0;
    job->claimed = job->finished = 0;
    job->fold.hi = -INFINITY;
    job->fold.lo = INFINITY;
    job->fold.nan = 0;
    pthread_mutex_lock(&pool_lock);
    spawn_workers();
    const int64_t bands = job->bands = band_count(job->p);
    job->state = JOB_QUEUED;
    job->next = NULL;
    if (queue_tail)
        queue_tail->next = job;
    else
        queue_head = job;
    queue_tail = job;
    pthread_mutex_unlock(&pool_lock);
    /* Woken after the unlock: a worker woken under the lock lands on
     * this CPU as often as not and blocks on the lock held here. */
    if (bands > 1)
        pthread_cond_broadcast(&pool_work);
    else
        pthread_cond_signal(&pool_work);
}

/* The histogram cell of value: bisect_left over the bounds. */
static int64_t cell(const repro_stats *s, double value)
{
    int64_t i = 0;
    while (i < s->nbounds && s->bounds[i] < value)
        i++;
    return i;
}

/* Wait for a started job, running what is left of it, and count it in
 * job->stats; returns its kernel's result (0: done, 1: nxt overlaps an
 * input and nothing was written, so no sweep is counted, only the
 * join). */
int repro_sweep_join(repro_job *job)
{
    const double t0 = now();
    int wake = 0;
    pthread_mutex_lock(&pool_lock);
    while (job->state != JOB_DONE) {
        /* Another job done, or no band running: wake its waiters before
         * the next band or wait.  Only the wake of the last band, which
         * ends this loop, waits for the unlock below. */
        if (wake) {
            pthread_cond_broadcast(&pool_done);
            wake = 0;
        }
        if (pool_forking) {
            pthread_cond_wait(&pool_done, &pool_lock);
        } else if (job->state == JOB_QUEUED) {
            wake = run_band(job, claim(job));
        } else if (queue_head != NULL) {
            repro_job *other = queue_head;
            wake = run_band(other, claim(other));
        } else {
            pthread_cond_wait(&pool_done, &pool_lock);
        }
    }
    repro_stats *stats = job->stats;
    if (stats) {
        const double wait = now() - t0;
        stats->joins++;
        stats->wait += wait;
        stats->wait_counts[cell(stats, wait)]++;
        if (job->status == 0) {
            stats->sweeps++;
            stats->bands += job->bands;
            stats->seconds += job->seconds;
            stats->seconds_counts[cell(stats, job->seconds)]++;
        }
    }
    job->state = JOB_IDLE;
    pthread_mutex_unlock(&pool_lock);
    if (wake)
        pthread_cond_broadcast(&pool_done);
    return (int)job->status;
}

/* Copy what stats counted into out and zero its counts. */
void repro_stats_drain(repro_stats *stats, repro_stats *out)
{
    pthread_mutex_lock(&pool_lock);
    *out = *stats;
    stats->sweeps = stats->bands = stats->joins = 0;
    stats->seconds = stats->wait = 0.0;
    memset(stats->seconds_counts, 0, sizeof stats->seconds_counts);
    memset(stats->wait_counts, 0, sizeof stats->wait_counts);
    pthread_mutex_unlock(&pool_lock);
}

#else /* REPRO_SWEEP_BODY: everything below is instantiated per dtype */

/* A vector of T (VBYTES of it: LANES elements), its comparison masks,
 * and, for float, the same lanes widened to double. */
#define LANES (VBYTES / (int)sizeof(T))
typedef T NAME(vec) __attribute__((vector_size(VBYTES)));
typedef __typeof__((NAME(vec)){0} < (NAME(vec)){0}) NAME(mask);
#if NARROW
typedef double NAME(wide) __attribute__((vector_size(2 * VBYTES)));
#endif

static inline NAME(vec) NAME(splat)(T s)
{
    NAME(vec) v;
    for (int j = 0; j < LANES; j++)
        v[j] = s;
    return v;
}

/* p[i .. i + count), the last of them repeated into the lanes past
 * count: a short vector's extra lanes compute that element again. */
static inline NAME(vec) NAME(load)(const T *p, int64_t i, int count)
{
    NAME(vec) v;
    if (count == LANES) {
        memcpy(&v, p + i, sizeof v);
    } else {
        for (int j = 0; j < LANES; j++)
            v[j] = p[i + (j < count ? j : count - 1)];
    }
    return v;
}

static inline void NAME(store)(T *p, int64_t i, NAME(vec) v, int count)
{
    if (count == LANES) {
        memcpy(p + i, &v, sizeof v);
    } else {
        for (int j = 0; j < count; j++)
            p[i + j] = v[j];
    }
}

static inline NAME(vec) NAME(select)(NAME(mask) m, NAME(vec) a, NAME(vec) b)
{
    return (NAME(vec))(((NAME(mask))a & m) | ((NAME(mask))b & ~m));
}

/* x * coefficient, in the precision numpy picks for it (a strong
 * coefficient only differs from a weak one when T is narrower). */
static inline NAME(vec) NAME(scale)(NAME(vec) x, NAME(vec) c, double c_strong,
                                    int strong)
{
#if NARROW
    if (strong)
        return __builtin_convertvector(
            __builtin_convertvector(x, NAME(wide)) * c_strong, NAME(vec));
#else
    (void)c_strong;
    (void)strong;
#endif
    return x * c;
}

/* Lanes set in a or in b.  ORed as 32-bit words: GCC lowers a select
 * on two ORed 64-bit comparisons lane by lane for SSE2. */
static inline NAME(mask) NAME(either)(NAME(mask) a, NAME(mask) b)
{
    typedef int32_t words __attribute__((vector_size(VBYTES)));
    return (NAME(mask))((words)a | (words)b);
}

/* np.maximum / np.minimum: a NaN operand wins, a tie keeps the bound. */
static inline NAME(vec) NAME(maximum)(NAME(vec) v, NAME(vec) bound)
{
    return NAME(select)(NAME(either)(v != v, v > bound), v, bound);
}

static inline NAME(vec) NAME(minimum)(NAME(vec) v, NAME(vec) bound)
{
    return NAME(select)(NAME(either)(v != v, v < bound), v, bound);
}

/* Which terms a plane's update has; each branch on it is taken once
 * per vector. */
typedef struct {
    int gs, has_a, strong, db_kind, lower_kind, upper_kind, below;
} NAME(shape);

/* What the update of plane z needs besides its shape and neighbour
 * sums: coefficients and scalar terms broadcast, and plane z's rows. */
typedef struct {
    NAME(vec) d, a, db, lower, upper;
    double d_strong, a_strong;
    int64_t n;
    const T *cur, *below, *db_field, *lower_field, *upper_field;
} NAME(terms);

/* Elements [i, i + count) of plane z from their neighbour sums t: the
 * coefficients, δb, the plane below and the projection, in the numpy
 * kernels' order. */
static inline __attribute__((always_inline)) NAME(vec) NAME(update)(
    const NAME(terms) *k, NAME(shape) s, NAME(vec) t, int64_t i, int count)
{
    t = NAME(scale)(t, k->d, k->d_strong, s.strong);
    if (s.has_a) {
        const NAME(vec) ca = NAME(scale)(NAME(load)(k->cur, i, count), k->a,
                                         k->a_strong, s.strong);
        t = s.gs ? t + ca : ca + t;
    }
    if (s.db_kind == 1)
        t = t + k->db;
    else if (s.db_kind == 2)
        t = t + NAME(load)(k->db_field, i, count);
    if (s.below)
        t = NAME(scale)(NAME(load)(k->below, i, count), k->d, k->d_strong,
                        s.strong) + t;
    if (s.lower_kind == 1)
        t = NAME(maximum)(t, k->lower);
    else if (s.lower_kind == 2)
        t = NAME(maximum)(t, NAME(load)(k->lower_field, i, count));
    if (s.upper_kind == 1)
        t = NAME(minimum)(t, k->upper);
    else if (s.upper_kind == 2)
        t = NAME(minimum)(t, NAME(load)(k->upper_field, i, count));
    return t;
}

/* Elements [x, x + count) of row r / n: their update written to o and
 * their changes folded into *h, *l and *bad.  An interior row's
 * neighbour sums are built here, _inplane_sum's steps per element, the
 * flattened-row contamination at x = 0 and x = n-1 taken out again in
 * those lanes only; an edge row's are already in o. */
static inline __attribute__((always_inline)) void NAME(chunk)(
    const NAME(terms) *k, NAME(shape) s, int interior, const T *restrict zb,
    const T *restrict za, const T *restrict cr, T *restrict o, int64_t r,
    int64_t x, int count, NAME(vec) *h, NAME(vec) *l, NAME(mask) *bad)
{
    const NAME(vec) zero = NAME(splat)((T)0.0);
    const int64_t n = k->n;
    NAME(vec) t;
    if (interior) {
        t = s.gs ? (za ? NAME(load)(za, r + x, count) : zero)
                 : (zb ? NAME(load)(zb, r + x, count) : zero)
                   + (za ? NAME(load)(za, r + x, count) : zero);
        t = (((t + NAME(load)(cr, x - n, count))
              + NAME(load)(cr, x + n, count))
             + NAME(load)(cr, x - 1, count))
            + NAME(load)(cr, x + 1, count);
        if (x == 0)
            t[0] -= cr[-1];
        if (x + count == n)
            for (int j = count - 1; j < LANES; j++)
                t[j] -= cr[n];
    } else {
        t = NAME(load)(o, x, count);
    }
    t = NAME(update)(k, s, t, r + x, count);
    NAME(store)(o, x, t, count);
    /* max and min do not depend on the grouping, and NaN compares
     * false, so it never moves them */
    const NAME(vec) change = t - NAME(load)(cr, x, count);
    *bad |= change != change;
    *h = NAME(select)(change > *h, change, *h);
    *l = NAME(select)(change < *l, change, *l);
}

/* Rows [y0, y1) of plane z (c, out: its rows; zb, za: the seed planes)
 * into out, their changes folded into *h, *l and *bad. */
static inline __attribute__((always_inline)) void NAME(rows)(
    const NAME(terms) *k, NAME(shape) s, int64_t y0, int64_t y1,
    const T *restrict c, const T *restrict zb, const T *restrict za,
    T *restrict out, NAME(vec) *h, NAME(vec) *l, NAME(mask) *bad)
{
    const int64_t n = k->n;
    for (int64_t y = y0; y < y1; y++) {
        const int64_t r = y * n;
        T *restrict o = out + r;
        const T *restrict cr = c + r;
        int64_t x;

        if (y >= 1 && y <= n - 2) {
            /* an interior row: one pass, a vector at a time, the last
             * one short when LANES does not divide n */
            for (x = 0; x + LANES <= n; x += LANES)
                NAME(chunk)(k, s, 1, zb, za, cr, o, r, x, LANES, h, l, bad);
            if (x < n)
                NAME(chunk)(k, s, 1, zb, za, cr, o, r, x, (int)(n - x), h, l,
                            bad);
            continue;
        }

        /* an edge row: the numpy kernels' seed and _inplane_sum passes
         * build its neighbour sums in o, then one pass updates them */
        if (s.gs) {
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
        for (x = 0; x < n; x += LANES)
            NAME(chunk)(k, s, 0, zb, za, cr, o, r, x,
                        n - x < LANES ? (int)(n - x) : LANES, h, l, bad);
    }
}

/* Relax rows [y0, y1) of plane z into out and fold their changes into
 * *hi, *lo, *nan.
 *
 * Gauss-Seidel (gs): za is the old plane above (NULL: seed 0.0) and
 * below the already-updated plane below (NULL: none).  Jacobi: zb and
 * za are the old planes below and above (NULL: a 0.0 plane). */
static inline __attribute__((always_inline)) void NAME(plane)(
    const repro_sweep_params *p, int gs, int64_t z, int64_t y0, int64_t y1,
    const T *restrict c, const T *restrict zb, const T *restrict za,
    const T *restrict below, T *restrict out, T *hi, T *lo, int *nan)
{
    const int64_t n = p->n, nn = n * n;
    const NAME(shape) s = {
        .gs = gs, .has_a = p->has_a != 0, .strong = p->strong != 0,
        .db_kind = (int)p->db_kind, .lower_kind = (int)p->lower_kind,
        .upper_kind = (int)p->upper_kind, .below = below != NULL,
    };
    const NAME(terms) k = {
        .d = NAME(splat)((T)p->d), .a = NAME(splat)((T)p->a),
        .db = NAME(splat)((T)p->db),
        .lower = NAME(splat)(s.lower_kind == 1 ? *(const T *)p->lower : 0),
        .upper = NAME(splat)(s.upper_kind == 1 ? *(const T *)p->upper : 0),
        .d_strong = p->d, .a_strong = p->a, .n = n, .cur = c, .below = below,
        .db_field = s.db_kind == 2 ? (const T *)p->db_field + z * nn : NULL,
        .lower_field = s.lower_kind == 2 ? (const T *)p->lower + z * nn : NULL,
        .upper_field = s.upper_kind == 2 ? (const T *)p->upper + z * nn : NULL,
    };
    NAME(vec) h = NAME(splat)(*hi), l = NAME(splat)(*lo);
    NAME(mask) bad = (NAME(mask))NAME(splat)((T)0.0);

    NAME(rows)(&k, s, y0, y1, c, zb, za, out, &h, &l, &bad);

    T hs = h[0], ls = l[0];
    int any = 0;
    for (int j = 0; j < LANES; j++) {
        hs = h[j] > hs ? h[j] : hs;
        ls = l[j] < ls ? l[j] : ls;
        any |= bad[j] != 0;
    }
    *hi = hs;
    *lo = ls;
    *nan |= any;
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

/* Band kernels: rows [y0, y1) of every plane of the block, their
 * changes folded into *fold; 1 (nothing written) when nxt overlaps an
 * input.  A Gauss-Seidel row reads only the same row of the plane
 * below, so bands are independent in either order. */
int NAME(repro_gauss_seidel)(const repro_sweep_params *p, const void *cur_data,
                             void *nxt_data, const void *gb_data,
                             const void *ga_data, int64_t y0, int64_t y1,
                             repro_fold *fold)
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
        NAME(plane)(p, 1, z, y0, y1, cur + z * nn, NULL, above, below,
                    nxt + z * nn, &hi, &lo, &nan);
    }
    fold->hi = hi;
    fold->lo = lo;
    fold->nan = nan;
    return 0;
}

int NAME(repro_jacobi)(const repro_sweep_params *p, const void *cur_data,
                       void *nxt_data, const void *gb_data,
                       const void *ga_data, int64_t y0, int64_t y1,
                       repro_fold *fold)
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
        NAME(plane)(p, 0, z, y0, y1, cur + z * nn, below, above, NULL,
                    nxt + z * nn, &hi, &lo, &nan);
    }
    fold->hi = hi;
    fold->lo = lo;
    fold->nan = nan;
    return 0;
}

#undef LANES

#endif /* REPRO_SWEEP_BODY */
