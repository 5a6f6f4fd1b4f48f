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
 * Arrays arrive as the addresses of their ndarray objects; the data
 * pointer is read at params->data_off (the first field after the
 * object header in numpy's ABI-stable PyArrayObject).  The caller has
 * already checked type, shape, dtype, alignment and contiguity.
 */

#ifndef REPRO_SWEEP_BODY
#define REPRO_SWEEP_BODY

#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>

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

#define REPRO_DATA(obj) \
    ((obj) ? *(char *const *)((const char *)(obj) + p->data_off) : NULL)

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

int NAME(repro_gauss_seidel)(repro_sweep_params *p, const void *cur_obj,
                             const void *nxt_obj, const void *gb_obj,
                             const void *ga_obj)
{
    const T *cur = (const T *)REPRO_DATA(cur_obj);
    T *nxt = (T *)REPRO_DATA(nxt_obj);
    const T *gb = (const T *)REPRO_DATA(gb_obj);
    const T *ga = (const T *)REPRO_DATA(ga_obj);
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

int NAME(repro_jacobi)(repro_sweep_params *p, const void *cur_obj,
                       const void *nxt_obj, const void *gb_obj,
                       const void *ga_obj)
{
    const T *cur = (const T *)REPRO_DATA(cur_obj);
    T *nxt = (T *)REPRO_DATA(nxt_obj);
    const T *gb = (const T *)REPRO_DATA(gb_obj);
    const T *ga = (const T *)REPRO_DATA(ga_obj);
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
