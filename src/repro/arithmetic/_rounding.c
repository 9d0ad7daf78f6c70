/*
 * Compiled round-to-nearest-even kernels of the emulated number formats.
 *
 * One `Kernel` object serves one format and rounds every value itself.  It
 * is built with the format's *rule* (see `Rule`), and, with the integer
 * transform on, with three lookup tables (LUTs) that
 * `repro.arithmetic.bitkernels.BitKernel` derives from the format's binade
 * rule, indexed by the sign + exponent field of the work word: the
 * truncation shift `s`, the rounding bias `2^(s-1) - 1` and a special code
 * (0: served, 1: round by the rule, 2: copy through unchanged).  A served
 * value rounds with the integer transform
 *
 *     ((u + bias + ((u >> s) & 1)) >> s) << s
 *
 * which breaks ties towards the even retained word.  Two word layouts have
 * LUTs:
 *
 *   - the float64 word, transformed whole (a round-up may carry into the
 *     exponent field, which is how a binade boundary rounds up);
 *   - the x87 80-bit extended value in a 16-byte slot (posit64, takum64):
 *     a 64-bit significand word with an explicit integer bit, then a word
 *     whose low 16 bits hold the sign and the 15-bit exponent.  The
 *     transform runs on the significand word; a carry out of it is the
 *     round-up into the next binade (significand 2^63, exponent + 1).  The
 *     six padding bytes are ignored on input and written as zeros.
 *
 * Each kernel has one step that loads one value, rounds it, stores it (into
 * the slot it came from, or into another) and returns SERVED, ZERO or RULE:
 * `step_f64` and `step_x87` with the LUTs, `step_rule_f64` and
 * `step_rule_ld` without them (the integer transform switched off, or a
 * `long double` layout other than the x87 slot); the native dtypes have
 * `step_none`, which leaves the value as it is.  Every entry below rounds
 * through these steps.  A step without LUTs, and a LUT step in a special
 * binade, rounds by the rule: an exact zero stays zero (`-0.0` becomes
 * `+0.0` for formats with one unsigned zero), an infinity or NaN follows
 * the rule's non-finite policy, and every other value rounds by the rule's
 * finite part.  The values the rule rounds are counted as handed back (the
 * `bitkernel.lut_fallback` counter).
 *
 * The rules follow the format definitions (posit-2022, takum, OFP8, IEEE
 * 754) comparison for comparison, in the work type (`double`, or `long
 * double` with `frexpl`, `ldexpl` and `rintl`):
 *
 *   RULE_TABLE    the nearest entry of a sorted magnitude table
 *                 (`bisect_left`, then the nearer neighbour, ties to the
 *                 even code); magnitudes above `hi` round to `maxpos`, a
 *                 zero result becomes `minpos`, and the sign is copied
 *                 back (the tapered formats of at most 16 bits, E4M3,
 *                 and float16, bfloat16 and E5M2, whose uniform binades
 *                 make the even code the quantum's round-to-even);
 *   RULE_QUANTUM  the magnitude, clamped to `maxpos`, rounded to the
 *                 quantum of its binade (`qexps`, indexed by its `frexp`
 *                 exponent), or to the nearest entry of the `lo`/`hi`
 *                 extreme tables beyond the bounds, then clamped to
 *                 `[minpos, maxpos]` (the wider tapered formats).
 *
 * The non-finite policies:
 *
 *   NONFINITE_KEEP  a NaN keeps its bits and an infinity stays (IEEE);
 *   NONFINITE_NAR   NaN and both infinities become +NaN (posit, takum);
 *   NONFINITE_RULE  NaN becomes +NaN and an infinity rounds by the finite
 *                   rule, as a magnitude above every bound (E4M3: the sign
 *                   of the NaN above 464, or +-448 when saturating).
 *
 * Entries:
 *   Kernel.round_one(value)      one float64 / longdouble scalar (or 0-d
 *                                array of the work type) -> the rounded
 *                                NumPy scalar, or None when the value is not
 *                                a float of the work layout;
 *   Kernel.round_into(src, dst)  rounds the C-contiguous buffer `src` into
 *                                `dst` (same length; may be `src` itself)
 *                                in one pass and returns None.
 *                                Non-contiguous, foreign-format or
 *                                partially overlapping buffers raise
 *                                OperandError (a BufferError) before
 *                                anything is written;
 *   Kernel.take_counts()         (calls, elements, handed_back, zeros) of
 *                                the passes since the last call, counted
 *                                while the telemetry flag byte is set;
 *   reduce(values, indptr, sequential, kernel)
 *                                the rounded sum of each segment of
 *                                `values` (see below) as a fresh 1-D
 *                                array: pairwise, or with `sequential`
 *                                true left to right;
 *   ql(d, e, ZT, max_sweeps, eps, kernel)
 *                                the implicit-shift QL iteration of the
 *                                projected eigensolver on the diagonal `d`
 *                                and the subdiagonal `e` (as long as `d`)
 *                                in place, each Givens step applied to
 *                                rows i and i + 1 of the (n, nrows)
 *                                eigenvector matrix `ZT` as it is formed
 *                                -> (ops, status, low, restarts,
 *                                rotations): the rounded-op tally, 0 or
 *                                the failure (1: a non-finite value, 2: no
 *                                deflation of eigenvalue `low` within
 *                                `max_sweeps` sweeps), the steps that met a
 *                                zero rotation radius, and the Givens steps
 *                                applied;
 *   tridiagonalize(AQ, sequential, kernel)
 *                                the Householder reduction of the stacked
 *                                `(2, n, n)` buffer `[A; Q]` in place (A
 *                                symmetric, Q the identity on entry) ->
 *                                (ops, skipped, first_nonfinite): the
 *                                rounded-op tally, the reflectors skipped
 *                                (beta 0) and the first step after which
 *                                the stack held a non-finite value (None:
 *                                no step);
 *   arnoldi(V, S, b, v, start, csr, sequential, eta, kernel)
 *                                the Arnoldi expansion of the (n, m) basis
 *                                `V` in place: columns `start` to m - 1,
 *                                each from the next vector `v` through the
 *                                CSR matrix `csr` = (indptr, indices, data)
 *                                of order n, classical Gram-Schmidt with
 *                                the DGKS second pass (factor `eta`) and
 *                                the normalisation, written into `V`, the
 *                                (m, m) `S` and the (m,) `b`; `v` ends as
 *                                the next vector.  With `csr` None, `v` is
 *                                orthonormalised against the first `start`
 *                                columns of `V` instead (S and b unused)
 *                                -> (ops, status, stop, dgks): the
 *                                rounded-op tally, the status (0: done, 1:
 *                                column `stop` broke down, or with `csr`
 *                                None `v` did; 2-5: a non-finite Krylov
 *                                vector, matrix-vector product,
 *                                coefficient or residual norm at column
 *                                `stop`), and the Gram-Schmidt calls that
 *                                took the second pass.
 *
 * The module entries round through `kernel` (a Kernel of the work type of
 * the arrays), or, with `kernel` None, not at all (float32, float64 and
 * longdouble arrays of the native contexts).  A scalar op rounds its value
 * at once, since the next op reads it, and is not counted.  An array op
 * rounds in one pass, as `round_into` would round it, counted as one call
 * of the kernel; `ql` rounds the six ops of each Givens step on `ZT` in one
 * pass.  `tridiagonalize` and `arnoldi` round each elementwise op in one
 * pass; a dot product or matrix-vector product rounds its products in one
 * pass and sums them as `reduce` does (so the sequential order sums a dot
 * product with one scalar op per addition), and a norm is scaled by the
 * largest magnitude.
 * `ql`, `tridiagonalize` and `arnoldi` take well-behaved C-contiguous
 * arrays only, and write in place; `reduce` only reads `values`.
 *
 * A reduction sums each segment of `values`: the segments are the rows
 * along the last axis of `values` (`indptr` None), or the CSR segments
 * `values[indptr[r]:indptr[r + 1]]` of a 1-D `values`; empty segments sum
 * to zero.  The pairwise order sums each segment as a balanced tree: each
 * tree level adds partial `2i` to partial `2i + 1`, rounds every sum, and
 * carries an odd leftover unrounded into the next level.  One level is
 * computed for every segment before the next level starts.  The first
 * level writes its sums into a work buffer of half the size, where the
 * later levels reduce in place.  The sequential order adds column `j` of
 * every segment longer than `j` in one pass, left to right; the segment of
 * a 1-D `values` (`indptr` None) instead takes one scalar op per addition.
 * Every pass (a tree level or a column) is counted as one call of the
 * kernel, with its sums, the values its rule rounded and its zeros, as
 * `round_into` would count rounding them in one call.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <numpy/arrayscalars.h>

#define SPECIAL_RULE 1
#define SPECIAL_IDENTITY 2

/* outcome of rounding one value: the integer transform (or a copy), an
 * exact zero, or the rule */
#define SERVED 0
#define ZERO 1
#define RULE 2

/* bytes of one x87 extended value in memory, and of its value */
#define X87_SLOT 16
#define X87_VALUE 10
/* whether npy_longdouble is the x87 extended value in a 16-byte slot */
#define X87_LONGDOUBLE (LDBL_MANT_DIG == 64 && NPY_SIZEOF_LONGDOUBLE == X87_SLOT)

/* a function off the hot path, kept out of line so that the LUT steps it
 * falls back from stay small enough to inline into every loop */
#if defined(__GNUC__)
#define OUT_OF_LINE __attribute__((noinline))
#else
#define OUT_OF_LINE
#endif

/* OperandError: the operands `round_into` refuses, before it writes */
static PyObject *OperandError;

static PyTypeObject KernelType;

enum { SHIFT, BIAS, SPECIAL, N_LUTS };
enum { CALLS, ELEMENTS, HANDED_BACK, ZEROS, N_COUNTS };
enum { RULE_TABLE, RULE_QUANTUM };
enum { NONFINITE_KEEP, NONFINITE_NAR, NONFINITE_RULE };
/* the buffers of a rule: the magnitudes and codes of the table (RULE_TABLE)
 * or of the `lo` and `hi` extreme tables (RULE_QUANTUM), and the quantum
 * exponents */
enum { LO_MAGS, LO_CODES, HI_MAGS, HI_CODES, QEXPS, N_RULE_BUFS };

/* How a kernel rounds the values its LUTs do not serve (see the header);
 * the bounds are work values, exact in `long double`. */
typedef struct {
    int kind;
    int nonfinite;                /* the non-finite policy */
    Py_buffer bufs[N_RULE_BUFS]; /* read in place; QEXPS: RULE_QUANTUM only */
    npy_intp n_lo, n_hi;          /* entries of the two tables */
    long qbase;                   /* the `frexp` exponent of qexps[0] */
    /* RULE_TABLE: `hi` the overflow bound, `maxpos` its result, `minpos`
     * the floor; RULE_QUANTUM: the bounds */
    npy_longdouble minpos, maxpos, lo, hi;
} Rule;

typedef struct {
    PyObject_HEAD
    Py_buffer luts[N_LUTS];
    Py_buffer counting; /* one byte: count while non-zero */
    int extended;
    int lut; /* whether the kernel has its LUTs */
    int unsigned_zero;
    Rule rule;
    unsigned long long counts[N_COUNTS];
} Kernel;

/* the lookup tables and the rule of one kernel, read in place */
typedef struct {
    const uint64_t *shift;
    const uint64_t *bias;
    const uint8_t *special;
    int unsigned_zero;
    const Rule *rule;
} Tables;

/* the NumPy type of the kernel's work values */
static inline int
work_type(const Kernel *k)
{
    return k->extended ? NPY_LONGDOUBLE : NPY_DOUBLE;
}

static inline Tables
tables_of(const Kernel *k)
{
    Tables t = {k->luts[SHIFT].buf, k->luts[BIAS].buf, k->luts[SPECIAL].buf, k->unsigned_zero,
                &k->rule};
    return t;
}

/* The index of the entry of the `n` ascending values `m` nearest to `a`:
 * `bisect_left`, capped at the last entry, then the lower neighbour when it
 * is nearer or, at a tie, has an even code. */
#define NEAREST(NAME, T, FABS)                                                  \
    static npy_intp NAME(const T *m, const int64_t *codes, npy_intp n, T a)     \
    {                                                                           \
        npy_intp lo = 0, hi = n;                                                \
        while (lo < hi) {                                                       \
            const npy_intp mid = (lo + hi) / 2;                                 \
            if (m[mid] < a) {                                                   \
                lo = mid + 1;                                                   \
            }                                                                   \
            else {                                                              \
                hi = mid;                                                       \
            }                                                                   \
        }                                                                       \
        const npy_intp up = lo < n - 1 ? lo : n - 1, down = up > 0 ? up - 1 : 0; \
        const T d_up = FABS(m[up] - a), d_down = FABS(a - m[down]);             \
        if (d_down < d_up || (d_down == d_up && codes[down] % 2 == 0)) {        \
            return down;                                                        \
        }                                                                       \
        return up;                                                              \
    }

NEAREST(nearest_f64, double, fabs)
NEAREST(nearest_ld, npy_longdouble, fabsl)

/* The non-zero value `v` of type `T`, finite or infinite, rounded by the
 * RULE_QUANTUM rule `r`. */
#define QUANTUM(NAME, T, NEAREST_FN, FABS, FREXP, LDEXP, RINT)                  \
    static T NAME(const Rule *r, T v)                                           \
    {                                                                           \
        const T minpos = (T)r->minpos, maxpos = (T)r->maxpos;                   \
        const T a = FABS(v), safe = a < maxpos ? a : maxpos;                    \
        T mag;                                                                  \
        if (safe < (T)r->lo) {                                                  \
            const T *m = r->bufs[LO_MAGS].buf;                                  \
            mag = m[NEAREST_FN(m, r->bufs[LO_CODES].buf, r->n_lo, safe)];       \
        }                                                                       \
        else if (safe >= (T)r->hi) {                                            \
            const T *m = r->bufs[HI_MAGS].buf;                                  \
            mag = m[NEAREST_FN(m, r->bufs[HI_CODES].buf, r->n_hi, safe)];       \
        }                                                                       \
        else {                                                                  \
            int e;                                                              \
            FREXP(safe, &e);                                                    \
            const int q = (int)((const int64_t *)r->bufs[QEXPS].buf)[e - r->qbase]; \
            mag = RINT(LDEXP(safe, -q)) * LDEXP((T)1, q);                       \
        }                                                                       \
        if (mag < minpos) {                                                     \
            mag = minpos;                                                       \
        }                                                                       \
        else if (mag > maxpos) {                                                \
            mag = maxpos;                                                       \
        }                                                                       \
        return v < 0 ? -mag : mag;                                              \
    }

QUANTUM(quantum_f64, double, nearest_f64, fabs, frexp, ldexp, rint)
/* the only rule of the `long double` kernels */
QUANTUM(finite_ld, npy_longdouble, nearest_ld, fabsl, frexpl, ldexpl, rintl)

/* The non-zero float64 value `v`, finite or infinite, rounded by the rule
 * `r`. */
static double
finite_f64(const Rule *r, double v)
{
    const double a = fabs(v);
    double mag;
    if (r->kind == RULE_TABLE) {
        if (a > (double)r->hi) {
            mag = (double)r->maxpos;
        }
        else {
            const double *m = r->bufs[LO_MAGS].buf;
            mag = m[nearest_f64(m, r->bufs[LO_CODES].buf, r->n_lo, a)];
            if (mag == 0) {
                mag = (double)r->minpos;
            }
        }
        return copysign(mag, v);
    }
    return quantum_f64(r, v);
}

/* Round the value `*x` of type `T` in place by the kernel's rule: an exact
 * zero (unsigned for formats with one zero), then the non-finite policy or
 * the finite rule `FINITE`. */
#define BY_RULE(NAME, T, FINITE)                                                \
    static inline int NAME(const Tables *t, T *x)                               \
    {                                                                           \
        const Rule *r = t->rule;                                                \
        if (*x == 0) {                                                          \
            if (t->unsigned_zero) {                                             \
                *x = 0;                                                         \
            }                                                                   \
            return ZERO;                                                        \
        }                                                                       \
        if (isfinite(*x) || (r->nonfinite == NONFINITE_RULE && *x == *x)) {     \
            *x = FINITE(r, *x);                                                 \
        }                                                                       \
        else if (r->nonfinite != NONFINITE_KEEP) {                              \
            *x = (T)NAN;                                                        \
        }                                                                       \
        return RULE;                                                            \
    }

BY_RULE(rule_f64, double, finite_f64)
BY_RULE(rule_ld, npy_longdouble, finite_ld)

/* Round the float64 word in `in` into `out` (which may be `in`) by the
 * rule alone. */
static OUT_OF_LINE int
step_rule_f64(const Tables *t, const void *in, void *out)
{
    double x;
    memcpy(&x, in, sizeof x);
    const int outcome = rule_f64(t, &x);
    memcpy(out, &x, sizeof x);
    return outcome;
}

/* Round the `long double` in `in` into `out` (which may be `in`) by the
 * rule alone; an x87 slot gets its padding zeroed. */
static OUT_OF_LINE int
step_rule_ld(const Tables *t, const void *in, void *out)
{
    npy_longdouble x;
    memcpy(&x, in, sizeof x);
    const int outcome = rule_ld(t, &x);
    memcpy(out, &x, sizeof x);
    if (X87_LONGDOUBLE) {
        memset((char *)out + X87_VALUE, 0, X87_SLOT - X87_VALUE);
    }
    return outcome;
}

/* Round the float64 word in `in` into `out` (which may be `in`) through the
 * LUTs, or by the rule in a special binade; exact zeros, frequent in the
 * eigensolver's products, round inline as the rule rounds them. */
static inline int
step_f64(const Tables *t, const void *in, void *out)
{
    uint64_t u;
    memcpy(&u, in, sizeof u);
    const unsigned idx = (unsigned)(u >> 52);
    const uint8_t special = t->special[idx];
    int outcome = SERVED;
    if (special == 0) {
        const uint64_t s = t->shift[idx];
        u = ((u + t->bias[idx] + ((u >> s) & 1)) >> s) << s;
    }
    else if (special == SPECIAL_RULE) {
        if (u << 1) {
            return step_rule_f64(t, in, out);
        }
        outcome = ZERO;
        if (t->unsigned_zero) {
            u = 0;
        }
    }
    memcpy(out, &u, sizeof u);
    return outcome;
}

/* Round the x87 extended value in the 16-byte slot `in` into `out` (which
 * may be `in`) through the LUTs, or by the rule in a special binade, exact
 * zeros inline as in `step_f64`.  The padding is zeroed whatever the
 * outcome. */
static inline int
step_x87(const Tables *t, const void *in, void *out)
{
    uint64_t w[2];
    memcpy(w, in, X87_SLOT);
    w[1] &= 0xFFFF;
    const uint8_t special = t->special[w[1]];
    int outcome = SERVED;
    if (special == 0) {
        const uint64_t m = w[0];
        const uint64_t s = t->shift[w[1]];
        const uint64_t acc = m + t->bias[w[1]] + ((m >> s) & 1);
        if (acc < m) { /* carry out of the binade: 1.0 one binade up */
            w[0] = (uint64_t)1 << 63;
            w[1] += 1;
        }
        else {
            w[0] = (acc >> s) << s;
        }
    }
    else if (special == SPECIAL_RULE) {
        if (w[0] || (w[1] & 0x7FFF)) {
            return step_rule_ld(t, in, out);
        }
        outcome = ZERO;
        if (t->unsigned_zero) {
            w[1] = 0;
        }
    }
    memcpy(out, w, X87_SLOT);
    return outcome;
}

/* The step of the native dtypes, whose storage type is the rounding; the
 * reduction levels call it in place only. */
static inline int
step_none(const Tables *Py_UNUSED(t), const void *Py_UNUSED(in), void *Py_UNUSED(out))
{
    return SERVED;
}

/* Whether `value` is a 0-d array of the kernel's work type; its value is
 * then copied to `x`. */
static int
zero_dim_of(const Kernel *k, PyObject *value, void *x)
{
    PyArrayObject *a = (PyArrayObject *)value;
    if (!PyArray_Check(value) || PyArray_NDIM(a) != 0 || PyArray_TYPE(a) != work_type(k) ||
        !PyArray_ISNOTSWAPPED(a)) {
        return 0;
    }
    memcpy(x, PyArray_DATA(a), (size_t)PyArray_ITEMSIZE(a));
    return 1;
}

static PyObject *
Kernel_round_one(Kernel *k, PyObject *value)
{
    const Tables t = tables_of(k);
    if (k->extended) {
        npy_longdouble x;
        if (PyArray_IsScalar(value, LongDouble)) {
            x = PyArrayScalar_VAL(value, LongDouble);
        }
        else if (PyFloat_Check(value)) {
            x = (npy_longdouble)PyFloat_AS_DOUBLE(value);
        }
        else if (!zero_dim_of(k, value, &x)) {
            Py_RETURN_NONE;
        }
        if (k->lut) {
            step_x87(&t, &x, &x);
        }
        else {
            step_rule_ld(&t, &x, &x);
        }
        PyObject *res = PyArrayScalar_New(LongDouble);
        if (res != NULL) {
            memcpy(&PyArrayScalar_VAL(res, LongDouble), &x, sizeof x);
        }
        return res;
    }
    double x;
    if (PyFloat_Check(value)) {
        x = PyFloat_AS_DOUBLE(value);
    }
    else if (!zero_dim_of(k, value, &x)) {
        Py_RETURN_NONE;
    }
    if (k->lut) {
        step_f64(&t, &x, &x);
    }
    else {
        step_rule_f64(&t, &x, &x);
    }
    PyObject *res = PyArrayScalar_New(Double);
    if (res != NULL) {
        PyArrayScalar_VAL(res, Double) = x;
    }
    return res;
}

/* The outcomes of one rounding pass: the zeros it rounded and the values
 * its rule rounded. */
typedef struct {
    unsigned long long zeros;
    unsigned long long rule;
} Pass;

/* Record the outcome of rounding one value (a served value writes
 * nothing: the common case stays free of stores). */
static inline void
note(Pass *pass, int outcome)
{
    if (outcome == ZERO) {
        pass->zeros++;
    }
    else if (outcome == RULE) {
        pass->rule++;
    }
}

/* Close a pass that rounded `n` values: count it into `k` (if any) while
 * the telemetry flag byte is set, the values its rule rounded as handed
 * back, and start afresh. */
static void
end_pass(Kernel *k, npy_intp n, Pass *pass)
{
    if (k != NULL && *(const char *)k->counting.buf) {
        k->counts[CALLS] += 1;
        k->counts[ELEMENTS] += (unsigned long long)n;
        k->counts[HANDED_BACK] += pass->rule;
        k->counts[ZEROS] += pass->zeros;
    }
    pass->zeros = 0;
    pass->rule = 0;
}

static int
check_buffer(const Kernel *k, const Py_buffer *view, const char *what)
{
    const char *want = k->extended ? "g" : "d";
    const Py_ssize_t size = k->extended ? NPY_SIZEOF_LONGDOUBLE : 8;
    if (view->itemsize != size || view->format == NULL || strcmp(view->format, want) != 0) {
        PyErr_Format(OperandError, "%s: expected a buffer of format '%s'", what, want);
        return -1;
    }
    if (!PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(OperandError, "%s: buffer is not C-contiguous", what);
        return -1;
    }
    return 0;
}

static PyObject *
Kernel_round_into(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "round_into(src, dst) takes two buffers");
        return NULL;
    }
    Py_buffer in, out;
    if (PyObject_GetBuffer(args[0], &in, PyBUF_STRIDES | PyBUF_FORMAT) < 0) {
        return NULL;
    }
    if (PyObject_GetBuffer(args[1], &out, PyBUF_STRIDES | PyBUF_FORMAT | PyBUF_WRITABLE) < 0) {
        PyBuffer_Release(&in);
        return NULL;
    }
    PyObject *res = NULL;
    char *dst = out.buf;
    if (check_buffer(k, &in, "src") < 0 || check_buffer(k, &out, "dst") < 0) {
        goto done;
    }
    if (in.len != out.len) {
        PyErr_SetString(OperandError, "src and dst differ in length");
        goto done;
    }
    const uintptr_t a = (uintptr_t)in.buf, b = (uintptr_t)dst;
    if (a != b && a < b + (uintptr_t)out.len && b < a + (uintptr_t)in.len) {
        PyErr_SetString(OperandError, "src and dst overlap without being the same buffer");
        goto done;
    }
    const char *src = in.buf;
    const npy_intp n = in.len / in.itemsize;
    const Tables t = tables_of(k);
    Pass pass = {0, 0};
#define ROUND_ALL(STEP, SIZE)                                                                    \
    for (npy_intp i = 0; i < n; i++) {                                                           \
        note(&pass, STEP(&t, src + i * (SIZE), dst + i * (SIZE)));                               \
    }
    if (!k->lut) {
        if (k->extended) {
            ROUND_ALL(step_rule_ld, NPY_SIZEOF_LONGDOUBLE)
        }
        else {
            ROUND_ALL(step_rule_f64, 8)
        }
    }
    else if (k->extended) {
        ROUND_ALL(step_x87, X87_SLOT)
    }
    else {
        ROUND_ALL(step_f64, 8)
    }
#undef ROUND_ALL
    end_pass(k, n, &pass);
    res = Py_NewRef(Py_None);

done:
    PyBuffer_Release(&in);
    PyBuffer_Release(&out);
    return res;
}

/* the segments of a reduction: segment r holds `len[r]` values from
 * element `from[r]` of the input on; a pairwise tree writes the sums of its
 * first level from element `off[r]` of a work buffer on, where every later
 * level reduces them in place */
typedef struct {
    npy_intp *from;
    npy_intp *off;
    npy_intp *len;
    npy_intp count;
} Segments;

/* One tree level over elements of type `T`, each sum rounded in place by
 * `STEP`: from the partials at `src + from[r]` into the work buffer `dst`.
 * A one-element segment is copied, so the work buffer holds every partial
 * after the first level.  Returns the number of sums; `pass` records their
 * outcomes. */
#define LEVEL(NAME, T, STEP)                                                                    \
    static npy_intp NAME(const char *src, const npy_intp *from, char *dst, Segments *seg,      \
                         const Tables *t, Pass *pass)                                          \
    {                                                                                           \
        npy_intp sums = 0;                                                                      \
        for (npy_intp r = 0; r < seg->count; r++) {                                             \
            const npy_intp len = seg->len[r];                                                   \
            const npy_intp off = seg->off[r];                                                   \
            const T *s = (const T *)src + from[r];                                              \
            T *d = (T *)dst + off;                                                              \
            if (len < 2) {                                                                      \
                if (len == 1 && s != d) {                                                       \
                    memcpy(d, s, sizeof(T));                                                    \
                }                                                                               \
                continue;                                                                       \
            }                                                                                   \
            const npy_intp half = len / 2;                                                      \
            for (npy_intp i = 0; i < half; i++) {                                               \
                d[i] = s[2 * i] + s[2 * i + 1];                                                 \
                note(pass, STEP(t, &d[i], &d[i]));                                              \
            }                                                                                   \
            if (len & 1) {                                                                      \
                memcpy(&d[half], &s[len - 1], sizeof(T));                                       \
            }                                                                                   \
            seg->len[r] = half + (len & 1);                                                     \
            sums += half;                                                                       \
        }                                                                                       \
        return sums;                                                                            \
    }

LEVEL(level_float, float, step_none)
LEVEL(level_double, double, step_none)
LEVEL(level_longdouble, npy_longdouble, step_none)
LEVEL(level_word, double, step_f64)
LEVEL(level_x87, npy_longdouble, step_x87)
LEVEL(level_rule_double, double, step_rule_f64)
LEVEL(level_rule_longdouble, npy_longdouble, step_rule_ld)

/* `rows` segments of `m` values each, one after the other; their level
 * sums go to the work buffer in the same order, half of each segment
 * rounded up.  `seg` has room for `rows` segments. */
static void
rows_of(Segments *seg, npy_intp rows, npy_intp m)
{
    seg->count = rows;
    for (npy_intp r = 0; r < rows; r++) {
        seg->from[r] = r * m;
        seg->len[r] = m;
        seg->off[r] = r * ((m + 1) / 2);
    }
}

/* The segments of `values`: its rows along the last axis (`indptr` None),
 * or the CSR segments of a 1-D `values`, in freshly allocated arrays; sets
 * `*size` to the elements of the work buffer, half of each segment rounded
 * up. */
static int
segments_of(PyArrayObject *values, PyObject *indptr, Segments *seg, npy_intp *size)
{
    PyArrayObject *ptr = NULL;
    npy_intp count, m = 0;
    if (indptr == Py_None) {
        const int nd = PyArray_NDIM(values);
        m = PyArray_DIM(values, nd - 1);
        count = 1;
        for (int d = 0; d < nd - 1; d++) {
            count *= PyArray_DIM(values, d);
        }
    }
    else {
        if (PyArray_NDIM(values) != 1) {
            PyErr_SetString(PyExc_ValueError, "CSR values must be one-dimensional");
            return -1;
        }
        ptr = (PyArrayObject *)PyArray_FROMANY(indptr, NPY_INTP, 1, 1, NPY_ARRAY_CARRAY_RO);
        if (ptr == NULL) {
            return -1;
        }
        count = PyArray_DIM(ptr, 0) - 1;
        if (count < 0) {
            PyErr_SetString(PyExc_ValueError, "indptr is empty");
            Py_DECREF(ptr);
            return -1;
        }
    }
    seg->from = PyMem_Malloc((size_t)(3 * count + 1) * sizeof(npy_intp));
    if (seg->from == NULL) {
        Py_XDECREF(ptr);
        PyErr_NoMemory();
        return -1;
    }
    seg->off = seg->from + count;
    seg->len = seg->off + count;
    if (ptr == NULL) {
        rows_of(seg, count, m);
        *size = count * ((m + 1) / 2);
        return 0;
    }
    const npy_intp *p = (const npy_intp *)PyArray_DATA(ptr);
    int bad = p[0] < 0 || p[count] > PyArray_DIM(values, 0);
    seg->count = count;
    *size = 0;
    for (npy_intp r = 0; r < count && !bad; r++) {
        seg->from[r] = p[r];
        seg->len[r] = p[r + 1] - p[r];
        seg->off[r] = *size;
        *size += (seg->len[r] + 1) / 2;
        bad = seg->len[r] < 0;
    }
    Py_DECREF(ptr);
    if (bad) {
        PyErr_SetString(PyExc_ValueError, "indptr must be non-decreasing within the values");
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------------ */
/* The projected eigensolver: the QL recurrence and its Givens steps.        */

enum { QL_OK, QL_NONFINITE, QL_SWEEPS };

/* One `ql` call: its rounding, its limits, and what it found. */
typedef struct {
    const Tables *t;
    long max_sweeps;
    double eps;   /* deflation threshold */
    double floor; /* max(eps, 1e-30): the shift denominator that replaces 0 */
    unsigned long long ops;
    unsigned long long restarts;  /* steps that met a zero rotation radius */
    unsigned long long rotations; /* Givens steps applied to the eigenvectors */
    int status;
    npy_intp low; /* the eigenvalue a failure was deflating */
} Ql;

/* The rounding of a call's passes and the pass it is in. */
typedef struct {
    Kernel *k; /* counts the passes (NULL: none) */
    const Tables *t;
    Pass pass;
} Rounding;

/* One `ql`, `tridiagonalize` or `reduce` call: the rounding and tally of
 * its scalar ops (`q`), the rounding of its passes (`rnd`), its scratch,
 * and what it found. */
typedef struct {
    Ql q;
    Rounding rnd;
    int sequential;
    Segments seg; /* the segments of a sum */
    char *work;   /* the level buffer of a pairwise sum */
    npy_intp skipped;
    npy_intp first_nonfinite; /* -1: none */
} Tri;

/* `var = expr`, rounded through the instance's `rs`. */
#define RS(var, expr)        \
    do {                     \
        (var) = (expr);      \
        rs(q, &(var));       \
    } while (0)

/* The eigensolver and the reduction over elements of type `T` (NumPy type
 * `TYPENUM`), each op rounded by `STEP`:
 *
 *   NAME_hypot   the scaled hypot `scale * sqrt(1 + (small / scale)^2)`,
 *                five rounded ops; NaN, zero and infinite operands return
 *                NaN, 0 and inf with no op;
 *   NAME_ql      the implicit-shift QL iteration on `d` and `e` in place,
 *                each Givens step applied to the rows of `Z^T` as it is
 *                formed (EISPACK tql2), in one pass by `NAME_givens`;
 *   NAME_sum     the `reduce` entry: the rounded sums of the segments of
 *                its values, the levels of a pairwise tree by `LEVEL_FN`;
 *   NAME_products
 *                `out[i] = sum_l M[i rs + l cs] x[l]` for i < rows and
 *                l < cols, every rounded matrix-vector product (`rs` 0
 *                and `vector`: one dot product): the products laid out
 *                (rows, cols) in `P` in one pass, then `NAME_sum` of each row;
 *   NAME_norm2   the norm of the `m` values `x[0], x[stride], ...`: NaN
 *                when a value is NaN, +inf when one is infinite, 0 when all
 *                are zero (no op), otherwise `scale * sqrt((x / scale) .
 *                (x / scale))` with `scale` the largest magnitude (`xs`
 *                and `p`: scratch of `m` values);
 *   NAME_rank1   `S - u b^T` in place over the `rows` rows of `n` values
 *                of `S`, row `i` reading `b` from `(i / n) bstep` on: the
 *                products in one pass (into `P`), then the difference;
 *   NAME_tridiagonalize
 *                the Householder reduction of `[A; Q]` (EISPACK tred2;
 *                Golub & Van Loan, Alg. 8.3.1) on these helpers. */
#define EIGEN(NAME, T, STEP, SQRT, FABS, COPYSIGN, LEVEL_FN)                                    \
    static inline void NAME##_rs(Ql *q, T *x)                                                   \
    {                                                                                           \
        STEP(q->t, x, x);                                                                       \
    }                                                                                           \
                                                                                                \
    static void NAME##_hypot(Ql *q, T a, T b, T *out)                                           \
    {                                                                                           \
        void (*const rs)(Ql *, T *) = NAME##_rs;                                                \
        const T aa = FABS(a), ab = FABS(b);                                                     \
        if (aa != aa || ab != ab) {                                                             \
            *out = (T)NAN;                                                                      \
            return;                                                                             \
        }                                                                                       \
        const T scale = aa >= ab ? aa : ab, small = aa >= ab ? ab : aa;                         \
        if (scale == 0 || isinf(scale)) {                                                       \
            *out = scale;                                                                       \
            return;                                                                             \
        }                                                                                       \
        T t, sq, u, root;                                                                       \
        RS(t, small / scale);                                                                   \
        RS(sq, t * t);                                                                          \
        RS(u, (T)1 + sq); /* in [1, 2] */                                                       \
        RS(root, SQRT(u));                                                                      \
        q->ops += 5;                                                                            \
        RS(*out, scale * root);                                                                 \
    }                                                                                           \
                                                                                                \
    /* round `buf[i]` into the current pass */                                                  \
    static inline void NAME##_note(Tri *r, T *buf, npy_intp i)                                  \
    {                                                                                           \
        note(&r->rnd.pass, STEP(r->rnd.t, &buf[i], &buf[i]));                                   \
    }                                                                                           \
                                                                                                \
    /* the Givens step (c, s) on the rows `zi` and `zi + nrows` of `Z^T`:                       \
     * `c x - s y` and `s x + c y` from the products `c x, s y, s x, c y`,                      \
     * the six ops in one pass */                                                               \
    static void NAME##_givens(Tri *r, T *zi, npy_intp nrows, T c, T s)                          \
    {                                                                                           \
        T *const zi1 = zi + nrows;                                                              \
        for (npy_intp j = 0; j < nrows; j++) {                                                  \
            T p[4] = {c * zi[j], s * zi1[j], s * zi[j], c * zi1[j]};                            \
            for (int h = 0; h < 4; h++) {                                                       \
                NAME##_note(r, p, h);                                                           \
            }                                                                                   \
            zi[j] = p[0] - p[1];                                                                \
            NAME##_note(r, zi, j);                                                              \
            zi1[j] = p[2] + p[3];                                                               \
            NAME##_note(r, zi1, j);                                                             \
        }                                                                                       \
        r->q.ops += 6 * (unsigned long long)nrows;                                              \
        r->q.rotations++;                                                                       \
        end_pass(r->rnd.k, 6 * nrows, &r->rnd.pass);                                            \
    }                                                                                           \
                                                                                                \
    static void NAME##_ql(Tri *tri, char *d_, char *e_, char *zt_, npy_intp n, npy_intp nrows)  \
    {                                                                                           \
        Ql *const q = &tri->q;                                                                  \
        void (*const rs)(Ql *, T *) = NAME##_rs;                                                \
        T *d = (T *)d_, *e = (T *)e_, *zt = (T *)zt_;                                           \
        const T one = 1, two = 2;                                                               \
        for (npy_intp low = 0; low < n; low++) {                                                \
            long sweeps = 0;                                                                    \
            for (;;) {                                                                          \
                for (npy_intp j = 0; j < n; j++) {                                              \
                    if (!isfinite(d[j]) || !isfinite(e[j])) {                                   \
                        q->status = QL_NONFINITE;                                               \
                        q->low = low;                                                           \
                        return;                                                                 \
                    }                                                                           \
                }                                                                               \
                /* deflation: a float64 test on the values, not format arithmetic */           \
                npy_intp m = low;                                                               \
                while (m < n - 1) {                                                             \
                    const double dd = fabs((double)d[m]) + fabs((double)d[m + 1]);              \
                    if (fabs((double)e[m]) <= q->eps * dd) {                                    \
                        break;                                                                  \
                    }                                                                           \
                    m++;                                                                        \
                }                                                                               \
                if (m == low) {                                                                 \
                    break;                                                                      \
                }                                                                               \
                if (++sweeps > q->max_sweeps) {                                                 \
                    q->status = QL_SWEEPS;                                                      \
                    q->low = low;                                                               \
                    return;                                                                     \
                }                                                                               \
                /* Wilkinson-like shift */                                                      \
                T a, b, g, r, denom;                                                            \
                RS(a, d[low + 1] - d[low]);                                                     \
                RS(b, two * e[low]);                                                            \
                RS(g, a / b);                                                                   \
                NAME##_hypot(q, g, one, &r);                                                    \
                RS(denom, g + COPYSIGN(r, g));                                                  \
                if (denom == 0 || !isfinite(denom)) {                                           \
                    denom = COPYSIGN((T)q->floor, g);                                           \
                }                                                                               \
                RS(a, d[m] - d[low]);                                                           \
                RS(b, e[low] / denom);                                                          \
                RS(g, a + b);                                                                   \
                q->ops += 7;                                                                    \
                T s = one, c = one, p = 0;                                                      \
                int restart = 0;                                                                \
                for (npy_intp i = m - 1; i >= low; i--) {                                       \
                    const T ei = e[i];                                                          \
                    T f, x, y;                                                                  \
                    RS(f, s * ei);                                                              \
                    RS(b, c * ei);                                                              \
                    NAME##_hypot(q, f, g, &r);                                                  \
                    e[i + 1] = r;                                                               \
                    if (r == 0) {                                                               \
                        RS(d[i + 1], d[i + 1] - p);                                             \
                        e[m] = 0;                                                               \
                        q->ops += 3;                                                            \
                        q->restarts++;                                                          \
                        restart = 1;                                                            \
                        break;                                                                  \
                    }                                                                           \
                    RS(s, f / r);                                                               \
                    RS(c, g / r);                                                               \
                    RS(g, d[i + 1] - p);                                                        \
                    RS(x, d[i] - g);                                                            \
                    RS(x, x * s);                                                               \
                    RS(y, two * c);                                                             \
                    RS(y, y * b);                                                               \
                    RS(r, x + y);                                                               \
                    RS(p, s * r);                                                               \
                    RS(d[i + 1], g + p);                                                        \
                    RS(x, c * r);                                                               \
                    RS(g, x - b);                                                               \
                    q->ops += 14;                                                               \
                    NAME##_givens(tri, zt + i * nrows, nrows, c, s);                            \
                }                                                                               \
                if (restart) {                                                                  \
                    continue;                                                                   \
                }                                                                               \
                RS(d[low], d[low] - p);                                                         \
                e[low] = g;                                                                     \
                e[m] = 0;                                                                       \
                q->ops += 1;                                                                    \
            }                                                                                   \
        }                                                                                       \
    }                                                                                           \
                                                                                                \
    /* The rounded sums of the segments `r->seg` of the values at `values`                      \
     * into `sums` (0 for an empty segment): pairwise, one pass per tree                        \
     * level, or left to right, one pass per column of the segments still                       \
     * accumulating (for a `vector`, one segment, a scalar op per addition). */                 \
    static void NAME##_sum(Tri *r, const void *values, int vector, void *sums)                  \
    {                                                                                           \
        const T *const p = values;                                                              \
        T *const out = sums;                                                                    \
        Segments *const seg = &r->seg;                                                          \
        npy_intp longest = 0;                                                                   \
        for (npy_intp i = 0; i < seg->count; i++) {                                             \
            const npy_intp len = seg->len[i];                                                   \
            r->q.ops += len ? (unsigned long long)(len - 1) : 0;                                \
            longest = len > longest ? len : longest;                                            \
            if (len) {                                                                          \
                memcpy(&out[i], &p[seg->from[i]], sizeof(T));                                   \
            }                                                                                   \
            else {                                                                              \
                out[i] = 0;                                                                     \
            }                                                                                   \
        }                                                                                       \
        if (r->sequential && vector) {                                                          \
            for (npy_intp j = 1; j < longest; j++) {                                            \
                out[0] = out[0] + p[seg->from[0] + j];                                          \
                NAME##_rs(&r->q, out);                                                          \
            }                                                                                   \
            return;                                                                             \
        }                                                                                       \
        if (r->sequential) {                                                                    \
            for (npy_intp j = 1; j < longest; j++) {                                            \
                npy_intp n = 0;                                                                 \
                for (npy_intp i = 0; i < seg->count; i++) {                                     \
                    if (seg->len[i] > j) {                                                      \
                        out[i] = out[i] + p[seg->from[i] + j];                                  \
                        NAME##_note(r, out, i);                                                 \
                        n++;                                                                    \
                    }                                                                           \
                }                                                                               \
                end_pass(r->rnd.k, n, &r->rnd.pass);                                            \
            }                                                                                   \
            return;                                                                             \
        }                                                                                       \
        const char *src = (const char *)p;                                                      \
        const npy_intp *from = seg->from;                                                       \
        for (;;) {                                                                              \
            const npy_intp sums = LEVEL_FN(src, from, r->work, seg, r->rnd.t, &r->rnd.pass);    \
            if (sums == 0) {                                                                    \
                break;                                                                          \
            }                                                                                   \
            src = r->work;                                                                      \
            from = seg->off;                                                                    \
            end_pass(r->rnd.k, sums, &r->rnd.pass);                                             \
        }                                                                                       \
        for (npy_intp i = 0; i < seg->count; i++) {                                             \
            if (seg->len[i]) {                                                                  \
                memcpy(&out[i], (const T *)r->work + seg->off[i], sizeof(T));                   \
            }                                                                                   \
        }                                                                                       \
    }                                                                                           \
                                                                                                \
    /* `x[i * stride] / d` for i < m into `out`, in one pass */                                 \
    static void NAME##_divide(Tri *r, const T *x, npy_intp stride, npy_intp m, T d, T *out)     \
    {                                                                                           \
        for (npy_intp i = 0; i < m; i++) {                                                      \
            out[i] = x[i * stride] / d;                                                         \
            NAME##_note(r, out, i);                                                             \
        }                                                                                       \
        r->q.ops += (unsigned long long)m;                                                      \
        end_pass(r->rnd.k, m, &r->rnd.pass);                                                    \
    }                                                                                           \
                                                                                                \
    static void NAME##_products(Tri *r, const T *M, npy_intp rs, npy_intp cs, npy_intp rows,    \
                                npy_intp cols, const T *x, int vector, T *P, T *out)            \
    {                                                                                           \
        for (npy_intp i = 0; i < rows; i++) {                                                   \
            for (npy_intp l = 0; l < cols; l++) {                                               \
                P[i * cols + l] = M[i * rs + l * cs] * x[l];                                    \
                NAME##_note(r, P, i * cols + l);                                                \
            }                                                                                   \
        }                                                                                       \
        r->q.ops += (unsigned long long)(rows * cols);                                          \
        end_pass(r->rnd.k, rows * cols, &r->rnd.pass);                                          \
        rows_of(&r->seg, rows, cols);                                                           \
        NAME##_sum(r, P, vector, out);                                                          \
    }                                                                                           \
                                                                                                \
    static void NAME##_norm2(Tri *r, const T *x, npy_intp stride, npy_intp m, T *xs, T *p,      \
                             T *norm)                                                           \
    {                                                                                           \
        Ql *const q = &r->q;                                                                    \
        void (*const rs)(Ql *, T *) = NAME##_rs;                                                \
        T scale = 0, dot, root;                                                                 \
        for (npy_intp i = 0; i < m; i++) {                                                      \
            const T a = FABS(x[i * stride]);                                                    \
            if (a != a) {                                                                       \
                *norm = (T)NAN;                                                                 \
                return;                                                                         \
            }                                                                                   \
            scale = a > scale ? a : scale;                                                      \
        }                                                                                       \
        if (scale == 0 || isinf(scale)) {                                                       \
            *norm = scale;                                                                      \
            return;                                                                             \
        }                                                                                       \
        NAME##_divide(r, x, stride, m, scale, xs);                                              \
        NAME##_products(r, xs, 0, 1, 1, m, xs, 1, p, &dot);                                     \
        RS(root, SQRT(dot));                                                                    \
        RS(*norm, scale * root);                                                                \
        q->ops += 2;                                                                            \
    }                                                                                           \
                                                                                                \
    /* The reflector `(I - beta v v^T)` that annihilates all but the first                      \
     * of the `m` values `x[0], x[stride], ...` into `v` (`m` values) and                       \
     * `*beta`; `*beta` is 0 when the reflector is skipped: a zero or                           \
     * non-finite norm, a zero or non-finite `v.v`, or a non-finite `beta`.                     \
     * `xs` and `p` are scratch of `m` values. */                                               \
    static void NAME##_householder(Tri *r, const T *x, npy_intp stride, npy_intp m, T *v,       \
                                   T *beta, T *xs, T *p)                                        \
    {                                                                                           \
        Ql *const q = &r->q;                                                                    \
        void (*const rs)(Ql *, T *) = NAME##_rs;                                                \
        T normx, vnorm2, b;                                                                     \
        *beta = 0;                                                                              \
        NAME##_norm2(r, x, stride, m, xs, p, &normx);                                           \
        if (!isfinite(normx) || normx == 0) {                                                   \
            return;                                                                             \
        }                                                                                       \
        /* v = x / normx with v[0] + sign(x[0]); alpha = -sign * normx is                       \
         * one op (exact, and not read: counted, not formed) */                                 \
        NAME##_divide(r, x, stride, m, normx, v);                                               \
        const T sign = x[0] < 0 ? -1 : 1;                                                       \
        RS(v[0], v[0] - (-sign));                                                               \
        q->ops += 2;                                                                            \
        NAME##_products(r, v, 0, 1, 1, m, v, 1, p, &vnorm2);                                    \
        if (!isfinite(vnorm2) || vnorm2 == 0) {                                                 \
            return;                                                                             \
        }                                                                                       \
        RS(b, (T)2 / vnorm2);                                                                   \
        q->ops += 1;                                                                            \
        *beta = isfinite(b) ? b : 0;                                                            \
    }                                                                                           \
                                                                                                \
    /* `S[i] - U[i]` over the `size` values of `S`, in place, in one pass */                    \
    static void NAME##_subtract(Tri *r, T *S, const T *U, npy_intp size)                        \
    {                                                                                           \
        for (npy_intp i = 0; i < size; i++) {                                                   \
            S[i] = S[i] - U[i];                                                                 \
            NAME##_note(r, S, i);                                                               \
        }                                                                                       \
        r->q.ops += (unsigned long long)size;                                                   \
        end_pass(r->rnd.k, size, &r->rnd.pass);                                                 \
    }                                                                                           \
                                                                                                \
    /* `P[i n + j] = u[i ustep] b[(i / n) bstep + j]` for i < rows and j < n,                   \
     * in one pass */                                                                           \
    static void NAME##_outer(Tri *r, npy_intp rows, npy_intp n, const T *u, npy_intp ustep,     \
                             const T *b, npy_intp bstep, T *P)                                  \
    {                                                                                           \
        for (npy_intp i = 0; i < rows; i++) {                                                   \
            const T *const bi = b + (i / n) * bstep;                                            \
            for (npy_intp j = 0; j < n; j++) {                                                  \
                P[i * n + j] = u[i * ustep] * bi[j];                                            \
                NAME##_note(r, P, i * n + j);                                                   \
            }                                                                                   \
        }                                                                                       \
        r->q.ops += (unsigned long long)(rows * n);                                             \
        end_pass(r->rnd.k, rows * n, &r->rnd.pass);                                             \
    }                                                                                           \
                                                                                                \
    static void NAME##_rank1(Tri *r, T *S, npy_intp rows, npy_intp n, const T *u, const T *b,   \
                             npy_intp bstep, T *P)                                              \
    {                                                                                           \
        NAME##_outer(r, rows, n, u, 1, b, bstep, P);                                            \
        NAME##_subtract(r, S, P, rows * n);                                                     \
    }                                                                                           \
                                                                                                \
    /* Reduce the `(2, n, n)` stack `[A; Q]` at `aq_` in place: for each                        \
     * column k < n - 2 of A, the reflector of `A[k + 1:, k]`, applied to A                     \
     * from the left (`A - (beta v)(v^T A)`) and to the stack from the right                    \
     * (`S - (S v)(beta v)^T`, both matrices in each pass), with `v` zero                       \
     * above row k + 1.  `scratch` holds `2 n^2 + 7 n` values. */                               \
    static void NAME##_tridiagonalize(Tri *r, char *aq_, npy_intp n, char *scratch)             \
    {                                                                                           \
        T *const A = (T *)aq_, *const P = (T *)scratch; /* A, then Q: the stack */            \
        T *const w = P + 2 * n * n, *const bv = w + 2 * n, *const v = bv + 2 * n;              \
        T *const xs = v + n, *const p = xs + n;                                                 \
        for (npy_intp k = 0; k + 2 < n; k++) {                                                  \
            T beta;                                                                             \
            memset(v, 0, (size_t)(k + 1) * sizeof(T));                                          \
            NAME##_householder(r, A + (k + 1) * n + k, n, n - k - 1, v + k + 1, &beta, xs, p);  \
            if (beta == 0) {                                                                    \
                r->skipped++;                                                                   \
            }                                                                                   \
            else {                                                                              \
                /* from the left: w = A^T v, then A - (beta v) w^T */                           \
                NAME##_products(r, A, 1, n, n, n, v, 0, P, w);                                  \
                NAME##_outer(r, 1, n, &beta, 0, v, 0, bv);                                      \
                NAME##_rank1(r, A, n, n, bv, w, 0, P);                                          \
                /* from the right, over the 2n rows of the stack: w = S v,                      \
                 * then S - w (beta v)^T */                                                     \
                NAME##_products(r, A, n, 1, 2 * n, n, v, 0, P, w);                              \
                NAME##_outer(r, 2, n, &beta, 0, v, 0, bv);                                      \
                NAME##_rank1(r, A, 2 * n, n, w, bv, n, P);                                      \
            }                                                                                   \
            if (r->first_nonfinite < 0) {                                                       \
                for (npy_intp i = 0; i < 2 * n * n; i++) {                                      \
                    if (!isfinite(A[i])) {                                                      \
                        r->first_nonfinite = k;                                                 \
                        break;                                                                  \
                    }                                                                           \
                }                                                                               \
            }                                                                                   \
        }                                                                                       \
    }

/* ------------------------------------------------------------------------ */
/* The Arnoldi expansion: classical Gram-Schmidt with the DGKS second pass.  */

enum {
    ARNOLDI_DONE,
    ARNOLDI_DEFLATE,
    ARNOLDI_NONFINITE_VECTOR,
    ARNOLDI_MATVEC,
    ARNOLDI_COEFFICIENTS,
    ARNOLDI_NORM
};

/* One `arnoldi` call: the rounding, tally and scratch of its ops (`r`), the
 * CSR matrix (`data` NULL: orthogonalise only), the DGKS factor, and the
 * Gram-Schmidt calls that took the second pass. */
typedef struct {
    Tri r;
    const npy_intp *indptr;
    const npy_intp *indices;
    const char *data;
    npy_intp nnz;
    double eta;
    npy_intp dgks;
} Arn;

/* The scratch of an expansion over `n` rows and `m` columns: the products
 * of a pass (`P`, max(nnz, n m) values) and six vectors. */
typedef struct {
    char *P, *w, *h, *h2, *gv, *xs, *p;
} ArnScratch;

/* The Arnoldi expansion over elements of type `T` (see the header), on the
 * helpers of the EIGEN instance `NAME`:
 *
 *   NAME_project      `h = V^T w`, then `w - V h`, over the first `cols`
 *                     columns of the (n, ld) basis `V`, both products by
 *                     `NAME_products`;
 *   NAME_orthogonalize
 *                     classical Gram-Schmidt with the DGKS second pass and
 *                     `h + h2`, each norm by `NAME_norm2`; returns whether
 *                     the vector broke down;
 *   NAME_spmv         the rounded CSR product: one pass of products, then
 *                     the sums of the row segments;
 *   NAME_arnoldi      the column loop, or with no matrix the Gram-Schmidt
 *                     and normalisation of one vector. */
#define ARNOLDI(NAME, T)                                                                        \
    static void NAME##_project(Tri *r, const T *V, npy_intp n, npy_intp ld, npy_intp cols,      \
                               T *w, T *h, T *P, T *gv)                                         \
    {                                                                                           \
        NAME##_products(r, V, 1, ld, cols, n, w, 0, P, h);                                      \
        NAME##_products(r, V, ld, 1, n, cols, h, 0, P, gv);                                     \
        NAME##_subtract(r, w, gv, n);                                                           \
    }                                                                                           \
                                                                                                \
    /* `w` orthogonalised in place against the first `cols` columns of `V`,                     \
     * its coefficients into `h` and its final norm into `*norm`.  A first                      \
     * pass that keeps more than `eta` of the norm (compared in double) is                      \
     * accepted; otherwise the second pass runs, and the vector breaks down                     \
     * when it keeps no more than `eta` of the first pass's norm. */                            \
    static int NAME##_orthogonalize(Arn *a, const T *V, npy_intp n, npy_intp ld,                \
                                    npy_intp cols, T *w, T *h, T *norm, const ArnScratch *s)    \
    {                                                                                           \
        Tri *const r = &a->r;                                                                   \
        T *const P = (T *)s->P, *const h2 = (T *)s->h2, *const gv = (T *)s->gv;                 \
        T *const xs = (T *)s->xs, *const p = (T *)s->p;                                         \
        T before, after;                                                                        \
        NAME##_norm2(r, w, 1, n, xs, p, &before);                                               \
        NAME##_project(r, V, n, ld, cols, w, h, P, gv);                                         \
        NAME##_norm2(r, w, 1, n, xs, p, &after);                                                \
        if (isfinite(after) && (double)after > a->eta * (double)before) {                       \
            *norm = after;                                                                      \
            return 0;                                                                           \
        }                                                                                       \
        a->dgks++;                                                                              \
        NAME##_project(r, V, n, ld, cols, w, h2, P, gv);                                        \
        for (npy_intp i = 0; i < cols; i++) {                                                   \
            h[i] = h[i] + h2[i];                                                                \
            NAME##_note(r, h, i);                                                               \
        }                                                                                       \
        r->q.ops += (unsigned long long)cols;                                                   \
        end_pass(r->rnd.k, cols, &r->rnd.pass);                                                 \
        NAME##_norm2(r, w, 1, n, xs, p, norm);                                                  \
        return !isfinite(*norm) || (double)*norm <= a->eta * (double)after ||                   \
               (double)*norm == 0;                                                              \
    }                                                                                           \
                                                                                                \
    static void NAME##_spmv(Arn *a, npy_intp n, const T *x, T *P, T *w)                         \
    {                                                                                           \
        Tri *const r = &a->r;                                                                   \
        const T *const data = (const T *)a->data;                                               \
        if (a->nnz == 0) {                                                                      \
            memset(w, 0, (size_t)n * sizeof(T));                                                \
            return;                                                                             \
        }                                                                                       \
        for (npy_intp i = 0; i < a->nnz; i++) {                                                 \
            P[i] = data[i] * x[a->indices[i]];                                                  \
            NAME##_note(r, P, i);                                                               \
        }                                                                                       \
        r->q.ops += (unsigned long long)a->nnz;                                                 \
        end_pass(r->rnd.k, a->nnz, &r->rnd.pass);                                               \
        csr_of(&r->seg, a->indptr, n);                                                          \
        NAME##_sum(r, P, 0, w);                                                                 \
    }                                                                                           \
                                                                                                \
    /* With a matrix: columns `start` to `m - 1` of the (n, m) basis `V`,                       \
     * each from the next vector `v`, into `V`, `S` and `b`; `v` ends as the                    \
     * next vector after the last column, and `*stop` is the column that                        \
     * returned a status other than ARNOLDI_DONE (m: none).  Without one:                       \
     * `v` orthogonalised against the first `start` columns of `V` and                          \
     * normalised in place (ARNOLDI_DEFLATE: it broke down, or its norm is                      \
     * not finite and positive). */                                                             \
    static int NAME##_arnoldi(Arn *a, char *V_, char *S_, char *b_, char *v_, npy_intp n,       \
                              npy_intp m, npy_intp start, npy_intp *stop, const ArnScratch *s)  \
    {                                                                                           \
        Tri *const r = &a->r;                                                                   \
        T *const V = (T *)V_, *const v = (T *)v_, *const w = (T *)s->w, *const h = (T *)s->h;   \
        T beta;                                                                                 \
        if (a->data == NULL) {                                                                  \
            *stop = start;                                                                      \
            if (NAME##_orthogonalize(a, V, n, m, start, v, h, &beta, s) || !isfinite(beta) ||   \
                !((double)beta > 0)) {                                                          \
                return ARNOLDI_DEFLATE;                                                         \
            }                                                                                   \
            NAME##_divide(r, v, 1, n, beta, v);                                                 \
            return ARNOLDI_DONE;                                                                \
        }                                                                                       \
        T *const S = (T *)S_, *const b = (T *)b_;                                               \
        for (npy_intp j = start; j < m; j++) {                                                  \
            *stop = j;                                                                          \
            for (npy_intp i = 0; i < n; i++) {                                                  \
                if (!isfinite(v[i])) {                                                          \
                    return ARNOLDI_NONFINITE_VECTOR;                                            \
                }                                                                               \
                V[i * m + j] = v[i];                                                            \
            }                                                                                   \
            NAME##_spmv(a, n, v, (T *)s->P, w);                                                 \
            for (npy_intp i = 0; i < n; i++) {                                                  \
                if (!isfinite(w[i])) {                                                          \
                    return ARNOLDI_MATVEC;                                                      \
                }                                                                               \
            }                                                                                   \
            const int broke = NAME##_orthogonalize(a, V, n, m, j + 1, w, h, &beta, s);          \
            for (npy_intp i = 0; i <= j; i++) {                                                 \
                if (!isfinite((double)h[i])) { /* as a float64: beyond it breaks down too */    \
                    return ARNOLDI_COEFFICIENTS;                                                \
                }                                                                               \
            }                                                                                   \
            for (npy_intp i = 0; i <= j; i++) {                                                 \
                S[i * m + j] = h[i];                                                            \
            }                                                                                   \
            if (!isfinite(beta)) {                                                              \
                return ARNOLDI_NORM;                                                            \
            }                                                                                   \
            if (broke || (double)beta == 0) {                                                   \
                return ARNOLDI_DEFLATE;                                                         \
            }                                                                                   \
            NAME##_divide(r, w, 1, n, beta, v);                                                 \
            if (j + 1 < m) {                                                                    \
                S[(j + 1) * m + j] = beta;                                                      \
            }                                                                                   \
            else {                                                                              \
                memset(b, 0, (size_t)m * sizeof(T));                                            \
                b[j] = beta;                                                                    \
            }                                                                                   \
        }                                                                                       \
        *stop = m;                                                                              \
        return ARNOLDI_DONE;                                                                    \
    }

/* The `n` row segments of the CSR row pointer `indptr` (a work buffer of
 * half of each rounded up); `seg` has room for `n` segments. */
static void
csr_of(Segments *seg, const npy_intp *indptr, npy_intp n)
{
    npy_intp size = 0;
    seg->count = n;
    for (npy_intp r = 0; r < n; r++) {
        seg->from[r] = indptr[r];
        seg->len[r] = indptr[r + 1] - indptr[r];
        seg->off[r] = size;
        size += (seg->len[r] + 1) / 2;
    }
}

#define INSTANCE(NAME, T, STEP, SQRT, FABS, COPYSIGN, LEVEL_FN)                                 \
    EIGEN(NAME, T, STEP, SQRT, FABS, COPYSIGN, LEVEL_FN)                                        \
    ARNOLDI(NAME, T)

INSTANCE(f64, double, step_f64, sqrt, fabs, copysign, level_word)
INSTANCE(x87, npy_longdouble, step_x87, sqrtl, fabsl, copysignl, level_x87)
INSTANCE(native_float, float, step_none, sqrtf, fabsf, copysignf, level_float)
INSTANCE(native_double, double, step_none, sqrt, fabs, copysign, level_double)
INSTANCE(native_longdouble, npy_longdouble, step_none, sqrtl, fabsl, copysignl, level_longdouble)
INSTANCE(rule_double, double, step_rule_f64, sqrt, fabs, copysign, level_rule_double)
INSTANCE(rule_longdouble, npy_longdouble, step_rule_ld, sqrtl, fabsl, copysignl,
         level_rule_longdouble)

#undef RS

typedef void (*QlFn)(Tri *r, char *d, char *e, char *zt, npy_intp n, npy_intp nrows);
typedef void (*TridiagonalizeFn)(Tri *r, char *aq, npy_intp n, char *scratch);
typedef void (*ReduceFn)(Tri *r, const void *values, int vector, void *sums);
typedef int (*ArnoldiFn)(Arn *a, char *V, char *S, char *b, char *v, npy_intp n, npy_intp m,
                         npy_intp start, npy_intp *stop, const ArnScratch *s);

/* the instances, by the rounding of the work array */
enum { WITH_F64, WITH_X87, NATIVE_FLOAT, NATIVE_DOUBLE, NATIVE_LONGDOUBLE, RULE_DOUBLE, RULE_LONGDOUBLE };
static const QlFn ql_of[] = {f64_ql,           x87_ql,        native_float_ql,
                             native_double_ql, native_longdouble_ql, rule_double_ql,
                             rule_longdouble_ql};
static const TridiagonalizeFn tridiagonalize_of[] = {
    f64_tridiagonalize,           x87_tridiagonalize,        native_float_tridiagonalize,
    native_double_tridiagonalize, native_longdouble_tridiagonalize,
    rule_double_tridiagonalize,   rule_longdouble_tridiagonalize};
static const ReduceFn reduce_of[] = {f64_sum,           x87_sum,        native_float_sum,
                                     native_double_sum, native_longdouble_sum,
                                     rule_double_sum,   rule_longdouble_sum};
static const ArnoldiFn arnoldi_of[] = {f64_arnoldi,           x87_arnoldi,        native_float_arnoldi,
                                       native_double_arnoldi, native_longdouble_arnoldi,
                                       rule_double_arnoldi,   rule_longdouble_arnoldi};

/* The instance rounding a `typenum` work array through `kernel` (a Kernel
 * of that work type: with its LUTs, or by its rule alone), or, with
 * `kernel` None, not at all (the native dtypes); sets `*k` to the kernel,
 * if any.  -1 with TypeError otherwise. */
static int
instance_of(PyObject *kernel, int typenum, Kernel **k)
{
    *k = NULL;
    if (kernel == Py_None) {
        switch (typenum) {
        case NPY_FLOAT:
            return NATIVE_FLOAT;
        case NPY_DOUBLE:
            return NATIVE_DOUBLE;
        case NPY_LONGDOUBLE:
            return NATIVE_LONGDOUBLE;
        }
    }
    else if (PyObject_TypeCheck(kernel, &KernelType)) {
        *k = (Kernel *)kernel;
        if (typenum == work_type(*k)) {
            if ((*k)->extended) {
                return (*k)->lut ? WITH_X87 : RULE_LONGDOUBLE;
            }
            return (*k)->lut ? WITH_F64 : RULE_DOUBLE;
        }
    }
    PyErr_SetString(PyExc_TypeError, "the work arrays do not match the kernel given");
    return -1;
}

/* `obj` as a borrowed, well-behaved C-contiguous array with `ndim`
 * dimensions, of `typenum` (-1: float32, float64 or longdouble), or NULL
 * with TypeError. */
static PyArrayObject *
work_array(PyObject *obj, int ndim, int typenum, int writeable, const char *what)
{
    PyArrayObject *a = (PyArrayObject *)obj;
    if (!PyArray_Check(obj) || PyArray_NDIM(a) != ndim ||
        !(writeable ? PyArray_ISCARRAY(a) : PyArray_ISCARRAY_RO(a))) {
        PyErr_Format(PyExc_TypeError, "%s must be a %s%d-D C-contiguous array", what,
                     writeable ? "writeable " : "", ndim);
        return NULL;
    }
    const int type = PyArray_TYPE(a);
    if (typenum >= 0 ? type != typenum
                     : type != NPY_FLOAT && type != NPY_DOUBLE && type != NPY_LONGDOUBLE) {
        PyErr_Format(PyExc_TypeError, "%s has the wrong dtype", what);
        return NULL;
    }
    return a;
}

/* ql(d, e, ZT, max_sweeps, eps, kernel) */
static PyObject *
module_ql(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "ql(d, e, ZT, max_sweeps, eps, kernel) takes six arguments");
        return NULL;
    }
    PyArrayObject *d = work_array(args[0], 1, -1, 1, "d");
    if (d == NULL) {
        return NULL;
    }
    const int typenum = PyArray_TYPE(d);
    PyArrayObject *e = work_array(args[1], 1, typenum, 1, "e");
    PyArrayObject *zt = e == NULL ? NULL : work_array(args[2], 2, typenum, 1, "ZT");
    if (zt == NULL) {
        return NULL;
    }
    const npy_intp n = PyArray_DIM(d, 0);
    if (PyArray_DIM(e, 0) != n || PyArray_DIM(zt, 0) != n) {
        PyErr_SetString(PyExc_ValueError, "e and the rows of ZT must be as many as d");
        return NULL;
    }
    const long max_sweeps = PyLong_AsLong(args[3]);
    const double eps = PyFloat_AsDouble(args[4]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    Kernel *k;
    const int which = instance_of(args[5], typenum, &k);
    if (which < 0) {
        return NULL;
    }
    const Tables t = k != NULL ? tables_of(k) : (Tables){NULL, NULL, NULL, 0, NULL};
    Tri tri = {
        .q = {.t = &t, .max_sweeps = max_sweeps, .eps = eps, .floor = eps > 1e-30 ? eps : 1e-30},
        .rnd = {k, &t, {0, 0}},
    };
    ql_of[which](&tri, PyArray_BYTES(d), PyArray_BYTES(e), PyArray_BYTES(zt), n,
                 PyArray_DIM(zt, 1));
    const Ql *q = &tri.q;
    return Py_BuildValue("(KinKK)", q->ops, q->status, (Py_ssize_t)q->low, q->restarts,
                         q->rotations);
}

/* tridiagonalize(AQ, sequential, kernel) */
static PyObject *
module_tridiagonalize(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "tridiagonalize(AQ, sequential, kernel) takes three arguments");
        return NULL;
    }
    PyArrayObject *aq = work_array(args[0], 3, -1, 1, "AQ");
    if (aq == NULL) {
        return NULL;
    }
    const npy_intp n = PyArray_DIM(aq, 1);
    if (PyArray_DIM(aq, 0) != 2 || PyArray_DIM(aq, 2) != n) {
        PyErr_SetString(PyExc_ValueError, "AQ must be a (2, n, n) stack");
        return NULL;
    }
    const int sequential = PyObject_IsTrue(args[1]);
    if (sequential < 0) {
        return NULL;
    }
    Kernel *k;
    const int which = instance_of(args[2], PyArray_TYPE(aq), &k);
    if (which < 0) {
        return NULL;
    }
    const Tables t = k != NULL ? tables_of(k) : (Tables){NULL, NULL, NULL, 0, NULL};
    Tri tri = {
        .q = {.t = &t},
        .rnd = {k, &t, {0, 0}},
        .sequential = sequential,
        .first_nonfinite = -1,
    };
    /* the stack's 2n rows of a pairwise sum, each of n products */
    const npy_intp itemsize = PyArray_ITEMSIZE(aq), rows = 2 * n;
    char *scratch = PyMem_Malloc((size_t)((2 * n * n + 7 * n + rows * ((n + 1) / 2)) * itemsize) + 1);
    tri.seg.from = PyMem_Malloc((size_t)(3 * rows + 1) * sizeof(npy_intp));
    PyObject *res = NULL;
    if (scratch == NULL || tri.seg.from == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    tri.seg.off = tri.seg.from + rows;
    tri.seg.len = tri.seg.off + rows;
    tri.work = scratch + (2 * n * n + 7 * n) * itemsize;
    tridiagonalize_of[which](&tri, PyArray_BYTES(aq), n, scratch);
    if (tri.first_nonfinite < 0) {
        res = Py_BuildValue("(KnO)", tri.q.ops, tri.skipped, Py_None);
    }
    else {
        res = Py_BuildValue("(Knn)", tri.q.ops, tri.skipped, tri.first_nonfinite);
    }

done:
    PyMem_Free(tri.seg.from);
    PyMem_Free(scratch);
    return res;
}

/* reduce(values, indptr, sequential, kernel) */
static PyObject *
module_reduce(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "reduce(values, indptr, sequential, kernel) takes four arguments");
        return NULL;
    }
    if (!PyArray_Check(args[0]) || PyArray_NDIM((PyArrayObject *)args[0]) < 1) {
        PyErr_SetString(PyExc_TypeError, "values must be an array of at least one dimension");
        return NULL;
    }
    const int typenum = PyArray_TYPE((PyArrayObject *)args[0]);
    const int sequential = PyObject_IsTrue(args[2]);
    if (sequential < 0) {
        return NULL;
    }
    Kernel *k;
    const int which = instance_of(args[3], typenum, &k);
    if (which < 0) {
        return NULL;
    }
    /* read in place when C-contiguous (a contiguous copy otherwise) */
    PyArrayObject *in = (PyArrayObject *)PyArray_FromAny(args[0], PyArray_DescrFromType(typenum), 1,
                                                         0, NPY_ARRAY_CARRAY_RO, NULL);
    if (in == NULL) {
        return NULL;
    }
    const Tables t = k != NULL ? tables_of(k) : (Tables){NULL, NULL, NULL, 0, NULL};
    Tri tri = {
        .q = {.t = &t},
        .rnd = {k, &t, {0, 0}},
        .sequential = sequential,
    };
    PyObject *res = NULL;
    npy_intp size;
    if (segments_of(in, args[1], &tri.seg, &size) < 0) {
        goto done;
    }
    tri.work = PyMem_Malloc((size_t)(size * PyArray_ITEMSIZE(in)) + 1);
    if (tri.work == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    res = PyArray_ZEROS(1, &tri.seg.count, typenum, 0);
    const int vector = args[1] == Py_None && PyArray_NDIM(in) == 1;
    if (res != NULL) {
        reduce_of[which](&tri, PyArray_BYTES(in), vector, PyArray_BYTES((PyArrayObject *)res));
    }

done:
    PyMem_Free(tri.seg.from);
    PyMem_Free(tri.work);
    Py_DECREF(in);
    return res;
}

/* `obj` as a borrowed 1-D C-contiguous intp array of `len` entries (-1:
 * any), or NULL with TypeError or ValueError. */
static PyArrayObject *
index_array(PyObject *obj, npy_intp len, const char *what)
{
    PyArrayObject *a = (PyArrayObject *)obj;
    if (!PyArray_Check(obj) || PyArray_NDIM(a) != 1 || !PyArray_ISCARRAY_RO(a) ||
        PyArray_TYPE(a) != NPY_INTP) {
        PyErr_Format(PyExc_TypeError, "%s must be a 1-D C-contiguous intp array", what);
        return NULL;
    }
    if (len >= 0 && PyArray_DIM(a, 0) != len) {
        PyErr_Format(PyExc_ValueError, "%s has the wrong length", what);
        return NULL;
    }
    return a;
}

/* The CSR matrix `(indptr, indices, data)` of order `n` in the work type
 * `typenum` into `a`, its row pointer and column indices checked; sets
 * `*level` to the work-buffer values of a pairwise row sum.  -1 with an
 * exception otherwise. */
static int
csr_matrix(PyObject *csr, npy_intp n, int typenum, Arn *a, npy_intp *level)
{
    if (!PyTuple_Check(csr) || PyTuple_GET_SIZE(csr) != 3) {
        PyErr_SetString(PyExc_TypeError, "csr must be None or a tuple (indptr, indices, data)");
        return -1;
    }
    PyArrayObject *indptr = index_array(PyTuple_GET_ITEM(csr, 0), n + 1, "indptr");
    PyArrayObject *indices = indptr == NULL ? NULL : index_array(PyTuple_GET_ITEM(csr, 1), -1, "indices");
    PyArrayObject *data = indices == NULL ? NULL : work_array(PyTuple_GET_ITEM(csr, 2), 1, typenum, 0, "data");
    if (data == NULL) {
        return -1;
    }
    const npy_intp nnz = PyArray_DIM(data, 0);
    const npy_intp *p = (const npy_intp *)PyArray_DATA(indptr);
    const npy_intp *col = (const npy_intp *)PyArray_DATA(indices);
    int bad = PyArray_DIM(indices, 0) != nnz || p[0] != 0 || p[n] != nnz;
    *level = 0;
    for (npy_intp r = 0; r < n && !bad; r++) {
        bad = p[r + 1] < p[r];
        *level += (p[r + 1] - p[r] + 1) / 2;
    }
    for (npy_intp i = 0; i < nnz && !bad; i++) {
        bad = col[i] < 0 || col[i] >= n;
    }
    if (bad) {
        PyErr_SetString(PyExc_ValueError, "csr is not a matrix of the basis's order");
        return -1;
    }
    a->indptr = p;
    a->indices = col;
    a->data = PyArray_BYTES(data);
    a->nnz = nnz;
    return 0;
}

/* arnoldi(V, S, b, v, start, csr, sequential, eta, kernel) */
static PyObject *
module_arnoldi(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 9) {
        PyErr_SetString(PyExc_TypeError,
                        "arnoldi(V, S, b, v, start, csr, sequential, eta, kernel) takes nine "
                        "arguments");
        return NULL;
    }
    PyArrayObject *V = work_array(args[0], 2, -1, 1, "V");
    if (V == NULL) {
        return NULL;
    }
    const int typenum = PyArray_TYPE(V);
    const npy_intp n = PyArray_DIM(V, 0), m = PyArray_DIM(V, 1);
    PyArrayObject *v = work_array(args[3], 1, typenum, 1, "v");
    if (v == NULL) {
        return NULL;
    }
    if (PyArray_DIM(v, 0) != n) {
        PyErr_SetString(PyExc_ValueError, "v must have a value per row of V");
        return NULL;
    }
    const Py_ssize_t start = PyLong_AsSsize_t(args[4]);
    const int sequential = PyObject_IsTrue(args[6]);
    const double eta = PyFloat_AsDouble(args[7]);
    if (PyErr_Occurred() || sequential < 0) {
        return NULL;
    }
    Kernel *k;
    const int which = instance_of(args[8], typenum, &k);
    if (which < 0) {
        return NULL;
    }
    const Tables t = k != NULL ? tables_of(k) : (Tables){NULL, NULL, NULL, 0, NULL};
    Arn a = {
        .r = {.q = {.t = &t}, .rnd = {k, &t, {0, 0}}, .sequential = sequential},
        .eta = eta,
    };
    PyArrayObject *S = NULL, *b = NULL;
    npy_intp level = 0;
    if (args[5] == Py_None) {
        if (start < 1 || start > m) {
            PyErr_SetString(PyExc_ValueError, "start must name 1 to m columns of V");
            return NULL;
        }
    }
    else {
        S = work_array(args[1], 2, typenum, 1, "S");
        b = S == NULL ? NULL : work_array(args[2], 1, typenum, 1, "b");
        if (b == NULL) {
            return NULL;
        }
        if (PyArray_DIM(S, 0) != m || PyArray_DIM(S, 1) != m || PyArray_DIM(b, 0) != m) {
            PyErr_SetString(PyExc_ValueError, "S must be (m, m) and b (m,) for an (n, m) V");
            return NULL;
        }
        if (start < 0 || start > m) {
            PyErr_SetString(PyExc_ValueError, "start must be a column of V, or m");
            return NULL;
        }
        if (csr_matrix(args[5], n, typenum, &a, &level) < 0) {
            return NULL;
        }
    }
    /* the pairwise work buffer of the widest sum: the rows of V h, of
     * V^T w, or of the matrix */
    const npy_intp rows = n > m ? n : m, itemsize = PyArray_ITEMSIZE(V);
    const npy_intp gemv = n * ((m + 1) / 2), gemv_t = m * ((n + 1) / 2);
    level = level > gemv ? level : gemv;
    level = level > gemv_t ? level : gemv_t;
    const npy_intp products = a.nnz > n * m ? a.nnz : n * m;
    char *scratch = PyMem_Malloc((size_t)((products + 4 * n + 2 * m + level) * itemsize) + 1);
    a.r.seg.from = PyMem_Malloc((size_t)(3 * rows + 1) * sizeof(npy_intp));
    PyObject *res = NULL;
    if (scratch == NULL || a.r.seg.from == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    a.r.seg.off = a.r.seg.from + rows;
    a.r.seg.len = a.r.seg.off + rows;
    const ArnScratch s = {
        .P = scratch,
        .w = scratch + products * itemsize,
        .gv = scratch + (products + n) * itemsize,
        .xs = scratch + (products + 2 * n) * itemsize,
        .p = scratch + (products + 3 * n) * itemsize,
        .h = scratch + (products + 4 * n) * itemsize,
        .h2 = scratch + (products + 4 * n + m) * itemsize,
    };
    a.r.work = scratch + (products + 4 * n + 2 * m) * itemsize;
    npy_intp stop;
    const int status = arnoldi_of[which](&a, PyArray_BYTES(V), S == NULL ? NULL : PyArray_BYTES(S),
                                         b == NULL ? NULL : PyArray_BYTES(b), PyArray_BYTES(v), n,
                                         m, start, &stop, &s);
    res = Py_BuildValue("(Kinn)", a.r.q.ops, status, stop, a.dgks);

done:
    PyMem_Free(a.r.seg.from);
    PyMem_Free(scratch);
    return res;
}

static PyObject *
Kernel_take_counts(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    PyObject *res = Py_BuildValue(
        "(KKKK)", k->counts[CALLS], k->counts[ELEMENTS], k->counts[HANDED_BACK], k->counts[ZEROS]);
    if (res != NULL) {
        memset(k->counts, 0, sizeof k->counts);
    }
    return res;
}

static void
Kernel_dealloc(Kernel *k)
{
    for (int i = 0; i < N_LUTS; i++) {
        PyBuffer_Release(&k->luts[i]);
    }
    for (int i = 0; i < N_RULE_BUFS; i++) {
        PyBuffer_Release(&k->rule.bufs[i]);
    }
    PyBuffer_Release(&k->counting);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

/* Read the 1-D C-contiguous table `obj` of `itemsize`-byte items in place
 * into `view` (work values of format `fmt`, or int64 codes and exponents
 * with `fmt` NULL); returns its length, or -1 with ValueError. */
static npy_intp
rule_table(PyObject *obj, Py_buffer *view, Py_ssize_t itemsize, const char *fmt)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
        return -1;
    }
    const char *got = view->format != NULL ? view->format : "B";
    if (view->ndim != 1 || view->itemsize != itemsize ||
        (fmt != NULL ? strcmp(got, fmt) != 0 : strcmp(got, "l") != 0 && strcmp(got, "q") != 0)) {
        PyErr_Format(PyExc_ValueError, "a rule table must be a 1-D array of %s",
                     fmt == NULL ? "int64" : fmt);
        return -1;
    }
    return view->len / itemsize;
}

/* A work value of a rule (a float, or a longdouble scalar exactly). */
static int
rule_value(PyObject *obj, npy_longdouble *out)
{
    if (PyArray_IsScalar(obj, LongDouble)) {
        *out = PyArrayScalar_VAL(obj, LongDouble);
        return 0;
    }
    const double x = PyFloat_AsDouble(obj);
    if (x == -1.0 && PyErr_Occurred()) {
        return -1;
    }
    *out = x;
    return 0;
}

/* Parse the rule tuple of `Kernel(...)` into `r`:
 *   (RULE_TABLE, nonfinite, mags, codes, over, top, floor)
 *   (RULE_QUANTUM, nonfinite, lo_mags, lo_codes, hi_mags, hi_codes, qexps, qbase, minpos,
 *    maxpos, lo, hi)
 * The tables and the bounds are of the kernel's work type; `qexps` must
 * cover every `frexp` exponent of a finite work value. */
static int
parse_rule(PyObject *spec, int extended, Rule *r)
{
    const Py_ssize_t size = PyTuple_Check(spec) ? PyTuple_GET_SIZE(spec) : -1;
    const long kind = size > 1 ? PyLong_AsLong(PyTuple_GET_ITEM(spec, 0)) : -1;
    const long nonfinite = size > 1 ? PyLong_AsLong(PyTuple_GET_ITEM(spec, 1)) : -1;
    if (PyErr_Occurred()) {
        return -1;
    }
    static const Py_ssize_t sizes[] = {7, 12};
    if (kind < RULE_TABLE || kind > RULE_QUANTUM || size != sizes[kind] ||
        (extended && kind != RULE_QUANTUM) || nonfinite < NONFINITE_KEEP ||
        nonfinite > NONFINITE_RULE) {
        PyErr_SetString(PyExc_ValueError, "rule: not a rule of this kernel's work type");
        return -1;
    }
    r->kind = (int)kind;
    r->nonfinite = (int)nonfinite;
    PyObject *const *item = &PyTuple_GET_ITEM(spec, 2);
    const Py_ssize_t wsize = extended ? NPY_SIZEOF_LONGDOUBLE : 8;
    const char *wfmt = extended ? "g" : "d";
    const int tables = kind == RULE_TABLE ? 1 : 2;
    for (int i = 0; i < tables; i++) {
        const npy_intp n = rule_table(item[2 * i], &r->bufs[2 * i], wsize, wfmt);
        if (n < 0 || rule_table(item[2 * i + 1], &r->bufs[2 * i + 1], 8, NULL) != n) {
            if (!PyErr_Occurred()) {
                PyErr_SetString(PyExc_ValueError, "rule: magnitudes and codes differ in length");
            }
            return -1;
        }
        *(i ? &r->n_hi : &r->n_lo) = n;
    }
    if (kind == RULE_TABLE) {
        if (r->n_lo < 1) {
            PyErr_SetString(PyExc_ValueError, "rule: the magnitude table is empty");
            return -1;
        }
        return rule_value(item[2], &r->hi) < 0 || rule_value(item[3], &r->maxpos) < 0 ||
                       rule_value(item[4], &r->minpos) < 0
                   ? -1
                   : 0;
    }
    const npy_intp n = rule_table(item[4], &r->bufs[QEXPS], 8, NULL);
    r->qbase = PyLong_AsLong(item[5]);
    if (n < 0 || PyErr_Occurred()) {
        return -1;
    }
    /* the frexp exponents of the smallest subnormal and of the largest value */
    const long first = extended ? LDBL_MIN_EXP - LDBL_MANT_DIG + 1 : DBL_MIN_EXP - DBL_MANT_DIG + 1;
    const long last = extended ? LDBL_MAX_EXP : DBL_MAX_EXP;
    if (r->qbase > first || r->qbase + n - 1 < last) {
        PyErr_SetString(PyExc_ValueError, "rule: qexps does not cover the work exponents");
        return -1;
    }
    return rule_value(item[6], &r->minpos) < 0 || rule_value(item[7], &r->maxpos) < 0 ||
                   rule_value(item[8], &r->lo) < 0 || rule_value(item[9], &r->hi) < 0
               ? -1
               : 0;
}

static PyObject *
Kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"shift",         "bias",     "special", "extended",
                             "unsigned_zero", "counting", "rule",    NULL};
    PyObject *luts[N_LUTS], *counting, *rule;
    int extended, unsigned_zero;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOppOO", kwlist, &luts[SHIFT], &luts[BIAS],
                                     &luts[SPECIAL], &extended, &unsigned_zero, &counting,
                                     &rule)) {
        return NULL;
    }
    const int lut = luts[SHIFT] != Py_None;
    if ((luts[BIAS] != Py_None) != lut || (luts[SPECIAL] != Py_None) != lut) {
        PyErr_SetString(PyExc_ValueError, "the lookup tables go together");
        return NULL;
    }
    if (extended && lut && !X87_LONGDOUBLE) {
        PyErr_SetString(PyExc_ValueError, "longdouble is not the x87 layout on this host");
        return NULL;
    }
    Kernel *k = (Kernel *)type->tp_alloc(type, 0);
    if (k == NULL) {
        return NULL;
    }
    k->extended = extended;
    k->lut = lut;
    k->unsigned_zero = unsigned_zero;
    /* one entry per sign + exponent field */
    const Py_ssize_t entries = (Py_ssize_t)1 << (extended ? 16 : 12);
    const Py_ssize_t itemsize[N_LUTS] = {8, 8, 1};
    for (int i = 0; i < N_LUTS && lut; i++) {
        if (PyObject_GetBuffer(luts[i], &k->luts[i], PyBUF_C_CONTIGUOUS) < 0) {
            goto fail;
        }
        if (k->luts[i].len != entries * itemsize[i]) {
            PyErr_Format(PyExc_ValueError, "lookup table %d holds %zd bytes, expected %zd", i,
                         k->luts[i].len, entries * itemsize[i]);
            goto fail;
        }
    }
    if (PyObject_GetBuffer(counting, &k->counting, PyBUF_SIMPLE) < 0) {
        goto fail;
    }
    if (k->counting.len < 1) {
        PyErr_SetString(PyExc_ValueError, "the counting flag needs one byte");
        goto fail;
    }
    if (parse_rule(rule, extended, &k->rule) < 0) {
        goto fail;
    }
    return (PyObject *)k;

fail:
    Py_DECREF(k);
    return NULL;
}

static PyMethodDef Kernel_methods[] = {
    {"round_one", (PyCFunction)Kernel_round_one, METH_O,
     "round_one(value) -> the rounded work-dtype scalar, or None when the value is not a "
     "float of the work layout"},
    {"round_into", (PyCFunction)(void (*)(void))Kernel_round_into, METH_FASTCALL,
     "round_into(src, dst) -> None; rounds src into dst"},
    {"take_counts", (PyCFunction)Kernel_take_counts, METH_NOARGS,
     "take_counts() -> (calls, elements, handed_back, zeros), then reset them"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.arithmetic._rounding.Kernel",
    .tp_basicsize = sizeof(Kernel),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Kernel(shift, bias, special, extended, unsigned_zero, counting, rule): "
              "round-to-nearest-even over one format's binade lookup tables (None: none), "
              "and its rule over the values they do not serve",
    .tp_new = Kernel_new,
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_methods = Kernel_methods,
};

static PyMethodDef module_methods[] = {
    {"reduce", (PyCFunction)(void (*)(void))module_reduce, METH_FASTCALL,
     "reduce(values, indptr, sequential, kernel) -> the rounded sum of each segment of "
     "values: pairwise, or left to right"},
    {"ql", (PyCFunction)(void (*)(void))module_ql, METH_FASTCALL,
     "ql(d, e, ZT, max_sweeps, eps, kernel) -> (ops, status, low, restarts, rotations); the "
     "QL iteration on d and e in place, each Givens step applied to the rows of ZT"},
    {"tridiagonalize", (PyCFunction)(void (*)(void))module_tridiagonalize, METH_FASTCALL,
     "tridiagonalize(AQ, sequential, kernel) -> (ops, skipped, first_nonfinite); the "
     "Householder reduction of the stack [A; Q] in place"},
    {"arnoldi", (PyCFunction)(void (*)(void))module_arnoldi, METH_FASTCALL,
     "arnoldi(V, S, b, v, start, csr, sequential, eta, kernel) -> (ops, status, stop, dgks); "
     "Arnoldi columns start.. of V, S and b from the next vector v, or with csr None v "
     "orthonormalised against the first start columns of V, in place"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef rounding_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_rounding",
    .m_doc = "Compiled round-to-nearest-even kernels of the emulated number formats.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__rounding(void)
{
    import_array();
    if (PyType_Ready(&KernelType) < 0) {
        return NULL;
    }
    PyObject *module = PyModule_Create(&rounding_module);
    if (module == NULL) {
        return NULL;
    }
    Py_INCREF(&KernelType);
    if (PyModule_AddObject(module, "Kernel", (PyObject *)&KernelType) < 0) {
        Py_DECREF(&KernelType);
        Py_DECREF(module);
        return NULL;
    }
    OperandError = PyErr_NewExceptionWithDoc(
        "repro.arithmetic._rounding.OperandError",
        "round_into cannot take its operands (not C-contiguous, another format, "
        "lengths that differ or a partial overlap); nothing was written",
        PyExc_BufferError, NULL);
    if (PyModule_AddObjectRef(module, "OperandError", OperandError) < 0 ||
        PyModule_AddIntConstant(module, "RULE_TABLE", RULE_TABLE) < 0 ||
        PyModule_AddIntConstant(module, "RULE_QUANTUM", RULE_QUANTUM) < 0 ||
        PyModule_AddIntConstant(module, "NONFINITE_KEEP", NONFINITE_KEEP) < 0 ||
        PyModule_AddIntConstant(module, "NONFINITE_NAR", NONFINITE_NAR) < 0 ||
        PyModule_AddIntConstant(module, "NONFINITE_RULE", NONFINITE_RULE) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
