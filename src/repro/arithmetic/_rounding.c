/*
 * Compiled round-to-nearest-even kernels of the emulated number formats.
 *
 * One `Kernel` object serves one format.  It reads, in place, the three
 * lookup tables `repro.arithmetic.bitkernels.BitKernel` derives from the
 * format's binade rule, indexed by the sign + exponent field of the work
 * word: the truncation shift `s`, the rounding bias `2^(s-1) - 1` and a
 * special code (0: served, 1: hand back, 2: copy through unchanged).  A
 * served value rounds with the integer transform
 *
 *     ((u + bias + ((u >> s) & 1)) >> s) << s
 *
 * which breaks ties towards the even retained word.  Two word layouts are
 * supported:
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
 * Each layout has one step that loads one value, rounds it, stores it
 * (into the slot it came from, or into another) and returns SERVED, ZERO,
 * RESOLVED or HAND_BACK: `step_f64` and `step_x87`; the native dtypes have
 * `step_none`, which leaves the value as it is, and an emulated format no
 * kernel serves has `step_all`, which hands every value back.  Every entry
 * below rounds through these steps.  In a special binade the step rounds
 * exact zeros itself (`-0.0` becomes `+0.0` for formats with one unsigned
 * zero), and every other finite value (extreme regimes, overflow bands,
 * deep subnormals) with the kernel's finite rule, the format's own rounding
 * rule restated here (see `Rule`): RESOLVED.  Only infinities and NaN are
 * handed back: they stay unrounded in their slot, and once a pass over the
 * buffer ends, the values the pass handed back go to one call of the
 * caller's `resolve`, which rounds them with the format's analytic kernel;
 * the kernel stores its results in place (x87 values with their padding
 * zeroed).
 *
 * The finite rules follow the format definitions (posit-2022, takum,
 * OFP8, IEEE 754) and the analytic kernels of `repro.arithmetic`
 * comparison for comparison, in the work type (`double`, or the x87
 * `long double` with `frexpl`, `ldexpl` and `rintl`), so they round
 * bit-identically to them:
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
 * Entries:
 *   Kernel.round_one(value)      one float64 / longdouble scalar (or 0-d
 *                                array of the work type) -> the rounded
 *                                NumPy scalar, or None when the value is
 *                                handed back (an infinity or NaN, or not a
 *                                float of the work layout);
 *   Kernel.round_into(src, dst, resolve)
 *                                rounds the C-contiguous buffer `src` into
 *                                `dst` (same length; may be `src` itself)
 *                                in one pass and returns None.
 *                                Non-contiguous, foreign-format or
 *                                partially overlapping buffers raise
 *                                OperandError (a BufferError) before
 *                                anything is written; an exception of
 *                                `resolve` propagates as it is;
 *   Kernel.take_counts()         (calls, elements, handed_back, zeros) of
 *                                the passes since the last call, counted
 *                                while the telemetry flag byte is set (the
 *                                values a finite rule rounded count as
 *                                handed back);
 *   reduce(values, indptr, sequential, kernel, resolve_scalar, resolve_array)
 *                                the rounded sum of each segment of
 *                                `values` (see below) as a fresh 1-D
 *                                array: pairwise, or with `sequential`
 *                                true left to right;
 *   ql(d, e, max_sweeps, eps, kernel, resolve)
 *                                the implicit-shift QL iteration of the
 *                                projected eigensolver on the diagonal `d`
 *                                and the subdiagonal `e` (as long as `d`)
 *                                in place -> (ops, status, low, restarts,
 *                                cols, cs, ss): the rounded-op tally, 0 or
 *                                the failure (1: a non-finite value, 2: no
 *                                deflation of eigenvalue `low` within
 *                                `max_sweeps` sweeps), the steps that met a
 *                                zero rotation radius, and the Givens steps
 *                                (i, c, s) recorded for the eigenvectors;
 *   rotate(ZT, cols, cs, ss, kernel, resolve)
 *                                those Givens steps applied to the rows of
 *                                `ZT` in place, wave by wave -> the number
 *                                of waves;
 *   tridiagonalize(AQ, sequential, kernel, resolve_scalar, resolve_array)
 *                                the Householder reduction of the stacked
 *                                `(2, n, n)` buffer `[A; Q]` in place (A
 *                                symmetric, Q the identity on entry) ->
 *                                (ops, skipped, first_nonfinite): the
 *                                rounded-op tally, the reflectors skipped
 *                                (beta 0) and the first step after which
 *                                the stack held a non-finite value (None:
 *                                no step).
 *
 * The module entries round through `kernel` (a Kernel of the work type of
 * the arrays), or, with `kernel` None, not at all (the resolvers None:
 * float32, float64 and longdouble arrays of the native contexts) or by
 * handing every value to the resolvers (an emulated format without a
 * kernel, or the bit-kernel switch off).  A scalar op resolves a
 * handed-back value at once, one value per call of the scalar resolver
 * (`ql`'s `resolve`), since the next op reads it.  An array op rounds in
 * one pass, as `round_into` would round it, resolved in one call of the
 * array resolver (`rotate`'s `resolve`) and counted as one call of the
 * kernel; `rotate` rounds each wave in two passes.  `tridiagonalize`
 * rounds each elementwise op of the reduction in one pass and each dot
 * product or matrix-vector product as `reduce` does.  `ql`, `rotate` and
 * `tridiagonalize` take well-behaved C-contiguous arrays only, and write
 * in place; `reduce` only reads `values`.
 *
 * A reduction sums each segment of `values`: the segments are the rows
 * along the last axis of `values` (`indptr` None), or the CSR segments
 * `values[indptr[r]:indptr[r + 1]]` of a 1-D `values`; empty segments sum
 * to zero.  The pairwise order sums each segment as a balanced tree: each
 * tree level adds partial `2i` to partial `2i + 1`, rounds every sum, and
 * carries an odd leftover unrounded into the next level.  One level is
 * computed for every segment first; the sums it handed back then go to one
 * call of the array resolver, and only then does the next level start.
 * The first level writes its sums into a work buffer of half the size,
 * where the later levels reduce in place.  The sequential order adds
 * column `j` of every segment longer than `j` in one pass, left to right;
 * the segment of a 1-D `values` (`indptr` None) instead takes one scalar
 * op, resolved at once, per addition.  Every pass (a tree level or a
 * column) is counted as one call of the kernel, with its sums, hand-backs
 * and zeros, as `round_into` would count rounding them in one call.
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

#define SPECIAL_RESOLVE 1
#define SPECIAL_IDENTITY 2

/* outcome of rounding one value */
#define SERVED 0
#define ZERO 1
#define HAND_BACK 2
#define RESOLVED 3

/* bytes of one x87 extended value in memory */
#define X87_SLOT 16
/* whether npy_longdouble is the x87 extended value in a 16-byte slot */
#define X87_LONGDOUBLE (LDBL_MANT_DIG == 64 && NPY_SIZEOF_LONGDOUBLE == X87_SLOT)

/* OperandError: the operands `round_into` refuses, before it writes */
static PyObject *OperandError;

static PyTypeObject KernelType;

enum { SHIFT, BIAS, SPECIAL, N_LUTS };
enum { CALLS, ELEMENTS, HANDED_BACK, ZEROS, N_COUNTS };
enum { RULE_TABLE, RULE_QUANTUM };
/* the buffers of a rule: the magnitudes and codes of the table (RULE_TABLE)
 * or of the `lo` and `hi` extreme tables (RULE_QUANTUM), and the quantum
 * exponents */
enum { LO_MAGS, LO_CODES, HI_MAGS, HI_CODES, QEXPS, N_RULE_BUFS };

/* How a kernel rounds the finite non-zero values of its special binades
 * (see the header); the bounds are work values, exact in `long double`. */
typedef struct {
    int kind;
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
    int unsigned_zero;
    Rule rule;
    unsigned long long counts[N_COUNTS];
} Kernel;

/* the lookup tables of one kernel, read in place */
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
NEAREST(nearest_x87, npy_longdouble, fabsl)

/* The finite non-zero value `v` of type `T` rounded by the RULE_QUANTUM
 * rule `r`. */
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
/* the extended kernels' only rule */
QUANTUM(finite_x87, npy_longdouble, nearest_x87, fabsl, frexpl, ldexpl, rintl)

/* The finite non-zero float64 value `v` rounded by the rule `r`. */
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

/* Round the float64 word in `in` into `out` (which may be `in`); a
 * handed-back value is stored as it is. */
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
    else if (special != SPECIAL_IDENTITY) {
        if (!(u << 1)) {
            outcome = ZERO;
            if (t->unsigned_zero) {
                u = 0;
            }
        }
        else if ((idx & 0x7FF) == 0x7FF) {
            outcome = HAND_BACK;
        }
        else {
            double x;
            memcpy(&x, &u, sizeof x);
            x = finite_f64(t->rule, x);
            memcpy(&u, &x, sizeof u);
            outcome = RESOLVED;
        }
    }
    memcpy(out, &u, sizeof u);
    return outcome;
}

/* Round the x87 extended value in the 16-byte slot `in` into `out` (which
 * may be `in`).  The padding is zeroed whatever the outcome; a handed-back
 * value keeps its words. */
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
    else if (special != SPECIAL_IDENTITY) {
        if (!w[0] && !(w[1] & 0x7FFF)) {
            outcome = ZERO;
            if (t->unsigned_zero) {
                w[1] = 0;
            }
        }
        else if ((w[1] & 0x7FFF) == 0x7FFF) {
            outcome = HAND_BACK;
        }
        else {
            npy_longdouble x;
            memcpy(&x, w, X87_SLOT);
            x = finite_x87(t->rule, x);
            memcpy(w, &x, X87_SLOT);
            w[1] &= 0xFFFF;
            outcome = RESOLVED;
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

/* The step of an emulated format no kernel serves: every value is handed
 * back, unchanged, for the caller's resolver to round; in place only. */
static inline int
step_all(const Tables *Py_UNUSED(t), const void *Py_UNUSED(in), void *Py_UNUSED(out))
{
    return HAND_BACK;
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
        if (step_x87(&t, &x, &x) == HAND_BACK) {
            Py_RETURN_NONE;
        }
        PyObject *res = PyArrayScalar_New(LongDouble);
        if (res != NULL) {
            memcpy(&PyArrayScalar_VAL(res, LongDouble), &x, X87_SLOT);
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
    if (step_f64(&t, &x, &x) == HAND_BACK) {
        Py_RETURN_NONE;
    }
    PyObject *res = PyArrayScalar_New(Double);
    if (res != NULL) {
        PyArrayScalar_VAL(res, Double) = x;
    }
    return res;
}

/* The outcomes of one rounding pass: the zeros it rounded, the values its
 * finite rule rounded and the positions it handed back (grown on demand). */
typedef struct {
    npy_intp *pos;
    npy_intp count;
    npy_intp capacity;
    unsigned long long zeros;
    unsigned long long resolved;
} Pass;

/* Record the outcome of rounding the value at position `i`. */
static inline int
note(Pass *pass, int outcome, npy_intp i)
{
    if (outcome == ZERO) {
        pass->zeros++;
    }
    else if (outcome == RESOLVED) {
        pass->resolved++;
    }
    else if (outcome == HAND_BACK) {
        if (pass->count == pass->capacity) {
            const npy_intp capacity = pass->capacity ? 2 * pass->capacity : 64;
            npy_intp *pos = PyMem_Realloc(pass->pos, (size_t)capacity * sizeof(npy_intp));
            if (pos == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            pass->pos = pos;
            pass->capacity = capacity;
        }
        pass->pos[pass->count++] = i;
    }
    return 0;
}

/* Round the values a pass over the `typenum` buffer `buf` handed back with
 * one `resolve` call and store them in place (x87 values with their padding
 * zeroed). */
static int
resolve_level(int typenum, char *buf, Pass *pass, PyObject *resolve)
{
    const npy_intp size = typenum == NPY_LONGDOUBLE ? NPY_SIZEOF_LONGDOUBLE : 8;
    const int x87 = typenum == NPY_LONGDOUBLE && X87_LONGDOUBLE;
    PyObject *handed = PyArray_SimpleNew(1, &pass->count, typenum);
    if (handed == NULL) {
        return -1;
    }
    char *src = PyArray_BYTES((PyArrayObject *)handed);
    for (npy_intp j = 0; j < pass->count; j++) {
        memcpy(src + j * size, buf + pass->pos[j] * size, (size_t)size);
    }
    PyObject *res = PyObject_CallOneArg(resolve, handed);
    Py_DECREF(handed);
    if (res == NULL) {
        return -1;
    }
    PyArrayObject *rounded =
        (PyArrayObject *)PyArray_FROMANY(res, typenum, 0, 0, NPY_ARRAY_CARRAY_RO);
    Py_DECREF(res);
    if (rounded == NULL) {
        return -1;
    }
    if (PyArray_SIZE(rounded) != pass->count) {
        PyErr_Format(PyExc_ValueError, "resolve returned %zd values for %zd", PyArray_SIZE(rounded),
                     pass->count);
        Py_DECREF(rounded);
        return -1;
    }
    const char *got = PyArray_BYTES(rounded);
    for (npy_intp j = 0; j < pass->count; j++) {
        char *dst = buf + pass->pos[j] * size;
        memcpy(dst, got + j * size, (size_t)size);
        if (x87) {
            ((uint64_t *)dst)[1] &= 0xFFFF;
        }
    }
    Py_DECREF(rounded);
    return 0;
}

/* Close a pass that rounded `n` values of the `typenum` buffer `buf`: count
 * it into `k` (if any) while the telemetry flag byte is set, the values its
 * finite rule rounded as handed back, resolve its hand-backs, and start
 * afresh. */
static int
end_pass(Kernel *k, int typenum, char *buf, npy_intp n, Pass *pass, PyObject *resolve)
{
    if (k != NULL && *(const char *)k->counting.buf) {
        k->counts[CALLS] += 1;
        k->counts[ELEMENTS] += (unsigned long long)n;
        k->counts[HANDED_BACK] += (unsigned long long)pass->count + pass->resolved;
        k->counts[ZEROS] += pass->zeros;
    }
    const int status = pass->count ? resolve_level(typenum, buf, pass, resolve) : 0;
    pass->count = 0;
    pass->zeros = 0;
    pass->resolved = 0;
    return status;
}

static int
check_buffer(const Kernel *k, const Py_buffer *view, const char *what)
{
    const char *want = k->extended ? "g" : "d";
    const Py_ssize_t size = k->extended ? X87_SLOT : 8;
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
    if (nargs != 3 || !PyCallable_Check(args[2])) {
        PyErr_SetString(PyExc_TypeError,
                        "round_into(src, dst, resolve) takes two buffers and a callable");
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
    Pass pass = {NULL, 0, 0, 0, 0};
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
    const int extended = k->extended;
    for (npy_intp i = 0; i < n; i++) {
        const int outcome = extended ? step_x87(&t, src + i * X87_SLOT, dst + i * X87_SLOT)
                                     : step_f64(&t, src + i * 8, dst + i * 8);
        if (note(&pass, outcome, i) < 0) {
            goto done;
        }
    }
    if (end_pass(k, work_type(k), dst, n, &pass, args[2]) == 0) {
        res = Py_NewRef(Py_None);
    }

done:
    PyMem_Free(pass.pos);
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
 * after the first level.  Returns the number of sums, or -1 on a memory
 * error; `pass` records the work-buffer positions of the sums handed back,
 * which stay unrounded. */
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
                if (note(pass, STEP(t, &d[i], &d[i]), off + i) < 0) {                           \
                    return -1;                                                                  \
                }                                                                               \
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
LEVEL(level_all_double, double, step_all)
LEVEL(level_all_longdouble, npy_longdouble, step_all)

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
/* The projected eigensolver: the QL recurrence and its wave rotations.      */

enum { QL_OK, QL_NONFINITE, QL_SWEEPS };

/* One `ql` call: its rounding, its limits, and what it found. */
typedef struct {
    const Tables *t;
    PyObject *resolve; /* rounds one handed-back scalar (NULL: native) */
    long max_sweeps;
    double eps;   /* deflation threshold */
    double floor; /* max(eps, 1e-30): the shift denominator that replaces 0 */
    unsigned long long ops;
    unsigned long long restarts; /* steps that met a zero rotation radius */
    int status;
    npy_intp low; /* the eigenvalue a failure was deflating */
    /* the recorded rotations (i, c, s) */
    npy_intp count;
    npy_intp capacity;
    npy_intp itemsize;
    npy_intp *cols;
    char *cs;
    char *ss;
} Ql;

/* Round the `typenum` scalar at `x`, which a step handed back, in place
 * with one call of `resolve` (a work-dtype scalar in, a number out). */
static int
resolve_scalar(PyObject *resolve, int typenum, void *x)
{
    PyArray_Descr *descr = PyArray_DescrFromType(typenum);
    PyObject *arg = PyArray_Scalar(x, descr, NULL);
    Py_DECREF(descr);
    if (arg == NULL) {
        return -1;
    }
    PyObject *res = PyObject_CallOneArg(resolve, arg);
    Py_DECREF(arg);
    if (res == NULL) {
        return -1;
    }
    int status = 0;
    if (typenum == NPY_DOUBLE && PyFloat_Check(res)) {
        *(double *)x = PyFloat_AS_DOUBLE(res);
    }
    else if (typenum == NPY_LONGDOUBLE && PyArray_IsScalar(res, LongDouble)) {
        *(npy_longdouble *)x = PyArrayScalar_VAL(res, LongDouble);
    }
    else {
        PyArrayObject *arr =
            (PyArrayObject *)PyArray_FROMANY(res, typenum, 0, 0, NPY_ARRAY_CARRAY_RO);
        if (arr == NULL) {
            status = -1;
        }
        else if (PyArray_SIZE(arr) != 1) {
            PyErr_SetString(PyExc_ValueError, "resolve returned more than one value");
            status = -1;
        }
        else {
            memcpy(x, PyArray_DATA(arr), (size_t)PyArray_ITEMSIZE(arr));
        }
        Py_XDECREF(arr);
    }
    Py_DECREF(res);
    return status;
}

/* Record the Givens step (i, c, s) of the eigenvector update. */
static int
record(Ql *q, npy_intp i, const void *c, const void *s)
{
    if (q->count == q->capacity) {
        const npy_intp capacity = q->capacity ? 2 * q->capacity : 64;
        npy_intp *cols = PyMem_Realloc(q->cols, (size_t)capacity * sizeof(npy_intp));
        if (cols != NULL) {
            q->cols = cols;
        }
        char *cs = PyMem_Realloc(q->cs, (size_t)(capacity * q->itemsize));
        if (cs != NULL) {
            q->cs = cs;
        }
        char *ss = PyMem_Realloc(q->ss, (size_t)(capacity * q->itemsize));
        if (ss != NULL) {
            q->ss = ss;
        }
        if (cols == NULL || cs == NULL || ss == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        q->capacity = capacity;
    }
    q->cols[q->count] = i;
    memcpy(q->cs + q->count * q->itemsize, c, (size_t)q->itemsize);
    memcpy(q->ss + q->count * q->itemsize, s, (size_t)q->itemsize);
    q->count++;
    return 0;
}

/* One `rotate` call: its rounding and the pass it is in. */
typedef struct {
    Kernel *k; /* counts the passes (NULL: none) */
    const Tables *t;
    PyObject *resolve; /* rounds the values a pass hands back (NULL: native) */
    Pass pass;
} Rot;

/* One `tridiagonalize` or `reduce` call: the rounding and tally of its
 * scalar ops (`q`), the rounding of its passes (`rot`), its scratch, and
 * what it found. */
typedef struct {
    Ql q;
    Rot rot;
    int sequential;
    Segments seg; /* the segments of a sum */
    char *work;   /* the level buffer of a pairwise sum */
    npy_intp skipped;
    npy_intp first_nonfinite; /* -1: none */
} Tri;

/* `var = expr`, rounded through the instance's `rs`; returns -1 from the
 * enclosing function when the resolver fails. */
#define RS(var, expr)                \
    do {                             \
        (var) = (expr);              \
        if (rs(q, &(var)) < 0) {     \
            return -1;               \
        }                            \
    } while (0)

/* The eigensolver and the reduction over elements of type `T` (NumPy type
 * `TYPENUM`), each op rounded by `STEP` and, when `STEP` hands the value
 * back, by the caller's resolver:
 *
 *   NAME_hypot   the scaled hypot `scale * sqrt(1 + (small / scale)^2)`,
 *                five rounded ops; NaN, zero and infinite operands return
 *                NaN, 0 and inf with no op;
 *   NAME_ql      the implicit-shift QL iteration on `d` and `e` in place,
 *                recording each Givens step (EISPACK tql2);
 *   NAME_rotate  the recorded steps applied to the rows of `Z^T`, wave by
 *                wave: one pass rounds the products `c x, s y, s x, c y` of
 *                every rotation in the wave, one pass the differences and
 *                sums `c x - s y`, `s x + c y`, which overwrite the rows;
 *   NAME_tridiagonalize
 *                the Householder reduction of `[A; Q]` (EISPACK tred2;
 *                Golub & Van Loan, Alg. 8.3.1), with the dot products and
 *                matrix-vector products summed by `NAME_sum`;
 *   NAME_reduce  the `reduce` entry: `NAME_sum` over the segments of its
 *                values.
 * `NAME_sum` runs the levels of a pairwise tree with `LEVEL_FN`. */
#define EIGEN(NAME, T, STEP, TYPENUM, SQRT, FABS, COPYSIGN, LEVEL_FN)                           \
    static inline int NAME##_rs(Ql *q, T *x)                                                    \
    {                                                                                           \
        return STEP(q->t, x, x) == HAND_BACK ? resolve_scalar(q->resolve, TYPENUM, x) : 0;      \
    }                                                                                           \
                                                                                                \
    static int NAME##_hypot(Ql *q, T a, T b, T *out)                                            \
    {                                                                                           \
        int (*const rs)(Ql *, T *) = NAME##_rs;                                                 \
        const T aa = FABS(a), ab = FABS(b);                                                     \
        if (aa != aa || ab != ab) {                                                             \
            *out = (T)NAN;                                                                      \
            return 0;                                                                           \
        }                                                                                       \
        const T scale = aa >= ab ? aa : ab, small = aa >= ab ? ab : aa;                         \
        if (scale == 0 || isinf(scale)) {                                                       \
            *out = scale;                                                                       \
            return 0;                                                                           \
        }                                                                                       \
        T t, sq, u, root;                                                                       \
        RS(t, small / scale);                                                                   \
        RS(sq, t * t);                                                                          \
        RS(u, (T)1 + sq); /* in [1, 2] */                                                       \
        RS(root, SQRT(u));                                                                      \
        q->ops += 5;                                                                            \
        RS(*out, scale * root);                                                                 \
        return 0;                                                                               \
    }                                                                                           \
                                                                                                \
    static int NAME##_ql(Ql *q, char *d_, char *e_, npy_intp n)                                 \
    {                                                                                           \
        int (*const rs)(Ql *, T *) = NAME##_rs;                                                 \
        T *d = (T *)d_, *e = (T *)e_;                                                           \
        const T one = 1, two = 2;                                                               \
        for (npy_intp low = 0; low < n; low++) {                                                \
            long sweeps = 0;                                                                    \
            for (;;) {                                                                          \
                for (npy_intp j = 0; j < n; j++) {                                              \
                    if (!isfinite(d[j]) || !isfinite(e[j])) {                                   \
                        q->status = QL_NONFINITE;                                               \
                        q->low = low;                                                           \
                        return 0;                                                               \
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
                    return 0;                                                                   \
                }                                                                               \
                /* Wilkinson-like shift */                                                      \
                T a, b, g, r, denom;                                                            \
                RS(a, d[low + 1] - d[low]);                                                     \
                RS(b, two * e[low]);                                                            \
                RS(g, a / b);                                                                   \
                if (NAME##_hypot(q, g, one, &r) < 0) {                                          \
                    return -1;                                                                  \
                }                                                                               \
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
                    if (NAME##_hypot(q, f, g, &r) < 0) {                                        \
                        return -1;                                                              \
                    }                                                                           \
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
                    /* columns i, i + 1 become c zi - s zi1, s zi + c zi1 */                    \
                    if (record(q, i, &c, &s) < 0) {                                             \
                        return -1;                                                              \
                    }                                                                           \
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
        return 0;                                                                               \
    }                                                                                           \
                                                                                                \
    static int NAME##_rotate(Rot *rot, char *zt_, npy_intp nrows, const npy_intp *cols,        \
                             const char *cs_, const char *ss_, const npy_intp *order,           \
                             const npy_intp *start, npy_intp waves, char *prods_)               \
    {                                                                                           \
        T *zt = (T *)zt_, *prods = (T *)prods_;                                                 \
        const T *cs = (const T *)cs_, *ss = (const T *)ss_;                                     \
        for (npy_intp w = 0; w < waves; w++) {                                                  \
            const npy_intp *wave = order + start[w];                                            \
            const npy_intp width = start[w + 1] - start[w], block = width * nrows;              \
            /* [[c x, s y], [s x, c y]], each block one row per rotation */                     \
            T *p = prods;                                                                       \
            for (int h = 0; h < 4; h++) {                                                       \
                for (npy_intp j = 0; j < width; j++) {                                          \
                    const npy_intp k = wave[j];                                                 \
                    const T coef = h == 0 || h == 3 ? cs[k] : ss[k];                            \
                    const T *v = zt + (cols[k] + (h & 1)) * nrows;                              \
                    for (npy_intp i = 0; i < nrows; i++, p++) {                                 \
                        *p = coef * v[i];                                                       \
                        if (note(&rot->pass, STEP(rot->t, p, p), p - prods) < 0) {              \
                            return -1;                                                          \
                        }                                                                       \
                    }                                                                           \
                }                                                                               \
            }                                                                                   \
            if (end_pass(rot->k, TYPENUM, prods_, 4 * block, &rot->pass, rot->resolve) < 0) {   \
                return -1;                                                                      \
            }                                                                                   \
            /* c x - s y into row i, then s x + c y into row i + 1 */                           \
            for (int h = 0; h < 2; h++) {                                                       \
                const T *left = prods + 2 * h * block, *right = left + block;                   \
                for (npy_intp j = 0; j < width; j++) {                                          \
                    T *z = zt + (cols[wave[j]] + h) * nrows;                                    \
                    for (npy_intp i = 0; i < nrows; i++, left++, right++) {                     \
                        z[i] = h ? *left + *right : *left - *right;                             \
                        if (note(&rot->pass, STEP(rot->t, &z[i], &z[i]), &z[i] - zt) < 0) {     \
                            return -1;                                                          \
                        }                                                                       \
                    }                                                                           \
                }                                                                               \
            }                                                                                   \
            if (end_pass(rot->k, TYPENUM, zt_, 2 * block, &rot->pass, rot->resolve) < 0) {      \
                return -1;                                                                      \
            }                                                                                   \
        }                                                                                       \
        return 0;                                                                               \
    }                                                                                           \
                                                                                                \
    /* round `buf[i]`, the value at position `i` of the pass */                                 \
    static inline int NAME##_note(Tri *r, T *buf, npy_intp i)                                   \
    {                                                                                           \
        return note(&r->rot.pass, STEP(r->rot.t, &buf[i], &buf[i]), i);                         \
    }                                                                                           \
                                                                                                \
    /* close the pass that rounded the `n` values from `buf` on */                              \
    static inline int NAME##_end(Tri *r, T *buf, npy_intp n)                                    \
    {                                                                                           \
        return end_pass(r->rot.k, TYPENUM, (char *)buf, n, &r->rot.pass, r->rot.resolve);       \
    }                                                                                           \
                                                                                                \
    /* The rounded sums of the segments `r->seg` of the values at `p` into                      \
     * `out` (0 for an empty segment): pairwise, one pass per tree level, or                    \
     * left to right, one pass per column of the segments still                                 \
     * accumulating (for a `vector`, one segment, a scalar op per addition). */                 \
    static int NAME##_sum(Tri *r, const T *p, int vector, T *out)                               \
    {                                                                                           \
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
                if (NAME##_rs(&r->q, out) < 0) {                                                \
                    return -1;                                                                  \
                }                                                                               \
            }                                                                                   \
            return 0;                                                                           \
        }                                                                                       \
        if (r->sequential) {                                                                    \
            for (npy_intp j = 1; j < longest; j++) {                                            \
                npy_intp n = 0;                                                                 \
                for (npy_intp i = 0; i < seg->count; i++) {                                     \
                    if (seg->len[i] > j) {                                                      \
                        out[i] = out[i] + p[seg->from[i] + j];                                  \
                        if (NAME##_note(r, out, i) < 0) {                                       \
                            return -1;                                                          \
                        }                                                                       \
                        n++;                                                                    \
                    }                                                                           \
                }                                                                               \
                if (NAME##_end(r, out, n) < 0) {                                                \
                    return -1;                                                                  \
                }                                                                               \
            }                                                                                   \
            return 0;                                                                           \
        }                                                                                       \
        const char *src = (const char *)p;                                                      \
        const npy_intp *from = seg->from;                                                       \
        for (;;) {                                                                              \
            const npy_intp sums = LEVEL_FN(src, from, r->work, seg, r->rot.t, &r->rot.pass);    \
            if (sums < 0) {                                                                     \
                return -1;                                                                      \
            }                                                                                   \
            if (sums == 0) {                                                                    \
                break;                                                                          \
            }                                                                                   \
            src = r->work;                                                                      \
            from = seg->off;                                                                    \
            if (NAME##_end(r, (T *)r->work, sums) < 0) {                                        \
                return -1;                                                                      \
            }                                                                                   \
        }                                                                                       \
        for (npy_intp i = 0; i < seg->count; i++) {                                             \
            if (seg->len[i]) {                                                                  \
                memcpy(&out[i], (const T *)r->work + seg->off[i], sizeof(T));                   \
            }                                                                                   \
        }                                                                                       \
        return 0;                                                                               \
    }                                                                                           \
                                                                                                \
    /* `reduce` over the segments of the values at `p`, into `out` */                           \
    static int NAME##_reduce(Tri *r, const char *p, int vector, char *out)                      \
    {                                                                                           \
        return NAME##_sum(r, (const T *)p, vector, (T *)out);                                   \
    }                                                                                           \
                                                                                                \
    /* `x[i * stride] / d` for i < m into `out`, in one pass */                                 \
    static int NAME##_divide(Tri *r, const T *x, npy_intp stride, npy_intp m, T d, T *out)      \
    {                                                                                           \
        for (npy_intp i = 0; i < m; i++) {                                                      \
            out[i] = x[i * stride] / d;                                                         \
            if (NAME##_note(r, out, i) < 0) {                                                   \
                return -1;                                                                      \
            }                                                                                   \
        }                                                                                       \
        r->q.ops += (unsigned long long)m;                                                      \
        return NAME##_end(r, out, m);                                                           \
    }                                                                                           \
                                                                                                \
    /* `v . v` into `*dot`: the `m` squares in one pass (into `p`), then                        \
     * their sum */                                                                             \
    static int NAME##_dot_self(Tri *r, const T *v, npy_intp m, T *p, T *dot)                    \
    {                                                                                           \
        for (npy_intp i = 0; i < m; i++) {                                                      \
            p[i] = v[i] * v[i];                                                                 \
            if (NAME##_note(r, p, i) < 0) {                                                     \
                return -1;                                                                      \
            }                                                                                   \
        }                                                                                       \
        r->q.ops += (unsigned long long)m;                                                      \
        if (NAME##_end(r, p, m) < 0) {                                                          \
            return -1;                                                                          \
        }                                                                                       \
        rows_of(&r->seg, 1, m);                                                                 \
        return NAME##_sum(r, p, 1, dot);                                                        \
    }                                                                                           \
                                                                                                \
    /* The reflector `(I - beta v v^T)` that annihilates all but the first                      \
     * of the `m` values `x[0], x[stride], ...` into `v` (`m` values) and                       \
     * `*beta`; `*beta` is 0 when the reflector is skipped: a zero or                           \
     * non-finite norm, a zero or non-finite `v.v`, or a non-finite `beta`.                     \
     * The norm is scaled by `max |x|` (NaN: NaN, inf: inf, 0: 0, no op).                       \
     * `xs` and `p` are scratch of `m` values. */                                               \
    static int NAME##_householder(Tri *r, const T *x, npy_intp stride, npy_intp m, T *v,        \
                                  T *beta, T *xs, T *p)                                         \
    {                                                                                           \
        Ql *const q = &r->q;                                                                    \
        int (*const rs)(Ql *, T *) = NAME##_rs;                                                 \
        *beta = 0;                                                                              \
        T scale = 0;                                                                            \
        for (npy_intp i = 0; i < m; i++) {                                                      \
            const T a = FABS(x[i * stride]);                                                    \
            if (a != a) {                                                                       \
                return 0;                                                                       \
            }                                                                                   \
            scale = a > scale ? a : scale;                                                      \
        }                                                                                       \
        if (scale == 0 || isinf(scale)) {                                                       \
            return 0;                                                                           \
        }                                                                                       \
        /* the norm: scale * sqrt((x / scale) . (x / scale)) */                                 \
        T dot, root, normx, vnorm2, b;                                                          \
        if (NAME##_divide(r, x, stride, m, scale, xs) < 0 ||                                    \
            NAME##_dot_self(r, xs, m, p, &dot) < 0) {                                           \
            return -1;                                                                          \
        }                                                                                       \
        RS(root, SQRT(dot));                                                                    \
        RS(normx, scale * root);                                                                \
        q->ops += 2;                                                                            \
        if (!isfinite(normx) || normx == 0) {                                                   \
            return 0;                                                                           \
        }                                                                                       \
        /* v = x / normx with v[0] + sign(x[0]); alpha = -sign * normx is                       \
         * one op (exact, and not read: counted, not formed) */                                 \
        if (NAME##_divide(r, x, stride, m, normx, v) < 0) {                                     \
            return -1;                                                                          \
        }                                                                                       \
        const T sign = x[0] < 0 ? -1 : 1;                                                       \
        RS(v[0], v[0] - (-sign));                                                               \
        q->ops += 2;                                                                            \
        if (NAME##_dot_self(r, v, m, p, &vnorm2) < 0) {                                         \
            return -1;                                                                          \
        }                                                                                       \
        if (!isfinite(vnorm2) || vnorm2 == 0) {                                                 \
            return 0;                                                                           \
        }                                                                                       \
        RS(b, (T)2 / vnorm2);                                                                   \
        q->ops += 1;                                                                            \
        *beta = isfinite(b) ? b : 0;                                                            \
        return 0;                                                                               \
    }                                                                                           \
                                                                                                \
    /* `S[i] - U[i]` over the `size` values of `S`, in place, in one pass */                    \
    static int NAME##_subtract(Tri *r, T *S, const T *U, npy_intp size)                         \
    {                                                                                           \
        for (npy_intp i = 0; i < size; i++) {                                                   \
            S[i] = S[i] - U[i];                                                                 \
            if (NAME##_note(r, S, i) < 0) {                                                     \
                return -1;                                                                      \
            }                                                                                   \
        }                                                                                       \
        r->q.ops += (unsigned long long)size;                                                   \
        return NAME##_end(r, S, size);                                                          \
    }                                                                                           \
                                                                                                \
    /* `beta * v` for each of `copies` copies of the `n` values of `v`, in                      \
     * one pass into `bv` */                                                                    \
    static int NAME##_scale(Tri *r, T beta, const T *v, npy_intp n, npy_intp copies, T *bv)     \
    {                                                                                           \
        for (npy_intp c = 0; c < copies; c++) {                                                 \
            for (npy_intp j = 0; j < n; j++) {                                                  \
                bv[c * n + j] = beta * v[j];                                                    \
                if (NAME##_note(r, bv, c * n + j) < 0) {                                        \
                    return -1;                                                                  \
                }                                                                               \
            }                                                                                   \
        }                                                                                       \
        r->q.ops += (unsigned long long)(copies * n);                                           \
        return NAME##_end(r, bv, copies * n);                                                   \
    }                                                                                           \
                                                                                                \
    /* Reduce the `(2, n, n)` stack `[A; Q]` at `aq_` in place: for each                        \
     * column k < n - 2 of A, the reflector of `A[k + 1:, k]`, applied to A                     \
     * from the left (`A - (beta v)(v^T A)`) and to the stack from the right                    \
     * (`S - (S v)(beta v)^T`, both matrices in each pass), with `v` zero                       \
     * above row k + 1.  `scratch` holds `2 n^2 + 7 n` values. */                               \
    static int NAME##_tridiagonalize(Tri *r, char *aq_, npy_intp n, char *scratch)              \
    {                                                                                           \
        T *const A = (T *)aq_, *const P = (T *)scratch; /* A, then Q: the stack */            \
        T *const w = P + 2 * n * n, *const bv = w + 2 * n, *const v = bv + 2 * n;              \
        T *const xs = v + n, *const p = xs + n;                                                 \
        for (npy_intp k = 0; k + 2 < n; k++) {                                                  \
            T beta;                                                                             \
            memset(v, 0, (size_t)(k + 1) * sizeof(T));                                          \
            if (NAME##_householder(r, A + (k + 1) * n + k, n, n - k - 1, v + k + 1, &beta, xs,  \
                                   p) < 0) {                                                    \
                return -1;                                                                      \
            }                                                                                   \
            if (beta == 0) {                                                                    \
                r->skipped++;                                                                   \
            }                                                                                   \
            else {                                                                              \
                /* from the left: w = A^T v from the products A[i, j] v[i] */                   \
                for (npy_intp j = 0; j < n; j++) {                                              \
                    for (npy_intp i = 0; i < n; i++) {                                          \
                        P[j * n + i] = A[i * n + j] * v[i];                                     \
                        if (NAME##_note(r, P, j * n + i) < 0) {                                 \
                            return -1;                                                          \
                        }                                                                       \
                    }                                                                           \
                }                                                                               \
                r->q.ops += (unsigned long long)(n * n);                                        \
                rows_of(&r->seg, n, n);                                                         \
                if (NAME##_end(r, P, n * n) < 0 || NAME##_sum(r, P, 0, w) < 0 ||                \
                    NAME##_scale(r, beta, v, n, 1, bv) < 0) {                                   \
                    return -1;                                                                  \
                }                                                                               \
                for (npy_intp i = 0; i < n; i++) {                                              \
                    for (npy_intp j = 0; j < n; j++) {                                          \
                        P[i * n + j] = bv[i] * w[j];                                            \
                        if (NAME##_note(r, P, i * n + j) < 0) {                                 \
                            return -1;                                                          \
                        }                                                                       \
                    }                                                                           \
                }                                                                               \
                r->q.ops += (unsigned long long)(n * n);                                        \
                if (NAME##_end(r, P, n * n) < 0 || NAME##_subtract(r, A, P, n * n) < 0) {       \
                    return -1;                                                                  \
                }                                                                               \
                /* from the right, over the 2n rows of the stack: w = S v */                    \
                for (npy_intp i = 0; i < 2 * n; i++) {                                          \
                    for (npy_intp j = 0; j < n; j++) {                                          \
                        P[i * n + j] = A[i * n + j] * v[j];                                     \
                        if (NAME##_note(r, P, i * n + j) < 0) {                                 \
                            return -1;                                                          \
                        }                                                                       \
                    }                                                                           \
                }                                                                               \
                r->q.ops += (unsigned long long)(2 * n * n);                                    \
                rows_of(&r->seg, 2 * n, n);                                                     \
                if (NAME##_end(r, P, 2 * n * n) < 0 || NAME##_sum(r, P, 0, w) < 0 ||            \
                    NAME##_scale(r, beta, v, n, 2, bv) < 0) {                                   \
                    return -1;                                                                  \
                }                                                                               \
                for (npy_intp i = 0; i < 2 * n; i++) {                                          \
                    const T *b = bv + (i / n) * n; /* beta v of row i's matrix */               \
                    for (npy_intp j = 0; j < n; j++) {                                          \
                        P[i * n + j] = w[i] * b[j];                                             \
                        if (NAME##_note(r, P, i * n + j) < 0) {                                 \
                            return -1;                                                          \
                        }                                                                       \
                    }                                                                           \
                }                                                                               \
                r->q.ops += (unsigned long long)(2 * n * n);                                    \
                if (NAME##_end(r, P, 2 * n * n) < 0 || NAME##_subtract(r, A, P, 2 * n * n) < 0) { \
                    return -1;                                                                  \
                }                                                                               \
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
        return 0;                                                                               \
    }

EIGEN(f64, double, step_f64, NPY_DOUBLE, sqrt, fabs, copysign, level_word)
EIGEN(x87, npy_longdouble, step_x87, NPY_LONGDOUBLE, sqrtl, fabsl, copysignl, level_x87)
EIGEN(native_float, float, step_none, NPY_FLOAT, sqrtf, fabsf, copysignf, level_float)
EIGEN(native_double, double, step_none, NPY_DOUBLE, sqrt, fabs, copysign, level_double)
EIGEN(native_longdouble, npy_longdouble, step_none, NPY_LONGDOUBLE, sqrtl, fabsl, copysignl,
      level_longdouble)
EIGEN(all_double, double, step_all, NPY_DOUBLE, sqrt, fabs, copysign, level_all_double)
EIGEN(all_longdouble, npy_longdouble, step_all, NPY_LONGDOUBLE, sqrtl, fabsl, copysignl,
      level_all_longdouble)

#undef RS

typedef int (*QlFn)(Ql *q, char *d, char *e, npy_intp n);
typedef int (*RotateFn)(Rot *rot, char *zt, npy_intp nrows, const npy_intp *cols, const char *cs,
                        const char *ss, const npy_intp *order, const npy_intp *start, npy_intp waves,
                        char *prods);
typedef int (*TridiagonalizeFn)(Tri *r, char *aq, npy_intp n, char *scratch);
typedef int (*ReduceFn)(Tri *r, const char *p, int vector, char *out);

/* the instances, by the rounding of the work array */
enum { WITH_F64, WITH_X87, NATIVE_FLOAT, NATIVE_DOUBLE, NATIVE_LONGDOUBLE, ALL_DOUBLE, ALL_LONGDOUBLE };
static const QlFn ql_of[] = {f64_ql,           x87_ql,        native_float_ql,
                             native_double_ql, native_longdouble_ql, all_double_ql,
                             all_longdouble_ql};
static const RotateFn rotate_of[] = {f64_rotate,           x87_rotate,        native_float_rotate,
                                     native_double_rotate, native_longdouble_rotate,
                                     all_double_rotate,    all_longdouble_rotate};
static const TridiagonalizeFn tridiagonalize_of[] = {
    f64_tridiagonalize,           x87_tridiagonalize,        native_float_tridiagonalize,
    native_double_tridiagonalize, native_longdouble_tridiagonalize,
    all_double_tridiagonalize,    all_longdouble_tridiagonalize};
static const ReduceFn reduce_of[] = {f64_reduce,           x87_reduce,        native_float_reduce,
                                     native_double_reduce, native_longdouble_reduce,
                                     all_double_reduce,    all_longdouble_reduce};

/* The instance rounding a `typenum` work array through `kernel` (a Kernel),
 * or with no kernel either not at all (`resolve` None: the native dtypes)
 * or by handing every value to `resolve` (an emulated format no kernel
 * serves); sets `*k` to the kernel, if any.  -1 with TypeError otherwise. */
static int
instance_of(PyObject *kernel, PyObject *resolve, int typenum, Kernel **k)
{
    *k = NULL;
    if (kernel != Py_None) {
        if (!PyObject_TypeCheck(kernel, &KernelType) || !PyCallable_Check(resolve)) {
            PyErr_SetString(PyExc_TypeError, "a kernel needs a callable resolve");
            return -1;
        }
        *k = (Kernel *)kernel;
        if (typenum == work_type(*k)) {
            return (*k)->extended ? WITH_X87 : WITH_F64;
        }
    }
    else if (resolve == Py_None) {
        switch (typenum) {
        case NPY_FLOAT:
            return NATIVE_FLOAT;
        case NPY_DOUBLE:
            return NATIVE_DOUBLE;
        case NPY_LONGDOUBLE:
            return NATIVE_LONGDOUBLE;
        }
    }
    else if (PyCallable_Check(resolve)) {
        switch (typenum) {
        case NPY_DOUBLE:
            return ALL_DOUBLE;
        case NPY_LONGDOUBLE:
            return ALL_LONGDOUBLE;
        }
    }
    PyErr_SetString(PyExc_TypeError, "the work arrays do not match the kernel and resolve given");
    return -1;
}

/* Whether `resolve_scalar` and `resolve_array` are both None or both
 * callable; -1 with TypeError otherwise. */
static int
check_resolvers(PyObject *resolve_scalar, PyObject *resolve_array)
{
    if ((resolve_scalar == Py_None) != (resolve_array == Py_None) ||
        (resolve_scalar != Py_None && !PyCallable_Check(resolve_scalar))) {
        PyErr_SetString(PyExc_TypeError, "resolve_scalar and resolve_array go together");
        return -1;
    }
    return 0;
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

/* ql(d, e, max_sweeps, eps, kernel, resolve) */
static PyObject *
module_ql(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "ql(d, e, max_sweeps, eps, kernel, resolve) takes six arguments");
        return NULL;
    }
    PyArrayObject *d = work_array(args[0], 1, -1, 1, "d");
    if (d == NULL) {
        return NULL;
    }
    const int typenum = PyArray_TYPE(d);
    PyArrayObject *e = work_array(args[1], 1, typenum, 1, "e");
    if (e == NULL) {
        return NULL;
    }
    const npy_intp n = PyArray_DIM(d, 0);
    if (PyArray_DIM(e, 0) != n) {
        PyErr_SetString(PyExc_ValueError, "e must be as long as d");
        return NULL;
    }
    const long max_sweeps = PyLong_AsLong(args[2]);
    const double eps = PyFloat_AsDouble(args[3]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    Kernel *k;
    const int which = instance_of(args[4], args[5], typenum, &k);
    if (which < 0) {
        return NULL;
    }
    const Tables t = k != NULL ? tables_of(k) : (Tables){NULL, NULL, NULL, 0};
    Ql q = {&t, args[5] == Py_None ? NULL : args[5], max_sweeps, eps, eps > 1e-30 ? eps : 1e-30,
            0,  0, QL_OK, 0, 0, 0, PyArray_ITEMSIZE(d), NULL, NULL, NULL};
    PyObject *res = NULL, *cols = NULL, *cs = NULL, *ss = NULL;
    if (ql_of[which](&q, PyArray_BYTES(d), PyArray_BYTES(e), n) < 0) {
        goto done;
    }
    cols = PyArray_SimpleNew(1, &q.count, NPY_INTP);
    cs = PyArray_SimpleNew(1, &q.count, typenum);
    ss = PyArray_SimpleNew(1, &q.count, typenum);
    if (cols == NULL || cs == NULL || ss == NULL) {
        goto done;
    }
    if (q.count) {
        memcpy(PyArray_DATA((PyArrayObject *)cols), q.cols, (size_t)q.count * sizeof(npy_intp));
        memcpy(PyArray_DATA((PyArrayObject *)cs), q.cs, (size_t)(q.count * q.itemsize));
        memcpy(PyArray_DATA((PyArrayObject *)ss), q.ss, (size_t)(q.count * q.itemsize));
    }
    res = Py_BuildValue("(KinKOOO)", q.ops, q.status, (Py_ssize_t)q.low, q.restarts, cols, cs, ss);

done:
    Py_XDECREF(cols);
    Py_XDECREF(cs);
    Py_XDECREF(ss);
    PyMem_Free(q.cols);
    PyMem_Free(q.cs);
    PyMem_Free(q.ss);
    return res;
}

/* Group rotations `k` on columns (cols[k], cols[k] + 1) into waves, as
 * `repro.linalg.tridiagonal.wavefront_schedule` does: a rotation goes in
 * the wave after the last one that touched either of its columns.  Fills
 * `order` (the rotations by wave, in recorded order within a wave) and
 * `start` (wave w is order[start[w]:start[w + 1]]); returns the number of
 * waves, or -1 on a memory error. */
static npy_intp
schedule(const npy_intp *cols, npy_intp count, npy_intp ncols, npy_intp *order, npy_intp *start)
{
    npy_intp *last = PyMem_Calloc((size_t)ncols, sizeof(npy_intp));
    npy_intp *wave = PyMem_Malloc((size_t)(count ? count : 1) * sizeof(npy_intp));
    if (last == NULL || wave == NULL) {
        PyMem_Free(last);
        PyMem_Free(wave);
        PyErr_NoMemory();
        return -1;
    }
    npy_intp waves = 0;
    memset(start, 0, (size_t)(count + 2) * sizeof(npy_intp));
    for (npy_intp k = 0; k < count; k++) {
        const npy_intp i = cols[k];
        const npy_intp w = last[i] > last[i + 1] ? last[i] : last[i + 1];
        last[i] = last[i + 1] = w + 1;
        wave[k] = w;
        start[w + 1]++;
        waves = w + 1 > waves ? w + 1 : waves;
    }
    for (npy_intp w = 0; w < waves; w++) {
        start[w + 1] += start[w];
    }
    for (npy_intp k = 0; k < count; k++) { /* stable: recorded order within a wave */
        order[start[wave[k]]++] = k;
    }
    for (npy_intp w = waves; w > 0; w--) { /* the fill moved each start one wave on */
        start[w] = start[w - 1];
    }
    start[0] = 0;
    PyMem_Free(last);
    PyMem_Free(wave);
    return waves;
}

/* rotate(ZT, cols, cs, ss, kernel, resolve) */
static PyObject *
module_rotate(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "rotate(ZT, cols, cs, ss, kernel, resolve) takes six arguments");
        return NULL;
    }
    PyArrayObject *zt = work_array(args[0], 2, -1, 1, "ZT");
    if (zt == NULL) {
        return NULL;
    }
    const int typenum = PyArray_TYPE(zt);
    PyArrayObject *cols = (PyArrayObject *)args[1];
    if (!PyArray_Check(args[1]) || PyArray_NDIM(cols) != 1 || !PyArray_ISCARRAY_RO(cols) ||
        PyArray_TYPE(cols) != NPY_INTP) {
        PyErr_SetString(PyExc_TypeError, "cols must be a 1-D C-contiguous intp array");
        return NULL;
    }
    PyArrayObject *cs = work_array(args[2], 1, typenum, 0, "cs");
    PyArrayObject *ss = cs == NULL ? NULL : work_array(args[3], 1, typenum, 0, "ss");
    if (ss == NULL) {
        return NULL;
    }
    const npy_intp count = PyArray_DIM(cols, 0), ncols = PyArray_DIM(zt, 0);
    const npy_intp nrows = PyArray_DIM(zt, 1);
    if (PyArray_DIM(cs, 0) != count || PyArray_DIM(ss, 0) != count) {
        PyErr_SetString(PyExc_ValueError, "cols, cs and ss differ in length");
        return NULL;
    }
    const npy_intp *col = (const npy_intp *)PyArray_DATA(cols);
    for (npy_intp k = 0; k < count; k++) {
        if (col[k] < 0 || col[k] >= ncols - 1) {
            PyErr_SetString(PyExc_ValueError, "a rotation column lies outside ZT");
            return NULL;
        }
    }
    Kernel *k;
    const int which = instance_of(args[4], args[5], typenum, &k);
    if (which < 0) {
        return NULL;
    }
    const Tables t = k != NULL ? tables_of(k) : (Tables){NULL, NULL, NULL, 0};
    Rot rot = {k, &t, args[5] == Py_None ? NULL : args[5], {NULL, 0, 0, 0, 0}};
    PyObject *res = NULL;
    char *prods = NULL;
    npy_intp *order = PyMem_Malloc((size_t)(2 * count + 2) * sizeof(npy_intp));
    if (order == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    npy_intp *start = order + count;
    const npy_intp waves = schedule(col, count, ncols, order, start);
    if (waves < 0) {
        goto done;
    }
    npy_intp widest = 0;
    for (npy_intp w = 0; w < waves; w++) {
        widest = start[w + 1] - start[w] > widest ? start[w + 1] - start[w] : widest;
    }
    prods = PyMem_Malloc((size_t)(4 * widest * nrows * PyArray_ITEMSIZE(zt)) + 1);
    if (prods == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (rotate_of[which](&rot, PyArray_BYTES(zt), nrows, col, PyArray_BYTES(cs), PyArray_BYTES(ss),
                         order, start, waves, prods) == 0) {
        res = PyLong_FromSsize_t((Py_ssize_t)waves);
    }

done:
    PyMem_Free(rot.pass.pos);
    PyMem_Free(prods);
    PyMem_Free(order);
    return res;
}

/* tridiagonalize(AQ, sequential, kernel, resolve_scalar, resolve_array) */
static PyObject *
module_tridiagonalize(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "tridiagonalize(AQ, sequential, kernel, resolve_scalar, "
                                         "resolve_array) takes five arguments");
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
    const int which = check_resolvers(args[3], args[4]) < 0
                          ? -1
                          : instance_of(args[2], args[4], PyArray_TYPE(aq), &k);
    if (which < 0) {
        return NULL;
    }
    const Tables t = k != NULL ? tables_of(k) : (Tables){NULL, NULL, NULL, 0};
    Tri tri = {
        .q = {.t = &t, .resolve = args[3] == Py_None ? NULL : args[3]},
        .rot = {k, &t, args[4] == Py_None ? NULL : args[4], {NULL, 0, 0, 0, 0}},
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
    if (tridiagonalize_of[which](&tri, PyArray_BYTES(aq), n, scratch) == 0) {
        if (tri.first_nonfinite < 0) {
            res = Py_BuildValue("(KnO)", tri.q.ops, tri.skipped, Py_None);
        }
        else {
            res = Py_BuildValue("(Knn)", tri.q.ops, tri.skipped, tri.first_nonfinite);
        }
    }

done:
    PyMem_Free(tri.rot.pass.pos);
    PyMem_Free(tri.seg.from);
    PyMem_Free(scratch);
    return res;
}

/* reduce(values, indptr, sequential, kernel, resolve_scalar, resolve_array) */
static PyObject *
module_reduce(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError, "reduce(values, indptr, sequential, kernel, "
                                         "resolve_scalar, resolve_array) takes six arguments");
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
    const int which = check_resolvers(args[4], args[5]) < 0
                          ? -1
                          : instance_of(args[3], args[5], typenum, &k);
    if (which < 0) {
        return NULL;
    }
    /* read in place when C-contiguous (a contiguous copy otherwise) */
    PyArrayObject *in = (PyArrayObject *)PyArray_FromAny(args[0], PyArray_DescrFromType(typenum), 1,
                                                         0, NPY_ARRAY_CARRAY_RO, NULL);
    if (in == NULL) {
        return NULL;
    }
    const Tables t = k != NULL ? tables_of(k) : (Tables){NULL, NULL, NULL, 0};
    Tri tri = {
        .q = {.t = &t, .resolve = args[4] == Py_None ? NULL : args[4]},
        .rot = {k, &t, args[5] == Py_None ? NULL : args[5], {NULL, 0, 0, 0, 0}},
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
    if (res != NULL &&
        reduce_of[which](&tri, PyArray_BYTES(in), vector, PyArray_BYTES((PyArrayObject *)res)) < 0) {
        Py_CLEAR(res);
    }

done:
    PyMem_Free(tri.rot.pass.pos);
    PyMem_Free(tri.seg.from);
    PyMem_Free(tri.work);
    Py_DECREF(in);
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
 *   (RULE_TABLE, mags, codes, over, top, floor)
 *   (RULE_QUANTUM, lo_mags, lo_codes, hi_mags, hi_codes, qexps, qbase, minpos, maxpos, lo, hi)
 * The tables and the bounds are of the kernel's work type; `qexps` must
 * cover every `frexp` exponent of a finite work value. */
static int
parse_rule(PyObject *spec, int extended, Rule *r)
{
    const Py_ssize_t size = PyTuple_Check(spec) ? PyTuple_GET_SIZE(spec) : -1;
    const long kind = size > 0 ? PyLong_AsLong(PyTuple_GET_ITEM(spec, 0)) : -1;
    if (kind == -1 && PyErr_Occurred()) {
        return -1;
    }
    static const Py_ssize_t sizes[] = {6, 11};
    if (kind < RULE_TABLE || kind > RULE_QUANTUM || size != sizes[kind] ||
        (extended && kind != RULE_QUANTUM)) {
        PyErr_SetString(PyExc_ValueError, "rule: not a rule of this kernel's work type");
        return -1;
    }
    r->kind = (int)kind;
    PyObject *const *item = &PyTuple_GET_ITEM(spec, 1);
    const Py_ssize_t wsize = extended ? X87_SLOT : 8;
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
    if (extended && sizeof(npy_longdouble) != X87_SLOT) {
        PyErr_SetString(PyExc_ValueError, "longdouble is not a 16-byte slot on this host");
        return NULL;
    }
    Kernel *k = (Kernel *)type->tp_alloc(type, 0);
    if (k == NULL) {
        return NULL;
    }
    k->extended = extended;
    k->unsigned_zero = unsigned_zero;
    /* one entry per sign + exponent field */
    const Py_ssize_t entries = (Py_ssize_t)1 << (extended ? 16 : 12);
    const Py_ssize_t itemsize[N_LUTS] = {8, 8, 1};
    for (int i = 0; i < N_LUTS; i++) {
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
     "round_one(value) -> the rounded work-dtype scalar, or None when handed back (an "
     "infinity or NaN)"},
    {"round_into", (PyCFunction)(void (*)(void))Kernel_round_into, METH_FASTCALL,
     "round_into(src, dst, resolve) -> None; `resolve` rounds the values handed back"},
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
              "round-to-nearest-even over one format's binade lookup tables, and its "
              "finite rule over the special binades",
    .tp_new = Kernel_new,
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_methods = Kernel_methods,
};

static PyMethodDef module_methods[] = {
    {"reduce", (PyCFunction)(void (*)(void))module_reduce, METH_FASTCALL,
     "reduce(values, indptr, sequential, kernel, resolve_scalar, resolve_array) -> the rounded "
     "sum of each segment of values: pairwise, or left to right"},
    {"ql", (PyCFunction)(void (*)(void))module_ql, METH_FASTCALL,
     "ql(d, e, max_sweeps, eps, kernel, resolve) -> (ops, status, low, restarts, cols, cs, ss); "
     "the QL iteration on d and e in place"},
    {"rotate", (PyCFunction)(void (*)(void))module_rotate, METH_FASTCALL,
     "rotate(ZT, cols, cs, ss, kernel, resolve) -> waves; the recorded Givens steps applied "
     "to the rows of ZT in place"},
    {"tridiagonalize", (PyCFunction)(void (*)(void))module_tridiagonalize, METH_FASTCALL,
     "tridiagonalize(AQ, sequential, kernel, resolve_scalar, resolve_array) -> (ops, skipped, "
     "first_nonfinite); the Householder reduction of the stack [A; Q] in place"},
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
        PyModule_AddIntConstant(module, "RULE_QUANTUM", RULE_QUANTUM) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
