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
 * (into the slot it came from, or into another) and returns SERVED, ZERO
 * or HAND_BACK: `step_f64` and `step_x87`; the native dtypes have
 * `step_none`, which leaves the value as it is, and an emulated format no
 * kernel serves has `step_all`, which hands every value back.  Every entry
 * below rounds through these steps.  Exact zeros in a special binade are rounded
 * here too (`-0.0` becomes `+0.0` for formats with one unsigned zero).
 * Every other value in a special binade (extreme regimes, overflow bands,
 * deep subnormals, infinities, NaN) is handed back: it stays unrounded in
 * its slot, and once a pass over the buffer ends, the values the pass
 * handed back go to one call of the caller's `resolve`, which rounds them
 * with the format's analytic kernel; the kernel stores its results in
 * place (x87 values with their padding zeroed).
 *
 * Entries:
 *   Kernel.round_one(value)      one float64 / longdouble scalar -> the
 *                                rounded NumPy scalar, or None when the
 *                                value is handed back (or is not a float
 *                                of the work layout);
 *   Kernel.round_into(src, dst, resolve)
 *                                rounds the C-contiguous buffer `src` into
 *                                `dst` (same length; may be `src` itself)
 *                                in one pass and returns None.
 *                                Non-contiguous, foreign-format or
 *                                partially overlapping buffers raise
 *                                OperandError (a BufferError) before
 *                                anything is written; an exception of
 *                                `resolve` propagates as it is;
 *   Kernel.reduce_pairwise(values, indptr, resolve)
 *                                the rounded pairwise sums of `values` (see
 *                                below) as a fresh 1-D array, one pass per
 *                                tree level;
 *   Kernel.take_counts()         (calls, elements, handed_back, zeros) of
 *                                the passes since the last call, counted
 *                                while the telemetry flag byte is set;
 *   reduce_pairwise(values, indptr)
 *                                the same tree over a float32, float64 or
 *                                longdouble array without rounding: the
 *                                native contexts, whose storage type is
 *                                the rounding;
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
 * The eigensolver entries round through `kernel` (a Kernel of the work
 * type of the arrays), or, with `kernel` None, not at all (the resolvers
 * None: float32, float64 and longdouble arrays of the native contexts) or
 * by handing every value to the resolvers (an emulated format without a
 * kernel).  A scalar op resolves a handed-back value at once, one value
 * per call of the scalar resolver (`ql`'s `resolve`), since the next op
 * reads it.  An array op rounds in one pass, as `round_into` would round
 * it, resolved in one call of the array resolver (`rotate`'s `resolve`)
 * and counted as one call of the kernel; `rotate` rounds each wave in two
 * passes.  `tridiagonalize` rounds each elementwise op of the reduction in
 * one pass and each dot product or matrix-vector product as the contexts'
 * reductions do: one pass per pairwise tree level, or, with `sequential`
 * true, left to right, one pass per column (a scalar op per addition for
 * the dot products).  The entries take well-behaved C-contiguous arrays
 * only, and write in place.
 *
 * A pairwise reduction sums each segment of `values` as a balanced tree:
 * the segments are the rows along the last axis of `values` (`indptr`
 * None), or the CSR segments `values[indptr[r]:indptr[r + 1]]` of a 1-D
 * `values`.  Each tree level adds partial `2i` to partial `2i + 1`, rounds
 * every sum, and carries an odd leftover unrounded into the next level.
 * One level is computed for every segment first; the sums it handed back
 * then go to one `resolve` call, and only then does the next level start.
 * All levels run one loop body, instantiated per element type and step.
 * The kernel counts one call per level, with that level's sums, hand-backs
 * and zeros, as `round_into` would count rounding the level in one call.
 * Empty segments sum to zero.  `values` is only read: the first level
 * writes its sums into a work buffer of half the size, where the later
 * levels reduce in place.
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

/* bytes of one x87 extended value in memory */
#define X87_SLOT 16
/* whether npy_longdouble is the x87 extended value in a 16-byte slot */
#define X87_LONGDOUBLE (LDBL_MANT_DIG == 64 && NPY_SIZEOF_LONGDOUBLE == X87_SLOT)

/* OperandError: the operands `round_into` refuses, before it writes */
static PyObject *OperandError;

static PyTypeObject KernelType;

enum { SHIFT, BIAS, SPECIAL, N_LUTS };
enum { CALLS, ELEMENTS, HANDED_BACK, ZEROS, N_COUNTS };

typedef struct {
    PyObject_HEAD
    Py_buffer luts[N_LUTS];
    Py_buffer counting; /* one byte: count while non-zero */
    int extended;
    int unsigned_zero;
    unsigned long long counts[N_COUNTS];
} Kernel;

/* the lookup tables of one kernel, read in place */
typedef struct {
    const uint64_t *shift;
    const uint64_t *bias;
    const uint8_t *special;
    int unsigned_zero;
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
    Tables t = {k->luts[SHIFT].buf, k->luts[BIAS].buf, k->luts[SPECIAL].buf, k->unsigned_zero};
    return t;
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
        if (u << 1) {
            outcome = HAND_BACK;
        }
        else {
            outcome = ZERO;
            if (t->unsigned_zero) {
                u = 0;
            }
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
        if (w[0] || (w[1] & 0x7FFF)) {
            outcome = HAND_BACK;
        }
        else {
            outcome = ZERO;
            if (t->unsigned_zero) {
                w[1] = 0;
            }
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
        else {
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
    if (!PyFloat_Check(value)) {
        Py_RETURN_NONE;
    }
    double x = PyFloat_AS_DOUBLE(value);
    if (step_f64(&t, &x, &x) == HAND_BACK) {
        Py_RETURN_NONE;
    }
    PyObject *res = PyArrayScalar_New(Double);
    if (res != NULL) {
        PyArrayScalar_VAL(res, Double) = x;
    }
    return res;
}

/* The outcomes of one rounding pass: the zeros it rounded and the positions
 * it handed back (grown on demand). */
typedef struct {
    npy_intp *pos;
    npy_intp count;
    npy_intp capacity;
    unsigned long long zeros;
} Pass;

/* Record the outcome of rounding the value at position `i`. */
static inline int
note(Pass *pass, int outcome, npy_intp i)
{
    if (outcome == ZERO) {
        pass->zeros++;
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
 * it into `k` (if any) while the telemetry flag byte is set, resolve its
 * hand-backs, and start afresh. */
static int
end_pass(Kernel *k, int typenum, char *buf, npy_intp n, Pass *pass, PyObject *resolve)
{
    if (k != NULL && *(const char *)k->counting.buf) {
        k->counts[CALLS] += 1;
        k->counts[ELEMENTS] += (unsigned long long)n;
        k->counts[HANDED_BACK] += (unsigned long long)pass->count;
        k->counts[ZEROS] += pass->zeros;
    }
    const int status = pass->count ? resolve_level(typenum, buf, pass, resolve) : 0;
    pass->count = 0;
    pass->zeros = 0;
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
    Pass pass = {NULL, 0, 0, 0};
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

/* the segments of a pairwise reduction: segment r holds `len[r]` partials;
 * the first level reads them from element `from[r]` of the input on and
 * writes its sums from element `off[r]` of a work buffer on, where every
 * later level reduces them in place */
typedef struct {
    npy_intp *from;
    npy_intp *off;
    npy_intp *len;
    npy_intp count;
} Segments;

typedef npy_intp (*Level)(const char *src, const npy_intp *from, char *dst, Segments *seg,
                          const Tables *t, Pass *pass);

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

/* The segments of `values`: its rows along the last axis (`indptr` None),
 * or the CSR segments of a 1-D `values`; sets `*size` to the elements of
 * the work buffer, half of each segment rounded up. */
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
    seg->count = count;
    seg->from = PyMem_Malloc((size_t)(3 * count + 1) * sizeof(npy_intp));
    if (seg->from == NULL) {
        Py_XDECREF(ptr);
        PyErr_NoMemory();
        return -1;
    }
    seg->off = seg->from + count;
    seg->len = seg->off + count;
    int bad = 0;
    if (ptr == NULL) {
        for (npy_intp r = 0; r < count; r++) {
            seg->from[r] = r * m;
            seg->len[r] = m;
        }
    }
    else {
        const npy_intp *p = (const npy_intp *)PyArray_DATA(ptr);
        bad = p[0] < 0 || p[count] > PyArray_DIM(values, 0);
        for (npy_intp r = 0; r < count && !bad; r++) {
            seg->from[r] = p[r];
            seg->len[r] = p[r + 1] - p[r];
            bad = seg->len[r] < 0;
        }
        Py_DECREF(ptr);
    }
    if (bad) {
        PyErr_SetString(PyExc_ValueError, "indptr must be non-decreasing within the values");
        return -1;
    }
    *size = 0;
    for (npy_intp r = 0; r < count; r++) {
        seg->off[r] = *size;
        *size += (seg->len[r] + 1) / 2;
    }
    return 0;
}

/* The pairwise reduction of `values`, rounded through `k` (NULL: native). */
static PyObject *
reduce_pairwise(Kernel *k, PyObject *values, PyObject *indptr, PyObject *resolve)
{
    int typenum;
    if (k != NULL) {
        typenum = work_type(k);
    }
    else {
        typenum = PyArray_Check(values) ? PyArray_TYPE((PyArrayObject *)values) : NPY_NOTYPE;
        if (typenum != NPY_FLOAT && typenum != NPY_DOUBLE && typenum != NPY_LONGDOUBLE) {
            PyErr_SetString(PyExc_TypeError,
                            "reduce_pairwise: values must be a float32, float64 or longdouble array");
            return NULL;
        }
    }
    /* read in place when C-contiguous (a contiguous copy otherwise) */
    PyArrayObject *in = (PyArrayObject *)PyArray_FromAny(values, PyArray_DescrFromType(typenum), 1,
                                                         0, NPY_ARRAY_CARRAY_RO, NULL);
    if (in == NULL) {
        return NULL;
    }
    Segments seg = {NULL, NULL, NULL, 0};
    Pass pass = {NULL, 0, 0, 0};
    PyArrayObject *work = NULL;
    PyObject *res = NULL;
    npy_intp size;
    if (segments_of(in, indptr, &seg, &size) < 0) {
        goto done;
    }
    if ((work = (PyArrayObject *)PyArray_SimpleNew(1, &size, typenum)) == NULL) {
        goto done;
    }
    const char *src = PyArray_BYTES(in);
    const npy_intp *from = seg.from;
    char *buf = PyArray_BYTES(work);
    const Tables t = k != NULL ? tables_of(k) : (Tables){NULL, NULL, NULL, 0};
    const Level level = k != NULL              ? (k->extended ? level_x87 : level_word)
                        : typenum == NPY_FLOAT  ? level_float
                        : typenum == NPY_DOUBLE ? level_double
                                                : level_longdouble;
    for (;;) {
        const npy_intp sums = level(src, from, buf, &seg, &t, &pass);
        if (sums < 0) {
            goto done;
        }
        if (sums == 0) {
            break;
        }
        src = buf;
        from = seg.off;
        if (k != NULL && end_pass(k, typenum, buf, sums, &pass, resolve) < 0) {
            goto done;
        }
    }
    res = PyArray_ZEROS(1, &seg.count, typenum, 0);
    if (res != NULL) {
        const npy_intp itemsize = PyArray_ITEMSIZE(work);
        char *out = PyArray_BYTES((PyArrayObject *)res);
        for (npy_intp r = 0; r < seg.count; r++) {
            if (seg.len[r]) {
                memcpy(out + r * itemsize, buf + seg.off[r] * itemsize, (size_t)itemsize);
            }
        }
    }

done:
    PyMem_Free(seg.from);
    PyMem_Free(pass.pos);
    Py_XDECREF(work);
    Py_DECREF(in);
    return res;
}

static PyObject *
Kernel_reduce_pairwise(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3 || !PyCallable_Check(args[2])) {
        PyErr_SetString(PyExc_TypeError,
                        "reduce_pairwise(values, indptr, resolve) takes two arrays and a callable");
        return NULL;
    }
    return reduce_pairwise(k, args[0], args[1], args[2]);
}

static PyObject *
module_reduce_pairwise(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "reduce_pairwise(values, indptr) takes two arguments");
        return NULL;
    }
    return reduce_pairwise(NULL, args[0], args[1], NULL);
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

/* One `tridiagonalize` call: the rounding and tally of its scalar ops
 * (`q`), the rounding of its passes (`rot`), its scratch, and what it
 * found. */
typedef struct {
    Ql q;
    Rot rot;
    int sequential;
    Segments seg; /* the rows of a pairwise sum */
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

/* The eigensolver over elements of type `T` (NumPy type `TYPENUM`), each
 * op rounded by `STEP` and, when `STEP` hands the value back, by the
 * caller's resolver:
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
 *                matrix-vector products summed by `NAME_sum`, whose pairwise
 *                tree runs `LEVEL_FN`. */
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
    /* The rounded sums of the `rows` rows of `m >= 1` products at `p` into                     \
     * `out`: pairwise, one pass per tree level, or left to right, one pass                     \
     * per column of all rows (a scalar op per addition for a `vector`).  */                    \
    static int NAME##_sum(Tri *r, const T *p, npy_intp rows, npy_intp m, int vector, T *out)    \
    {                                                                                           \
        r->q.ops += (unsigned long long)(rows * (m - 1));                                       \
        if (r->sequential && vector) {                                                          \
            T acc = p[0];                                                                       \
            for (npy_intp j = 1; j < m; j++) {                                                  \
                acc = acc + p[j];                                                               \
                if (NAME##_rs(&r->q, &acc) < 0) {                                               \
                    return -1;                                                                  \
                }                                                                               \
            }                                                                                   \
            *out = acc;                                                                         \
            return 0;                                                                           \
        }                                                                                       \
        if (r->sequential) {                                                                    \
            for (npy_intp i = 0; i < rows; i++) {                                               \
                out[i] = p[i * m];                                                              \
            }                                                                                   \
            for (npy_intp j = 1; j < m; j++) {                                                  \
                for (npy_intp i = 0; i < rows; i++) {                                           \
                    out[i] = out[i] + p[i * m + j];                                             \
                    if (NAME##_note(r, out, i) < 0) {                                           \
                        return -1;                                                              \
                    }                                                                           \
                }                                                                               \
                if (NAME##_end(r, out, rows) < 0) {                                             \
                    return -1;                                                                  \
                }                                                                               \
            }                                                                                   \
            return 0;                                                                           \
        }                                                                                       \
        Segments *seg = &r->seg;                                                                \
        seg->count = rows;                                                                      \
        for (npy_intp i = 0; i < rows; i++) {                                                   \
            seg->from[i] = i * m;                                                               \
            seg->len[i] = m;                                                                    \
            seg->off[i] = i * ((m + 1) / 2);                                                    \
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
        for (npy_intp i = 0; i < rows; i++) {                                                   \
            out[i] = ((const T *)r->work)[seg->off[i]];                                         \
        }                                                                                       \
        return 0;                                                                               \
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
        return NAME##_sum(r, p, 1, m, 1, dot);                                                  \
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
                if (NAME##_end(r, P, n * n) < 0 || NAME##_sum(r, P, n, n, 0, w) < 0 ||          \
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
                if (NAME##_end(r, P, 2 * n * n) < 0 || NAME##_sum(r, P, 2 * n, n, 0, w) < 0 ||  \
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
    Rot rot = {k, &t, args[5] == Py_None ? NULL : args[5], {NULL, 0, 0, 0}};
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
    if ((args[3] == Py_None) != (args[4] == Py_None) ||
        (args[3] != Py_None && !PyCallable_Check(args[3]))) {
        PyErr_SetString(PyExc_TypeError, "resolve_scalar and resolve_array go together");
        return NULL;
    }
    Kernel *k;
    const int which = instance_of(args[2], args[4], PyArray_TYPE(aq), &k);
    if (which < 0) {
        return NULL;
    }
    const Tables t = k != NULL ? tables_of(k) : (Tables){NULL, NULL, NULL, 0};
    Tri tri = {
        .q = {.t = &t, .resolve = args[3] == Py_None ? NULL : args[3]},
        .rot = {k, &t, args[4] == Py_None ? NULL : args[4], {NULL, 0, 0, 0}},
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
    PyBuffer_Release(&k->counting);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

static PyObject *
Kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"shift",         "bias",     "special", "extended",
                             "unsigned_zero", "counting", NULL};
    PyObject *luts[N_LUTS], *counting;
    int extended, unsigned_zero;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOppO", kwlist, &luts[SHIFT], &luts[BIAS],
                                     &luts[SPECIAL], &extended, &unsigned_zero, &counting)) {
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
    return (PyObject *)k;

fail:
    Py_DECREF(k);
    return NULL;
}

static PyMethodDef Kernel_methods[] = {
    {"round_one", (PyCFunction)Kernel_round_one, METH_O,
     "round_one(value) -> the rounded work-dtype scalar, or None when handed back"},
    {"round_into", (PyCFunction)(void (*)(void))Kernel_round_into, METH_FASTCALL,
     "round_into(src, dst, resolve) -> None; `resolve` rounds the values handed back"},
    {"reduce_pairwise", (PyCFunction)(void (*)(void))Kernel_reduce_pairwise, METH_FASTCALL,
     "reduce_pairwise(values, indptr, resolve) -> the rounded pairwise sums of each segment; "
     "`resolve` rounds the sums a level hands back"},
    {"take_counts", (PyCFunction)Kernel_take_counts, METH_NOARGS,
     "take_counts() -> (calls, elements, handed_back, zeros), then reset them"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.arithmetic._rounding.Kernel",
    .tp_basicsize = sizeof(Kernel),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Kernel(shift, bias, special, extended, unsigned_zero, counting): "
              "round-to-nearest-even over one format's binade lookup tables",
    .tp_new = Kernel_new,
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_methods = Kernel_methods,
};

static PyMethodDef module_methods[] = {
    {"reduce_pairwise", (PyCFunction)(void (*)(void))module_reduce_pairwise, METH_FASTCALL,
     "reduce_pairwise(values, indptr) -> the unrounded pairwise sums of each segment"},
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
    if (PyModule_AddObjectRef(module, "OperandError", OperandError) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
