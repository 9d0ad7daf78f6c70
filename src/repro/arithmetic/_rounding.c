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
 * `step_none`, which leaves the value as it is.  Every entry below
 * rounds through these steps.  Exact zeros in a special binade are rounded
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
 *                                the rounding.
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

/* OperandError: the operands `round_into` refuses, before it writes */
static PyObject *OperandError;

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

/* Round the values a pass handed back with one `resolve` call and store
 * them in place (x87 values with their padding zeroed). */
static int
resolve_level(const Kernel *k, char *buf, Pass *pass, PyObject *resolve)
{
    const int typenum = k->extended ? NPY_LONGDOUBLE : NPY_DOUBLE;
    const npy_intp size = k->extended ? X87_SLOT : 8;
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
        if (k->extended) {
            ((uint64_t *)dst)[1] &= 0xFFFF;
        }
    }
    Py_DECREF(rounded);
    return 0;
}

/* Close a pass that rounded `n` values of `buf`: count it while the
 * telemetry flag byte is set, resolve its hand-backs, and start afresh. */
static int
end_pass(Kernel *k, char *buf, npy_intp n, Pass *pass, PyObject *resolve)
{
    if (*(const char *)k->counting.buf) {
        k->counts[CALLS] += 1;
        k->counts[ELEMENTS] += (unsigned long long)n;
        k->counts[HANDED_BACK] += (unsigned long long)pass->count;
        k->counts[ZEROS] += pass->zeros;
    }
    const int status = pass->count ? resolve_level(k, buf, pass, resolve) : 0;
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
    if (end_pass(k, dst, n, &pass, args[2]) == 0) {
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
        typenum = k->extended ? NPY_LONGDOUBLE : NPY_DOUBLE;
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
        if (k != NULL && end_pass(k, buf, sums, &pass, resolve) < 0) {
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
