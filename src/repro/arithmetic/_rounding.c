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
 * Exact zeros in a special binade are rounded here too (`-0.0` becomes
 * `+0.0` for formats with one unsigned zero).  Every other value in a
 * special binade (extreme regimes, overflow bands, deep subnormals,
 * infinities, NaN) is handed back to the caller, which rounds it with the
 * format's analytic kernel.
 *
 * Entries:
 *   Kernel.round_one(value)      one float64 / longdouble scalar -> the
 *                                rounded NumPy scalar, or None when the
 *                                value is handed back (or is not a float
 *                                of the work layout);
 *   Kernel.round_into(src, dst)  rounds the C-contiguous buffer `src` into
 *                                `dst` (same length; may be `src` itself)
 *                                and returns None, or the `intp` array of
 *                                the positions it handed back, which it
 *                                left unwritten.  Non-contiguous or
 *                                partially overlapping buffers raise
 *                                BufferError;
 *   Kernel.take_counts()         (calls, elements, handed_back, zeros) of
 *                                `round_into` since the last call, counted
 *                                while the telemetry flag byte is set.
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

static inline int
round_f64(const Tables *t, uint64_t *word)
{
    const uint64_t u = *word;
    const unsigned idx = (unsigned)(u >> 52);
    const uint8_t special = t->special[idx];
    if (special == 0) {
        const uint64_t s = t->shift[idx];
        *word = ((u + t->bias[idx] + ((u >> s) & 1)) >> s) << s;
        return SERVED;
    }
    if (special == SPECIAL_IDENTITY) {
        return SERVED;
    }
    if (u << 1) {
        return HAND_BACK;
    }
    if (t->unsigned_zero) {
        *word = 0;
    }
    return ZERO;
}

/* `*hi` holds the sign/exponent word with the padding already masked off */
static inline int
round_x87(const Tables *t, uint64_t *lo, uint64_t *hi)
{
    const unsigned idx = (unsigned)*hi;
    const uint8_t special = t->special[idx];
    if (special == 0) {
        const uint64_t m = *lo;
        const uint64_t s = t->shift[idx];
        const uint64_t acc = m + t->bias[idx] + ((m >> s) & 1);
        if (acc < m) { /* carry out of the binade: 1.0 one binade up */
            *lo = (uint64_t)1 << 63;
            *hi += 1;
        }
        else {
            *lo = (acc >> s) << s;
        }
        return SERVED;
    }
    if (special == SPECIAL_IDENTITY) {
        return SERVED;
    }
    if (*lo || (*hi & 0x7FFF)) {
        return HAND_BACK;
    }
    if (t->unsigned_zero) {
        *hi = 0;
    }
    return ZERO;
}

static PyObject *
Kernel_round_one(Kernel *k, PyObject *value)
{
    if (k->extended) {
        uint64_t w[2] = {0, 0};
        if (PyArray_IsScalar(value, LongDouble)) {
            memcpy(w, &PyArrayScalar_VAL(value, LongDouble), X87_SLOT);
        }
        else if (PyFloat_Check(value)) {
            const npy_longdouble x = (npy_longdouble)PyFloat_AS_DOUBLE(value);
            memcpy(w, &x, X87_SLOT);
        }
        else {
            Py_RETURN_NONE;
        }
        uint64_t lo = w[0], hi = w[1] & 0xFFFF;
        const Tables t = tables_of(k);
        if (round_x87(&t, &lo, &hi) == HAND_BACK) {
            Py_RETURN_NONE;
        }
        PyObject *res = PyArrayScalar_New(LongDouble);
        if (res != NULL) {
            uint64_t *out = (uint64_t *)&PyArrayScalar_VAL(res, LongDouble);
            out[0] = lo;
            out[1] = hi;
        }
        return res;
    }
    if (!PyFloat_Check(value)) {
        Py_RETURN_NONE;
    }
    const double x = PyFloat_AS_DOUBLE(value);
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    const Tables t = tables_of(k);
    if (round_f64(&t, &u) == HAND_BACK) {
        Py_RETURN_NONE;
    }
    PyObject *res = PyArrayScalar_New(Double);
    if (res != NULL) {
        memcpy(&PyArrayScalar_VAL(res, Double), &u, sizeof u);
    }
    return res;
}

/* positions handed back by one `round_into` call, grown on demand */
typedef struct {
    npy_intp *pos;
    npy_intp count;
    npy_intp capacity;
} Positions;

static int
hand_back(Positions *back, npy_intp i)
{
    if (back->count == back->capacity) {
        const npy_intp capacity = back->capacity ? 2 * back->capacity : 64;
        npy_intp *pos = PyMem_Realloc(back->pos, (size_t)capacity * sizeof(npy_intp));
        if (pos == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        back->pos = pos;
        back->capacity = capacity;
    }
    back->pos[back->count++] = i;
    return 0;
}

static int
check_buffer(const Kernel *k, const Py_buffer *view, const char *what)
{
    const char *want = k->extended ? "g" : "d";
    const Py_ssize_t size = k->extended ? X87_SLOT : 8;
    if (view->itemsize != size || view->format == NULL || strcmp(view->format, want) != 0) {
        PyErr_Format(PyExc_BufferError, "%s: expected a buffer of format '%s'", what, want);
        return -1;
    }
    if (!PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_BufferError, "%s: buffer is not C-contiguous", what);
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
    Positions back = {NULL, 0, 0};
    PyObject *res = NULL;
    const char *src = in.buf;
    char *dst = out.buf;
    if (check_buffer(k, &in, "src") < 0 || check_buffer(k, &out, "dst") < 0) {
        goto done;
    }
    if (in.len != out.len) {
        PyErr_SetString(PyExc_BufferError, "src and dst differ in length");
        goto done;
    }
    const uintptr_t a = (uintptr_t)src, b = (uintptr_t)dst;
    if (a != b && a < b + (uintptr_t)out.len && b < a + (uintptr_t)in.len) {
        PyErr_SetString(PyExc_BufferError, "src and dst overlap without being the same buffer");
        goto done;
    }
    const Py_ssize_t n = in.len / in.itemsize;
    const Tables t = tables_of(k);
    const int extended = k->extended;
    unsigned long long zeros = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        int outcome;
        if (extended) {
            uint64_t w[2];
            memcpy(w, src + i * X87_SLOT, X87_SLOT);
            w[1] &= 0xFFFF;
            outcome = round_x87(&t, &w[0], &w[1]);
            if (outcome != HAND_BACK) {
                memcpy(dst + i * X87_SLOT, w, X87_SLOT);
            }
        }
        else {
            uint64_t u;
            memcpy(&u, src + i * 8, 8);
            outcome = round_f64(&t, &u);
            if (outcome != HAND_BACK) {
                memcpy(dst + i * 8, &u, 8);
            }
        }
        if (outcome == ZERO) {
            zeros++;
        }
        else if (outcome == HAND_BACK && hand_back(&back, i) < 0) {
            goto done;
        }
    }
    if (*(const char *)k->counting.buf) {
        k->counts[CALLS] += 1;
        k->counts[ELEMENTS] += (unsigned long long)n;
        k->counts[HANDED_BACK] += (unsigned long long)back.count;
        k->counts[ZEROS] += zeros;
    }
    if (back.count == 0) {
        res = Py_NewRef(Py_None);
    }
    else if ((res = PyArray_SimpleNew(1, &back.count, NPY_INTP)) != NULL) {
        memcpy(PyArray_DATA((PyArrayObject *)res), back.pos, (size_t)back.count * sizeof(npy_intp));
    }

done:
    PyMem_Free(back.pos);
    PyBuffer_Release(&in);
    PyBuffer_Release(&out);
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
     "round_into(src, dst) -> None, or the intp array of positions handed back"},
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

static struct PyModuleDef rounding_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_rounding",
    .m_doc = "Compiled round-to-nearest-even kernels of the emulated number formats.",
    .m_size = -1,
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
    return module;
}
