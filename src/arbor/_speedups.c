/* Compiled census kernel: the walk of treebank.segment_census_pure in C.
 *
 * segment_census(t, sizes) profiles every ordered tuple of t-ary trees in
 * which tree j (segment j) has exactly sizes[j] nodes, counting the edges
 * inside the trees only.  It returns a dict mapping each realized edge-type
 * composition (a tuple) to its multiplicity (an int).  With classes=True it
 * returns that dict and a second one, {classes: multiplicity}, classes[r]
 * counting the trees' non-root nodes whose step of the Lukasiewicz path
 * starts at a height congruent to r mod t, as in segment_census_pure.
 *
 * The walk backtracks over preorder words (Knuth, TAOCP 4A, 7.2.1.6): a node
 * symbol or an empty-slot symbol per step, with a stack of per-node
 * "children placed" counters and a running profile, one table increment per
 * tree tuple.  Once a segment has all its nodes the rest of its word is
 * forced (empty slots only), so the walk moves straight on to the next
 * segment.  It is the loop of segment_census_pure step for step, with the
 * same trail of node, segment and closed-frame entries, and it runs with the
 * GIL released.  Counts go to a dense table indexed by the lexicographic
 * rank of the profile among the weak compositions of its total.
 *
 * Classes mode counts the non-root nodes by the height mod t at which their
 * step starts, vacant - 1 in the open segment.  The classes sum to the
 * profile's total, so they are ranked the same way, in P more cells after
 * the P cells of the profiles.  One walk body serves both modes; it is
 * inlined at one call per mode, with the mode a constant, so the plain
 * census carries no class bookkeeping.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define CELL_CAP ((Py_ssize_t)1 << 24)
/* trail entries besides an empty slot, which records how many full frames
   it closed */
#define NODE (-1)
#define SEGMENT (-2)

#if defined(__GNUC__) || defined(__clang__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE inline
#endif

typedef unsigned long long u64;

struct census {
    Py_ssize_t t, k, N, S;  /* arity, segments, nodes and edges per tuple */
    Py_ssize_t P;           /* weak compositions of S into t parts */
    Py_ssize_t *sizes;      /* k: nodes of each segment */
    Py_ssize_t *profile;    /* t: edges of each slot type */
    Py_ssize_t *classes;    /* t: non-root nodes by starting height mod t */
    Py_ssize_t *frames;     /* N: children placed under each open node */
    Py_ssize_t *trail;      /* t*N + k: at most one entry per slot, plus segment starts */
    Py_ssize_t *saved;      /* 2k: top frame and vacant slots of finished segments */
    Py_ssize_t *numcomp;    /* (S+1) x (t+1): weak compositions of s into c parts */
    u64 *counts;            /* P cells, then P for the classes in classes mode */
};

/* Lexicographic rank of parts among the weak compositions of S. */
static Py_ssize_t
rank(const struct census *c, const Py_ssize_t *parts)
{
    Py_ssize_t r = 0, s = c->S, stride = c->t + 1;
    for (Py_ssize_t i = 0; i + 1 < c->t; i++) {
        r += c->numcomp[s * stride + c->t - i];
        s -= parts[i];
        r -= c->numcomp[s * stride + c->t - i];
    }
    return r;
}

/* The class bookkeeping: classes is a constant in each instance of walk. */
static ALWAYS_INLINE void
count_node(struct census *c, const int classes, Py_ssize_t vacant, Py_ssize_t delta)
{
    if (classes)
        c->classes[(vacant - 1) % c->t] += delta;
}

/* One tree tuple, in each table the mode keeps. */
static ALWAYS_INLINE void
tally(struct census *c, const int classes)
{
    c->counts[rank(c, c->profile)]++;
    if (classes)
        c->counts[c->P + rank(c, c->classes)]++;
}

static ALWAYS_INLINE void
walk(struct census *c, const int classes)
{
    const Py_ssize_t t = c->t, k = c->k;
    if (k == 0) {                       /* the empty tuple */
        tally(c, classes);
        return;
    }
    Py_ssize_t *profile = c->profile, *frames = c->frames, *trail = c->trail;
    Py_ssize_t top = 0, len = 0;        /* deepest open frame, trail length */
    Py_ssize_t seg = 0, size = c->sizes[0];
    Py_ssize_t used = 1;                /* nodes placed in the open segment */
    Py_ssize_t vacant = t;              /* unfilled slots in the open segment */
    for (;;) {
        while (used < size) {           /* a node in the next slot */
            profile[frames[top]++]++;
            frames[++top] = 0;
            used++;
            count_node(c, classes, vacant, 1);
            vacant += t - 1;
            trail[len++] = NODE;
        }
        if (seg + 1 < k) {
            c->saved[2 * seg] = top;
            c->saved[2 * seg + 1] = vacant;
            size = c->sizes[++seg];
            frames[++top] = 0;
            used = 1;
            vacant = t;
            trail[len++] = SEGMENT;
            continue;
        }
        tally(c, classes);
        /* back up to the latest node whose slot can take an empty instead */
        for (;;) {
            if (len == 0)
                return;
            Py_ssize_t entry = trail[--len];
            if (entry == SEGMENT) {
                seg--;
                top = c->saved[2 * seg];
                vacant = c->saved[2 * seg + 1];
                size = used = c->sizes[seg];
            }
            else if (entry == NODE) {
                top--;
                profile[frames[top] - 1]--;
                used--;
                vacant -= t - 1;
                count_node(c, classes, vacant, -1);
                if (vacant > 1) {       /* the tree stays open, so it can still grow */
                    Py_ssize_t closed = 0;
                    vacant--;
                    while (frames[top] == t) {
                        top--;
                        closed++;
                    }
                    trail[len++] = closed;
                    break;
                }
                frames[top]--;
            }
            else {
                while (entry-- > 0)
                    frames[++top] = t;
                frames[top]--;
                vacant++;
            }
        }
    }
}

/* A Python int as a Py_ssize_t no larger than max; one that does not fit is
   a ValueError, so the caller can refuse it like any other bad input. */
static int
to_ssize(PyObject *obj, Py_ssize_t max, const char *what, Py_ssize_t *out)
{
    *out = PyNumber_AsSsize_t(obj, NULL);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    if (*out > max || *out == PY_SSIZE_T_MIN) {
        PyErr_Format(PyExc_ValueError,
                     "%s %R does not fit the compiled kernel", what, obj);
        return -1;
    }
    return 0;
}

/* C(S+t-1, t-1), the weak compositions of S into t parts, or CELL_CAP + 1
   when there are more than CELL_CAP. */
static Py_ssize_t
cell_count(Py_ssize_t S, Py_ssize_t t)
{
    Py_ssize_t n = S + t - 1, r = S < t - 1 ? S : t - 1, cells = 1;
    if (r > 0 && n > CELL_CAP)
        return CELL_CAP + 1;
    for (Py_ssize_t i = 1; i <= r && cells <= CELL_CAP; i++)
        cells = cells * (n - r + i) / i;
    return cells <= CELL_CAP ? cells : CELL_CAP + 1;
}

/* Step work to the next weak composition in lexicographic order; work must
   not hold the last one, (S, 0, ..., 0). */
static void
next_composition(Py_ssize_t *work, Py_ssize_t t)
{
    Py_ssize_t rest = work[t - 1], j = t - 2;
    for (; rest == 0; j--)
        rest += work[j];
    work[j]++;
    for (Py_ssize_t i = j + 1; i < t - 1; i++)
        work[i] = 0;
    work[t - 1] = rest - 1;
}

/* The tuple of parts[0..t). */
static PyObject *
as_tuple(const Py_ssize_t *parts, Py_ssize_t t)
{
    PyObject *tuple = PyTuple_New(t);
    for (Py_ssize_t i = 0; tuple != NULL && i < t; i++) {
        PyObject *part = PyLong_FromSsize_t(parts[i]);
        if (part == NULL)
            Py_CLEAR(tuple);
        else
            PyTuple_SET_ITEM(tuple, i, part);
    }
    return tuple;
}

/* The nonzero cells of counts[0..P) as {composition: count}, stepping row
   through the compositions in lexicographic order. */
static PyObject *
table(const struct census *c, const u64 *counts, Py_ssize_t *row)
{
    const Py_ssize_t t = c->t;
    PyObject *result = PyDict_New();
    for (Py_ssize_t i = 0; i < t; i++)
        row[i] = i + 1 < t ? 0 : c->S;
    for (Py_ssize_t p = 0; result != NULL && p < c->P; p++) {
        if (p)
            next_composition(row, t);
        if (counts[p] == 0)
            continue;
        PyObject *key = as_tuple(row, t);
        PyObject *value = PyLong_FromUnsignedLongLong(counts[p]);
        if (key == NULL || value == NULL || PyDict_SetItem(result, key, value) < 0)
            Py_CLEAR(result);
        Py_XDECREF(key);
        Py_XDECREF(value);
    }
    return result;
}

static PyObject *
segment_census(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"t", "sizes", "classes", NULL};
    /* bounds every buffer size below, so no size computation overflows */
    const Py_ssize_t limit = PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(Py_ssize_t) / 4;
    PyObject *sizes_obj, *sizes = NULL, *result = NULL;
    struct census c = {0};
    Py_ssize_t *words = NULL, *lex, t, k, nodes, N = 0;
    int classes = 0;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "nO|p:segment_census", kwlist,
                                     &t, &sizes_obj, &classes))
        return NULL;
    if (t < 1 || t > limit)
        return PyErr_Format(PyExc_ValueError, "arity must lie in 1..%zd, got %zd", limit, t);
    sizes = PySequence_Fast(sizes_obj, "sizes must be a sequence");
    if (sizes == NULL)
        goto done;
    k = PySequence_Fast_GET_SIZE(sizes);
    /* sizes, profile, classes, the lexicographic row of table and saved;
       frames, trail and numcomp follow once N is known */
    words = PyMem_Calloc(3 * k + 3 * t, sizeof(Py_ssize_t));
    if (words == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    c.t = t;
    c.k = k;
    c.sizes = words;
    c.profile = words + k;
    c.classes = c.profile + t;
    lex = c.classes + t;
    c.saved = lex + t;
    for (Py_ssize_t j = 0; j < k; j++) {
        if (to_ssize(PySequence_Fast_GET_ITEM(sizes, j),
                     (limit - k) / t - 1 - N, "segment size", &nodes) < 0)
            goto done;
        if (nodes < 1) {
            PyErr_Format(PyExc_ValueError, "segment size %zd must be >= 1", nodes);
            goto done;
        }
        c.sizes[j] = nodes;
        N += nodes;
    }
    c.N = N;
    c.S = N - k;
    c.P = cell_count(c.S, t);
    if (c.P > CELL_CAP) {
        PyErr_Format(PyExc_ValueError, "composition space too large for the "
                     "compiled kernel (more than %zd cells)", CELL_CAP);
        goto done;
    }
    c.frames = PyMem_Calloc(N + t * N + k + (c.S + 1) * (t + 1), sizeof(Py_ssize_t));
    c.counts = PyMem_Calloc(classes ? 2 * c.P : c.P, sizeof(u64));
    if (c.frames == NULL || c.counts == NULL) {   /* refused like a size too large */
        PyErr_Format(PyExc_ValueError,
                     "%zd nodes do not fit the compiled kernel's memory", N);
        goto done;
    }
    c.trail = c.frames + N;
    c.numcomp = c.trail + t * N + k;
    for (Py_ssize_t s = 0; s <= c.S; s++) {   /* C(s+col-1, col-1) */
        Py_ssize_t *row = c.numcomp + s * (t + 1);
        row[0] = s == 0;
        for (Py_ssize_t col = 1; col <= t; col++)
            row[col] = row[col - 1] + (s ? row[col - t - 1] : 0);
    }
    Py_BEGIN_ALLOW_THREADS
    if (classes)
        walk(&c, 1);
    else
        walk(&c, 0);
    Py_END_ALLOW_THREADS
    result = table(&c, c.counts, lex);
    if (classes && result != NULL)      /* a NULL second table frees the first */
        result = Py_BuildValue("(NN)", result, table(&c, c.counts + c.P, lex));
done:
    Py_XDECREF(sizes);
    PyMem_Free(words);
    PyMem_Free(c.frames);
    PyMem_Free(c.counts);
    return result;
}

static PyMethodDef methods[] = {
    {"segment_census", (PyCFunction)(void (*)(void))segment_census,
     METH_VARARGS | METH_KEYWORDS,
     "segment_census(t, sizes, classes=False) -> {edge-type composition: multiplicity},\n"
     "and {classes: multiplicity} beside it with classes=True"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "arbor._speedups",
    "Compiled census kernel, the walk of treebank.segment_census_pure in C.",
    -1, methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&module);
}
