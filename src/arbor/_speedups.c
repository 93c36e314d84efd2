/* Compiled census kernel: the walk of treebank.segment_census_pure in C.
 *
 * segment_census(t, jobs, classes=False) walks a list of jobs, each a pair
 * of tuples (sizes, roots), into one table: every ordered tuple of at most
 * t t-ary trees, tree j (segment j) with exactly sizes[j] nodes, counting
 * the edges inside the trees plus roots[i] in slot i + 1.  It returns a
 * dict mapping each realized edge-type composition (a tuple) to its
 * multiplicity (an int).  With classes=True it returns that dict and a
 * second one, {classes: multiplicity}, classes[r] counting the trees'
 * non-root nodes whose step of the Lukasiewicz path starts at a height
 * congruent to r mod t, as in segment_census_pure.
 *
 * The walk backtracks over preorder words (Knuth, TAOCP 4A, 7.2.1.6): a node
 * symbol or an empty-slot symbol per step, with a stack of per-node
 * "children placed" counters and a running profile, one table increment per
 * tree tuple.  Once a segment has all its nodes the rest of its word is
 * forced (empty slots only), so the walk moves straight on to the next
 * segment.  It is the loop of segment_census_pure step for step, with the
 * same trail of node, segment and closed-frame entries, and it runs with the
 * GIL released.  The jobs' profiles share one total; counts go to a dense
 * table indexed by the lexicographic rank of the profile less the jobs'
 * root floor (their elementwise minimum) among the weak compositions of
 * its total, so a forest ranks in its free edges only.
 *
 * Classes mode counts the non-root nodes by the height mod t at which their
 * step starts, vacant - 1 in the open segment.  Their jobs share one roots
 * vector, so the classes are ranked as the profiles are, in P more cells.
 * One walk body serves both modes, each its own function with the mode a
 * constant, so the plain census carries no class bookkeeping.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define CELL_CAP ((Py_ssize_t)1 << 24)
/* trail entries besides an empty slot, which records how many full frames
   it closed */
#define NODE (-1)
#define SEGMENT (-2)

/* Inlined into the job loop, the walk took 74 ms for t=3 n=11 against 67. */
#if defined(__GNUC__) || defined(__clang__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#define WALK __attribute__((noinline))
#else
#define ALWAYS_INLINE inline
#define WALK
#endif

typedef unsigned long long u64;

struct census {
    Py_ssize_t t, k, N, S;  /* arity, segments and nodes of a job, edges ranked */
    Py_ssize_t P;           /* weak compositions of S into t parts */
    const Py_ssize_t *sizes; /* k: nodes of each segment */
    Py_ssize_t *profile;    /* t: edges of each slot type, less the root floor */
    Py_ssize_t *classes;    /* t: non-root nodes by starting height mod t */
    Py_ssize_t *frames;     /* N: children placed under each open node */
    Py_ssize_t *trail;      /* t*N + t: at most one entry per slot, plus segment starts */
    Py_ssize_t *saved;      /* 2t: top frame and vacant slots of finished segments */
    Py_ssize_t *numcomp;    /* (S+1) x (t+1): weak compositions of s into c parts */
    u64 *counts;            /* P cells, then P for the classes in classes mode */
};

/* Lexicographic rank of parts among the weak compositions of S. */
static Py_ssize_t
rank(const struct census *c, const Py_ssize_t *parts)
{
    const Py_ssize_t t = c->t, stride = t + 1, *col = c->numcomp + t;
    Py_ssize_t r = 0, s = c->S;
    for (Py_ssize_t i = 0; i + 1 < t; i++, col--) {    /* col: column t - i */
        r += col[s * stride];
        s -= parts[i];
        r -= col[s * stride];
    }
    return r;
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
            if (classes)                /* a constant in each instance of walk */
                c->classes[(vacant - 1) % t]++;
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
                if (classes)
                    c->classes[(vacant - 1) % t]--;
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

/* A copy of the census, which no store through its arrays can alias, keeps
   its fields in registers. */
static WALK void walk_edges(struct census c) { walk(&c, 0); }
static WALK void walk_classes(struct census c) { walk(&c, 1); }

/* A Python int as a Py_ssize_t in least..max; one outside is a ValueError,
   so the caller can refuse it like any other bad input. */
static int
to_ssize(PyObject *obj, Py_ssize_t least, Py_ssize_t max, const char *what,
         Py_ssize_t *out)
{
    *out = PyNumber_AsSsize_t(obj, NULL);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    if (*out < least)
        PyErr_Format(PyExc_ValueError, "%s %zd must be >= %zd", what, *out, least);
    else if (*out > max)
        PyErr_Format(PyExc_ValueError, "%s %R does not fit the compiled kernel", what, obj);
    return *out < least || *out > max ? -1 : 0;
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

/* The nonzero cells of counts[0..P) as {composition + base: count}, stepping
   row through the compositions in lexicographic order; base NULL adds 0. */
static PyObject *
table(const struct census *c, const u64 *counts, Py_ssize_t *row, const Py_ssize_t *base)
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
        PyObject *key = PyTuple_New(t), *value = PyLong_FromUnsignedLongLong(counts[p]);
        for (Py_ssize_t i = 0; key != NULL && i < t; i++) {
            PyObject *part = PyLong_FromSsize_t(row[i] + (base ? base[i] : 0));
            if (part == NULL)
                Py_CLEAR(key);
            else
                PyTuple_SET_ITEM(key, i, part);
        }
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
    static char *kwlist[] = {"t", "jobs", "classes", NULL};
    /* bounds every buffer size below, so no size computation overflows */
    const Py_ssize_t limit = PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(Py_ssize_t) / 4;
    PyObject *jobs_obj, *jobs, *result = NULL;
    struct census c = {0};
    Py_ssize_t *words = NULL, *floor, *lex, *first, *job, t, J, total = 0;
    int classes = 0;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "nO|p:segment_census", kwlist,
                                     &t, &jobs_obj, &classes))
        return NULL;
    if (t < 1 || t > limit)
        return PyErr_Format(PyExc_ValueError, "arity must lie in 1..%zd, got %zd", limit, t);
    jobs = PySequence_Tuple(jobs_obj);
    if (jobs == NULL)
        return NULL;
    /* profile, classes, the root floor, the lexicographic row of table, then
       each job as k, roots[0..t), sizes[0..k) in 1 + 2t words */
    J = PyTuple_GET_SIZE(jobs);
    words = J < limit / (2 * t + 1) ?
        PyMem_Calloc(4 * t + J * (2 * t + 1), sizeof(Py_ssize_t)) : NULL;
    if (words == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    c.t = t;
    c.profile = words;
    c.classes = words + t;
    floor = words + 2 * t;
    lex = words + 3 * t;
    first = job = words + 4 * t;
    for (Py_ssize_t j = 0; j < J; j++, job += 1 + 2 * t) {
        PyObject *pair = PyTuple_GET_ITEM(jobs, j);
        int is_pair = PyTuple_Check(pair) && PyTuple_GET_SIZE(pair) == 2;
        PyObject *sizes = is_pair ? PyTuple_GET_ITEM(pair, 0) : NULL;
        PyObject *roots = is_pair ? PyTuple_GET_ITEM(pair, 1) : NULL;
        Py_ssize_t k = 0, N = 0, lift = 0;
        if (!is_pair || !PyTuple_Check(sizes) || !PyTuple_Check(roots) ||
            (k = PyTuple_GET_SIZE(sizes)) > t || PyTuple_GET_SIZE(roots) != t) {
            PyErr_Format(PyExc_ValueError, "each job must be a (sizes, roots) pair of "
                         "tuples, at most %zd sizes and %zd roots", t, t);
            goto done;
        }
        job[0] = k;
        for (Py_ssize_t i = 0; i < k; N += job[1 + t + i++])
            if (to_ssize(PyTuple_GET_ITEM(sizes, i), 1, limit / t - 1 - N,
                         "segment size", job + 1 + t + i) < 0)
                goto done;
        for (Py_ssize_t i = 0; i < t; lift += job[1 + i++])
            if (to_ssize(PyTuple_GET_ITEM(roots, i), 0, limit / t - lift,
                         "root edge count", job + 1 + i) < 0)
                goto done;
        if (j == 0)
            total = N - k + lift;
        else if (N - k + lift != total ||
                 (classes && memcmp(job + 1, first + 1, t * sizeof *job) != 0)) {
            PyErr_SetString(PyExc_ValueError, "jobs fill different composition spaces");
            goto done;
        }
        for (Py_ssize_t i = 0; i < t; i++)
            floor[i] = j == 0 || job[1 + i] < floor[i] ? job[1 + i] : floor[i];
        c.N = Py_MAX(c.N, N);
    }
    c.S = total;
    for (Py_ssize_t i = 0; i < t; i++)
        c.S -= floor[i];
    c.P = cell_count(c.S, t);
    if (c.P > CELL_CAP) {
        PyErr_Format(PyExc_ValueError, "composition space too large for the "
                     "compiled kernel (more than %zd cells)", CELL_CAP);
        goto done;
    }
    /* frames, trail and saved for the largest job, then numcomp */
    c.frames = PyMem_Calloc(c.N + t * c.N + 3 * t + (c.S + 1) * (t + 1), sizeof(Py_ssize_t));
    c.counts = PyMem_Calloc(classes ? 2 * c.P : c.P, sizeof(u64));
    if (c.frames == NULL || c.counts == NULL) {   /* refused like a size too large */
        PyErr_Format(PyExc_ValueError,
                     "%zd nodes do not fit the compiled kernel's memory", c.N);
        goto done;
    }
    c.trail = c.frames + c.N;
    c.saved = c.trail + t * c.N + t;
    c.numcomp = c.saved + 2 * t;
    for (Py_ssize_t s = 0; s <= c.S; s++) {   /* C(s+col-1, col-1) */
        Py_ssize_t *row = c.numcomp + s * (t + 1);
        row[0] = s == 0;
        for (Py_ssize_t col = 1; col <= t; col++)
            row[col] = row[col - 1] + (s ? row[col - t - 1] : 0);
    }
    Py_BEGIN_ALLOW_THREADS
    for (job = first; job < first + J * (2 * t + 1); job += 1 + 2 * t) {
        c.k = job[0];
        c.sizes = job + 1 + t;
        for (Py_ssize_t i = 0; i < t; i++)
            c.profile[i] = job[1 + i] - floor[i];
        if (classes)
            walk_classes(c);
        else
            walk_edges(c);
    }
    Py_END_ALLOW_THREADS
    result = table(&c, c.counts, lex, floor);
    if (classes && result != NULL)      /* a NULL second table frees the first */
        result = Py_BuildValue("(NN)", result, table(&c, c.counts + c.P, lex, NULL));
done:
    Py_DECREF(jobs);
    PyMem_Free(words);
    PyMem_Free(c.frames);
    PyMem_Free(c.counts);
    return result;
}

static PyMethodDef methods[] = {
    {"segment_census", (PyCFunction)(void (*)(void))segment_census,
     METH_VARARGS | METH_KEYWORDS,
     "segment_census(t, jobs, classes=False) -> {edge-type composition: multiplicity}\n"
     "over every (sizes, roots) job, and {classes: multiplicity} beside it with classes=True"},
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
