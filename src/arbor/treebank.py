"""t-ary trees, ordered forests, exhaustive enumeration, and edge-type censuses.

The censuses are the brute-force side of every cross-check: they generate
each object and profile it, never touching the closed forms (the only
closed-form use is the up-front budget guard).

Census aggregation runs one walk, backtracking over preorder words, in one
of two kernels: the compiled ``arbor._speedups`` (hand-written C in
``_speedups.c``) and :func:`segment_census_pure`.  They are the same walk
step for step, forced tail included, written once in C and once in Python.
The compiled kernel is picked up at import time when available; both
produce identical tables.

A census job is a pair (sizes, roots): the kernel profiles the edges inside
every tuple of trees with those sizes, each profile starting at roots[i]
edges in slot i + 1 (none for a whole tree, one per nonempty slot of a root
split, one in each of slots 1..m for a forest).  A kernel call walks a list
of jobs into one table; each worker of a census makes one call.

In classes mode the kernels also count each tree's non-root nodes by the
height mod t at which the node's step of the Lukasiewicz path starts;
:func:`joint_census` returns the edge-profile table and that class table
of one walk, and the ``paths`` probe reads both distributions from them
(the falls per residue class are the node count minus the classes) instead
of walking the listing.

One reader, :func:`read_preorder`, builds a tree from its preorder word:
:func:`parse_tree` feeds it the characters of a serialization and
``paths.path_to_tree`` the rises of a Lukasiewicz path.

The listing keeps its own walk over slot sizes, in the order the ``paths``
output pins, and builds no objects: its trail is each tree's preorder word
(:func:`tree_texts`), which ``paths`` writes from its step tokens and
:func:`enumerate_trees` and :func:`enumerate_forests` read back as ``o``
and ``.`` through :func:`read_preorder`.
"""
from __future__ import annotations

import os
import threading
from collections import Counter
from math import prod
from typing import Iterator, Optional, Sequence

from arbor import counting
from arbor.errors import ConstraintError, check_budget

try:
    from arbor._speedups import segment_census as _segment_census_compiled
except ImportError:
    _segment_census_compiled = None

HAVE_SPEEDUPS = _segment_census_compiled is not None


class TAryTree:
    """Ordered tree in which every node carries the same number of child slots.

    ``children`` holds exactly ``arity`` entries, each ``None`` (empty slot)
    or a subtree of the same arity.  Instances are immutable by convention
    and freely shareable.
    """

    __slots__ = ("children", "size")

    def __init__(self, children: Sequence[Optional["TAryTree"]]):
        kids = tuple(children)
        if not kids:
            raise ConstraintError("a tree node needs at least one child slot")
        size = 1
        for ch in kids:
            if ch is not None:
                if ch.arity != len(kids):
                    raise ConstraintError(
                        f"child arity {ch.arity} differs from parent arity {len(kids)}"
                    )
                size += ch.size
        self.children = kids
        self.size = size

    @property
    def arity(self) -> int:
        return len(self.children)

    @classmethod
    def leaf(cls, t: int) -> "TAryTree":
        return cls((None,) * t)

    def __eq__(self, other):
        if not isinstance(other, TAryTree):
            return NotImplemented
        # a preorder word fixes the arity and the shape, and serialize_tree
        # walks without recursion, so deep trees compare too
        return serialize_tree(self) == serialize_tree(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"TAryTree({serialize_tree(self)!r})"


class Forest:
    """Ordered sequence of m non-empty trees of equal arity t, with m < t."""

    __slots__ = ("trees",)

    def __init__(self, trees: Sequence[TAryTree]):
        ts = tuple(trees)
        if not ts:
            raise ConstraintError("a forest needs at least one tree")
        t = ts[0].arity
        for tr in ts:
            if tr.arity != t:
                raise ConstraintError("forest trees must share one arity")
        if len(ts) >= t:
            raise ConstraintError(
                f"forest size m={len(ts)} must be < arity t={t}"
            )
        self.trees = ts

    @property
    def m(self) -> int:
        return len(self.trees)

    @property
    def arity(self) -> int:
        return self.trees[0].arity

    def __eq__(self, other):
        if not isinstance(other, Forest):
            return NotImplemented
        return self.trees == other.trees

    __hash__ = None

    def __repr__(self) -> str:
        return "Forest(%s)" % ", ".join(serialize_tree(tr) for tr in self.trees)


def serialize_tree(tree: TAryTree) -> str:
    """Canonical preorder text: ``o`` per node, ``.`` per empty slot.

    The t=3 lone root reads ``o...``; a root with only a middle child reads
    ``o.o....``.
    """
    parts = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is None:
            parts.append(".")
        else:
            parts.append("o")
            stack.extend(reversed(node.children))
    return "".join(parts)


def read_preorder(word: Sequence, t: int, node, empty):
    """Build the t-ary tree whose preorder word is ``word``, ``node`` standing
    for a node and ``empty`` for an empty child slot.

    Returns (tree, None, None), or (None, fault, index) at the first fault:
    ``"symbol"`` for any other symbol or an empty slot before the root,
    ``"after"`` for a symbol after the tree closed, ``"end"`` (index
    ``len(word)``) for a word that ends before the tree closes.
    """
    stack: list[list] = []  # child lists of the open nodes
    for index, symbol in enumerate(word):
        if symbol == node:
            stack.append([])
        elif symbol == empty and stack:
            stack[-1].append(None)
        else:
            return None, "symbol", index
        while len(stack[-1]) == t:
            tree = TAryTree(stack.pop())
            if not stack:
                if index + 1 < len(word):
                    return None, "after", index + 1
                return tree, None, None
            stack[-1].append(tree)
    return None, "end", len(word)


def parse_tree(text: str, t: int) -> TAryTree:
    """Inverse of :func:`serialize_tree` for arity t."""
    counting.check_arity(t)
    tree, fault, index = read_preorder(text, t, "o", ".")
    if fault is None:
        return tree
    if fault == "after":
        raise ConstraintError(f"trailing characters at position {index} of {text!r}")
    if fault == "end" and index:
        raise ConstraintError(f"unexpected end of input in {text!r}")
    raise ConstraintError(f"expected 'o' at position {index} of {text!r}")


def edge_profile(tree: TAryTree) -> counting.EdgeComposition:
    """Per-slot edge counts of a tree; parts sum to size - 1."""
    counts = [0] * tree.arity
    stack = [tree]
    while stack:
        node = stack.pop()
        for i, ch in enumerate(node.children):
            if ch is not None:
                counts[i] += 1
                stack.append(ch)
    return tuple(counts)


def forest_profile(forest: Forest) -> counting.EdgeComposition:
    """Per-slot edge counts of a forest, the root edge of tree j counting
    toward slot j; parts sum to the total node count."""
    counts = [0] * forest.arity
    for i in range(forest.m):
        counts[i] += 1
    for tr in forest.trees:
        for i, c in enumerate(edge_profile(tr)):
            counts[i] += c
    return tuple(counts)


def enumerate_trees(t: int, n: int) -> Iterator[TAryTree]:
    """Every t-ary tree with exactly n nodes, exactly once.

    Order is deterministic: lexicographic on the preorder sequence of slot
    sizes, that is the root's first slot size s1, then the same sequence for
    the subtree in that slot, then s2, and so on.  n = 0 yields nothing.
    """
    for word in tree_texts(t, n, "o", "o" * t, "." * t):
        yield read_preorder(word, t, "o", ".")[0]


def enumerate_forests(t: int, m: int, n: int) -> Iterator[Forest]:
    """Every ordered m-tuple of non-empty t-ary trees with n total nodes.

    Node splits run lexicographically; within a split the leftmost tree
    varies slowest.
    """
    counting.shape(t, n, m)
    for sizes in _forest_sizes(m, n):
        # a space before each root token parts the words of the trees
        for words in _preorder_texts(t, sizes, " o", "o" * t, "." * t):
            yield Forest([read_preorder(word, t, "o", ".")[0] for word in words.split()])


def _forest_sizes(m: int, n: int) -> Iterator[tuple]:
    """The tree sizes of every node split of an m-forest with n nodes,
    lexicographically."""
    for split in counting.compositions(m, n - m):
        yield tuple(s + 1 for s in split)


def tree_texts(t: int, n: int, root: str, rises: Sequence[str],
               falls: Sequence[str]) -> Iterator[str]:
    """The preorder text of every n-node t-ary tree, in :func:`enumerate_trees`
    order: ``root``, then slot by slot in preorder ``rises[i]`` for a node in
    slot i + 1 of its parent or ``falls[i]`` for an empty one.  n = 0 yields
    nothing."""
    if n == 0:
        counting.check_arity(t)
        return
    counting.shape(t, n)
    yield from _preorder_texts(t, (n,), root, rises, falls)


def _preorder_texts(t: int, sizes: Sequence[int], root: str, rises: Sequence[str],
                    falls: Sequence[str]) -> Iterator[str]:
    """The texts of :func:`tree_texts`, run together, of every tuple of t-ary
    trees of the given sizes, the last varying fastest: a backtracking walk
    over the preorder slot sizes (Knuth, TAOCP 4A, 7.2.1.6) in O(t *
    sum(sizes)) memory.  Each filled slot pushes its token and backing up
    pops it.  Once every node is placed only empty slots remain: the rest of
    an open node with f slots filled is ``tails[f]``, made once per call."""
    tails = ["".join(falls[filled:]) for filled in range(t + 1)]
    below = []   # (slots filled, nodes left to place) of each open node under the top
    slot, rest = 0, sum(sizes)  # the same for the top, at first the tuple of trees
    unplaced = rest
    tokens = []
    trail = []   # per filled slot: the size placed, or minus the nodes an empty closed
    size = None  # the size for the next slot, None for its least
    while True:
        while unplaced:
            if size is None:
                if not below:
                    size = sizes[slot]
                else:  # empty, except that the last slot takes the rest
                    size = 0 if slot < t - 1 else rest
            if size:
                tokens.append(rises[slot] if below else root)
                trail.append(size)
                below.append((slot + 1, rest - size))
                slot, rest = 0, size - 1
                unplaced -= 1
            else:
                tokens.append(falls[slot])
                slot += 1
                closed = 0
                while slot == t and below:  # close full nodes
                    slot, rest = below.pop()
                    closed -= 1
                trail.append(closed)
            size = None
        yield "".join(tokens) + tails[slot] + "".join([tails[f] for f, _ in below[:0:-1]])
        # back up to the latest slot that can take one node more
        while size is None:
            if not trail:
                return
            placed = trail.pop()
            tokens.pop()
            if placed > 0:
                slot, rest = below.pop()
                rest += placed
                unplaced += 1
            elif placed:  # reopen the nodes it closed
                below.append((slot, rest))
                below += [(t, 0)] * (-placed - 1)
                slot, rest, placed = t, 0, 0
            slot -= 1
            if below and placed < rest:
                size = placed + 1


def segment_census_pure(t: int, jobs: Sequence[tuple], classes: bool = False):
    """Pure-Python census kernel: profile every tuple of trees of each job
    (sizes, roots) into one table.

    Segment j < t is a tree with exactly sizes[j] nodes; a profile counts
    the edges inside the trees, plus roots[i] in slot i + 1.  Each job is a
    pair of tuples, at most t sizes and t roots, none below 1 and 0; the
    jobs' profiles must share one total, and in classes mode one roots
    vector.  Both kernels refuse the same jobs with the same messages.

    The compiled kernel in ``_speedups.c`` runs this walk step for step,
    forced tail and trail included.  It backtracks over preorder words (a
    node symbol or an empty-slot symbol per step; Knuth, TAOCP 4A,
    7.2.1.6) without recursion, with a stack of per-node "children placed"
    counters and a running profile, one table increment per tree tuple.
    Once a segment has all its nodes, the rest of its word is forced
    (empty slots only), so the walk moves straight on to the next segment.

    With ``classes`` it returns that table and a second one, {classes:
    count}, where classes[r] counts the trees' non-root nodes whose step of
    the Lukasiewicz path (each tree its own path) starts at a height
    congruent to r mod t; the height before a step is the open segment's
    unfilled slot count minus 1.  Every step, a rise of t - 1 or a fall of
    1, lowers the height by 1 mod t, so each residue class holds a fixed
    number of steps, and the node count minus classes[r] is the fall count
    of ``paths.residue_stats`` in class r.
    """
    for job in jobs:  # the compiled kernel's refusals, in its order
        if not (isinstance(job, tuple) and len(job) == 2
                and all(isinstance(x, tuple) for x in job)
                and len(job[0]) <= t and len(job[1]) == t):
            raise ConstraintError(f"each job must be a (sizes, roots) pair of tuples, "
                                  f"at most {t} sizes and {t} roots")
    spaces = set()
    for sizes, roots in jobs:
        for nodes in sizes:
            if nodes < 1:
                raise ConstraintError(f"segment size {nodes} must be >= 1")
        for lift in roots:
            if lift < 0:
                raise ConstraintError(f"root edge count {lift} must be >= 0")
        spaces.add((sum(sizes) - len(sizes) + sum(roots), roots if classes else ()))
        if len(spaces) > 1:
            raise ConstraintError("jobs fill different composition spaces")
    node, segment = -1, -2
    table: Counter = Counter()
    class_table: Counter = Counter()
    for sizes, roots in jobs:
        k = len(sizes)
        profile = list(roots)
        counts = [0] * t      # non-root nodes by starting height mod t
        # one entry per choice: a node, a segment start, or an empty slot
        # recorded as the number of full frames it closed
        trail: list = []
        finished: list = []   # (frames, free) of the segments before the open one
        seg, size = 0, sizes[0] if k else 1  # the empty tuple: one node, placed
        frames = [0]          # children placed under each open node, root first
        used = 1              # nodes placed in the open segment
        free = t              # unfilled child slots in the open segment
        while True:
            while used < size:  # a node in the next slot
                i = frames[-1]
                profile[i] += 1
                frames[-1] = i + 1
                frames.append(0)
                used += 1
                if classes:
                    counts[(free - 1) % t] += 1
                free += t - 1
                trail.append(node)
            if seg + 1 < k:
                finished.append((frames, free))
                seg += 1
                size = sizes[seg]
                frames, used, free = [0], 1, t
                trail.append(segment)
                continue
            table[tuple(profile)] += 1
            if classes:
                class_table[tuple(counts)] += 1
            # back up to the latest node whose slot can take an empty instead
            while trail:
                entry = trail.pop()
                if entry == segment:
                    frames, free = finished.pop()
                    seg -= 1
                    size = used = sizes[seg]
                elif entry == node:
                    frames.pop()
                    profile[frames[-1] - 1] -= 1
                    used -= 1
                    free -= t - 1
                    if classes:
                        counts[(free - 1) % t] -= 1
                    if free > 1:  # the tree stays open, so it can still grow
                        free -= 1
                        closed = 0
                        while frames[-1] == t:
                            frames.pop()
                            closed += 1
                        trail.append(closed)
                        break
                    frames[-1] -= 1
                else:
                    frames += [t] * entry
                    frames[-1] -= 1
                    free += 1
            else:  # every tuple of the job is counted
                break
    return (dict(table), dict(class_table)) if classes else dict(table)


def _segment_census_capped(t: int, jobs: Sequence[tuple], classes: bool = False):
    """The compiled kernel, with its refusals as ConstraintErrors."""
    try:
        return _segment_census_compiled(t, jobs, classes=classes)
    except ValueError as exc:
        raise ConstraintError(str(exc)) from None


def _split_pays(total: int, jobs: int) -> bool:
    """Whether threads sharing ``jobs`` splits of ``total`` objects beat one
    call: on 2 CPUs a job costs about what walking 2**11 trees does and a
    fresh process's first thread 2**16 (README, "Library use")."""
    return total >= (jobs + 32) << 11


def check_census_budget(t: int, n: int, m: Optional[int], budget: Optional[int]) -> int:
    """The closed-form total of a census of the n-node t-ary trees, or with
    m the m-forests, once the shape (checked by the total) passes and
    neither the total nor the node count is over the budget."""
    action, noun = (f"census(t={t}, n={n})", "trees") if m is None else (
        f"forest_census(t={t}, m={m}, n={n})", "forests")
    total = counting.group_total(t, n, m)
    check_budget(action, [(total, f"enumerate %d {noun}"), (n, "place %d nodes")], budget)
    return total


def _census_kernel(t: int, n: int, m: Optional[int], budget: Optional[int],
                   engine: str, workers: int = 1):
    """The kernel for a census that :func:`check_census_budget` passes, and
    how many workers can run it side by side (see :func:`census`)."""
    total = check_census_budget(t, n, m, budget)
    if engine not in ("auto", "compiled", "pure"):
        raise ConstraintError(f"unknown engine {engine!r} (expected auto, compiled or pure)")
    if engine == "pure" or (engine == "auto" and _segment_census_compiled is None):
        return segment_census_pure, 1
    if _segment_census_compiled is None:
        raise ConstraintError("compiled kernel requested but arbor._speedups is not built")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    jobs = counting.binomial(n - 1, m - 1) if m else counting.binomial(n + t - 2, t - 1)
    return _segment_census_capped, (max(1, min(workers, cpus, jobs))
                                    if _split_pays(total, jobs) else 1)


def _run_jobs(kernel, t: int, jobs: list, workers: int) -> dict:
    """The summed table of one kernel call per worker on its share of the
    jobs, balanced largest first by closed-form tuple count; worker 0 is the
    calling thread, and what a worker raised is re-raised here."""
    if workers == 1:
        return kernel(t, jobs)
    trees = {s: counting.total_trees(t, s) for s in {s for sizes, _ in jobs for s in sizes}}
    shares: list = [[] for _ in range(workers)]  # then each one's table, or what it raised
    loads = [0] * workers
    for job in sorted(jobs, key=lambda job: prod(map(trees.get, job[0])), reverse=True):
        i = loads.index(min(loads))
        loads[i] += prod(map(trees.get, job[0]))
        shares[i].append(job)

    def run(i: int) -> None:
        try:
            shares[i] = kernel(t, shares[i])
        except BaseException as exc:  # re-raised in the caller below
            shares[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for part in shares:
        if isinstance(part, BaseException):
            raise part
    return dict(sum(map(Counter, shares), Counter()))


def census(
    t: int,
    n: int,
    *,
    budget: Optional[int] = None,
    workers: int = 1,
    engine: str = "auto",
) -> dict:
    """Multiplicity of every realized edge-type composition over all t-ary
    trees with n nodes, by brute-force enumeration.

    Refuses up front when the object count exceeds the budget.  The usable
    workers are found first: one for the pure kernel, which holds the GIL,
    else the fewest of ``workers``, the CPUs this process may run on and the
    root size splits, C(n+t-2, t-1) of them, when the closed-form total pays
    for the split (at least 2**11 trees per split plus 2**16), else one.
    One usable worker walks the whole tree; more share the root's size
    splits, and the summed table is the sequential one.
    """
    kernel, workers = _census_kernel(t, n, None, budget, engine, workers)
    # one worker walks the whole tree; more share the root splits' subtrees
    jobs = [((n,), (0,) * t)] if workers == 1 else [
        (tuple(s for s in comp if s), tuple(min(s, 1) for s in comp))
        for comp in counting.compositions(t, n - 1)]
    return _run_jobs(kernel, t, jobs, workers)


def joint_census(
    t: int,
    n: int,
    *,
    budget: Optional[int] = None,
    engine: str = "auto",
) -> tuple[dict, dict]:
    """The multiplicity of every realized edge-type composition and of every
    class vector over all t-ary trees with n nodes, by brute-force
    enumeration, as two tables.

    The class vector counts the tree's non-root nodes by the height mod t
    at which their step of the Lukasiewicz path starts; n minus it is
    ``paths.residue_stats`` of the path.  One walk of the census kernel in
    its classes mode counts both; the first table is :func:`census`.  Shape
    and budget refusals are those of ``census``.
    """
    return _census_kernel(t, n, None, budget, engine)[0](t, [((n,), (0,) * t)], classes=True)


def forest_census(
    t: int,
    m: int,
    n: int,
    *,
    budget: Optional[int] = None,
    workers: int = 1,
    engine: str = "auto",
) -> dict:
    """Multiplicity of every realized edge-type composition over all ordered
    m-tuples of non-empty t-ary trees with n total nodes: one job per node
    split, C(n-1, m-1) of them, shared among the usable workers as in
    :func:`census`."""
    kernel, workers = _census_kernel(t, n, m, budget, engine, workers)
    roots = (1,) * m + (0,) * (t - m)
    jobs = [(sizes, roots) for sizes in _forest_sizes(m, n)]
    return _run_jobs(kernel, t, jobs, workers)
