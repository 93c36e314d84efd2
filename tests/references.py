"""Independent references, held once for the tests and for
``tools/bench_census.py``: recursive tree and forest enumerators that share
no code with ``treebank``'s walk, the listing joined over them, the counts
of a group one composition at a time, and the ``table`` and ``triangle``
renderings by the rules those commands followed
before they wrote from the closed-form walk, the triangle's cells computed
from their binomials here."""
import sys
from math import comb

from arbor import counting
from arbor.paths import format_path, tree_to_path
from arbor.treebank import Forest, TAryTree, serialize_tree


def reference_trees(t, n):
    """The recursive enumerator the walk replaced, kept as the order reference."""
    if n == 0:
        return
    for kids in reference_slot_tuples(t, n - 1, t):
        yield TAryTree(kids)


def reference_slot_stream(t, size):
    if size == 0:
        yield None
    else:
        yield from reference_trees(t, size)


def reference_slot_tuples(t, total, slots):
    if slots == 1:
        for sub in reference_slot_stream(t, total):
            yield (sub,)
        return
    for first_size in range(total + 1):
        for first in reference_slot_stream(t, first_size):
            for rest in reference_slot_tuples(t, total - first_size, slots - 1):
                yield (first,) + rest


def reference_forests(t, m, n):
    for split in counting.compositions(m, n - m):
        for combo in reference_forest_tuples(t, tuple(s + 1 for s in split)):
            yield Forest(combo)


def reference_forest_tuples(t, sizes):
    if len(sizes) == 1:
        for tr in reference_trees(t, sizes[0]):
            yield (tr,)
        return
    for tr in reference_trees(t, sizes[0]):
        for rest in reference_forest_tuples(t, sizes[1:]):
            yield (tr,) + rest


def reference_listing(t, n):
    """{mode: lines} from serialize_tree, tree_to_path and format_path over
    the recursive reference_trees, not over enumerate_trees, which shares the
    listing's walk.  The reference nests three generators per tree level."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 3 * n + 200))
    try:
        trees = list(reference_trees(t, n))
    finally:
        sys.setrecursionlimit(limit)
    want = {"labels": [], "bare": [], "dump": []}
    for tree in trees:
        text = serialize_tree(tree)
        path = tree_to_path(tree)
        want["labels"].append(f"{text} | {format_path(path, with_labels=True)}\n")
        want["bare"].append(f"{text} | {format_path(path)}\n")
        want["dump"].append(f"{text}\n")
    return want


def per_composition(t, n, m=None):
    """(composition, count) of the n-node trees, or with m the m-forests, in
    ``compositions`` order: one count_trees or count_forests call each."""
    return list(each_composition(t, n, m))


def each_composition(t, n, m=None):
    """The items of :func:`per_composition` one at a time."""
    if m is None:
        return ((a, counting.count_trees(t, n, a)) for a in counting.compositions(t, n - 1))
    return ((a, counting.count_forests(t, m, n, a)) for a in counting.compositions(t, n, m=m))


def old_rule_table(fmt, t, n, m=None):
    """The table rendered from count_table: CSV by per-row %d formatting,
    pretty with every column as wide as the longest of the total and every
    part and count."""
    rows = counting.count_table(t, n, m).items()
    return "\n".join(old_rule_lines(fmt, t, n, m, lambda: rows))


def old_rule_lines(fmt, t, n, m, rows):
    """The lines of :func:`old_rule_table`, without their newlines, from
    ``rows()``, which gives the (composition, count) rows afresh at each
    call; pretty reads them twice, once for the width."""
    total = (counting.total_trees(t, n) if m is None
             else counting.total_forests(t, m, n))
    if fmt == "csv":
        row = ",".join(["%d"] * (t + 1))
        yield ",".join(f"a{i + 1}" for i in range(t)) + ",count"
        for comp, count in rows():
            yield row % (*comp, count)
        yield "total," + "," * (t - 1) + str(total)
        return
    width = max(len(str(total)), max(len(str(x)) for comp, count in rows()
                                     for x in comp + (count,)))
    head = " ".join(f"a{i + 1}".rjust(width) for i in range(t))
    head += "  " + "count".rjust(width + 4)
    yield head
    for comp, count in rows():
        yield (" ".join(str(x).rjust(width) for x in comp)
               + "  " + str(count).rjust(width + 4))
    pad = len(head) - len("total") - len(str(total))
    yield "total" + " " * max(pad, 2) + str(total)


def old_triangle_text(fmt, t, slot, rows, offset=0):
    """The triangle as the one string it was printed as before it was
    written in pieces."""
    return "".join(line + "\n" for line in old_triangle_lines(fmt, t, slot, rows, offset))


def old_triangle_lines(fmt, t, slot, rows, offset=0):
    """The lines of :func:`old_triangle_text`, without their newlines, one
    triangle row computed at a time.  Each cell is (1/n) * C(n, k) *
    C((t-1)*n, n-1-k), computed here apart from counting.marginal_row, which
    the command prints; the count does not depend on which ``slot`` is
    fixed."""
    for n in range(1, rows + 1):
        row = []
        for k in range(n):
            cell, rest = divmod(comb(n, k) * comb((t - 1) * n, n - 1 - k), n)
            assert rest == 0, f"cell t={t} n={n} k={k} is not an integer"
            row.append(cell)
        if fmt == "bfile":
            yield from (f"{i} {v}" for i, v in enumerate(row, start=offset))
            offset += n
        else:
            yield f"n={n} (edges={n - 1}): " + " ".join(map(str, row))
