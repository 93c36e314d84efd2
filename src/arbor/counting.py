"""Exact closed-form counts of t-ary trees and ordered forests by edge type.

Every function works on arbitrary-precision integers and never rounds: the
divisions prescribed by the closed forms are checked to be exact.
"""
from __future__ import annotations

from math import comb, gcd
from typing import Iterator, Mapping, Optional, Sequence

from arbor.errors import ConstraintError

#: Largest supported arity.  Composition spaces explode well before this;
#: the bound keeps error messages honest instead of timing out.
MAX_ARITY = 16

#: An edge-type composition is a plain tuple (a1, ..., at) of edge counts.
EdgeComposition = tuple[int, ...]


def check_arity(t: int) -> None:
    if t < 1:
        raise ConstraintError(f"arity must be >= 1, got t={t}")
    if t > MAX_ARITY:
        raise ConstraintError(f"arity must be <= {MAX_ARITY}, got t={t}")


def shape(t: int, n: int, m: Optional[int] = None) -> tuple[int, int, int]:
    """Check the group of the n-node t-ary trees, or with m the m-tree
    forests, and return its (start, roots, free): the count is start/n times
    a product of binomials C(n, b_i) whose b_i sum to free, b_i being a_i
    less one in the root slots 1..roots.  Trees are (1, 0, n-1), the m = 1
    case of Lagrange inversion with the root edge not counted; forests are
    (m, m, n-m)."""
    check_arity(t)
    if m is not None and not 1 <= m < t:
        raise ConstraintError(f"forest size must satisfy 1 <= m < t, got m={m} t={t}")
    start = 1 if m is None else m
    if n < start:
        raise ConstraintError(
            f"node count must be >= {'' if m is None else 'm='}{start}, got n={n}")
    return start, m or 0, n - start


def check_parts(t: int, n: int, parts: Sequence[int], m: Optional[int] = None
                ) -> EdgeComposition:
    """Check the edge-type composition of one group of :func:`shape`; return
    it as a tuple."""
    _, roots, free = shape(t, n, m)
    a = tuple(parts)
    if len(a) != t:
        raise ConstraintError(f"composition has {len(a)} parts, arity is {t}")
    if min(a) < 0:
        raise ConstraintError(f"edge counts must be >= 0, got {a}")
    if sum(a) != free + roots:
        raise ConstraintError(
            f"edge counts sum to {sum(a)}, must equal {'n' if roots else 'n-1'} = {free + roots}")
    if min(a[:roots], default=1) < 1:
        raise ConstraintError(
            f"parts 1..{m} count root edges of the forest and must be >= 1, got {a}")
    return a


def _inexact(name: str, product: int, n: int) -> ArithmeticError:
    return ArithmeticError(f"{name} product {product} not divisible by n={n}")


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k < 0 or k > n."""
    if n < 0:
        raise ConstraintError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def binomial_row(n: int, top: int) -> list[int]:
    """C(n, k) for k = 0..top, 0 <= top <= n, each from the one before by
    C(n, k+1) = C(n, k) * (n-k) / (k+1): one multiplication and one exact
    division by a small integer per entry, where ``comb`` would build every
    entry from scratch."""
    cell, row = 1, [1]
    for k in range(top):
        cell = cell * (n - k) // (k + 1)
        row.append(cell)
    return row


def count_trees(t: int, n: int, parts: Sequence[int]) -> int:
    """Number of t-ary trees with n nodes and exactly parts[i] edges in slot i+1.

    Evaluates (1/n) * C(n,a1) * ... * C(n,at).  The full product is computed
    first and divided once; the division is exact for every valid query.
    """
    a = tuple(parts)
    # every check of check_parts in one expression; check_parts runs only
    # to raise the message of the check that fails
    if not (0 < t <= MAX_ARITY and len(a) == t and 0 < n == sum(a) + 1
            and min(a) >= 0):
        a = check_parts(t, n, parts)
    prod = 1
    for x in a:
        prod *= comb(n, x)
    q, r = divmod(prod, n)
    if r:
        raise _inexact("count_trees", prod, n)
    return q


def count_forests(t: int, m: int, n: int, parts: Sequence[int]) -> int:
    """Number of ordered m-tuples of non-empty t-ary trees, n total nodes,
    with the given edge profile (the m root edges occupy slots 1..m).

    Evaluates (m/n) * C(n,a1-1)...C(n,am-1) * C(n,a_{m+1})...C(n,at).
    """
    a = tuple(parts)
    # as in count_trees: one expression, the full validation for the message
    if not (0 < m < t <= MAX_ARITY and len(a) == t and m <= n == sum(a)
            and min(a) >= 0 and min(a[:m]) >= 1):
        a = check_parts(t, n, parts, m)
    prod = m
    for x in a[:m]:
        prod *= comb(n, x - 1)
    for x in a[m:]:
        prod *= comb(n, x)
    q, r = divmod(prod, n)
    if r:
        raise _inexact("count_forests", prod, n)
    return q


def count_table(t: int, n: int, m: Optional[int] = None) -> dict[EdgeComposition, int]:
    """Closed-form count of every composition of one group, keyed in the order
    of :func:`compositions`: the n-node trees, or with m the m-tree forests.
    The rows of the blocks of :func:`count_rows`."""
    return {prefix + tail: p * q
            for prefix, tails, p, quotients in count_rows(t, n, m)
            for tail, q in zip(tails, quotients)}


def _write_tuple(*parts: int) -> EdgeComposition:
    return parts


def count_rows(t: int, n: int, m: Optional[int] = None, *,
               write=_write_tuple) -> Iterator[tuple[object, list, int, list[int]]]:
    """Every composition of one group with its count, in the order of
    :func:`compositions` and as :func:`count_trees` or :func:`count_forests`
    gives it, in blocks (prefix, tails, p, quotients): row j of a block is
    the composition prefix + tails[j], and its count is p * quotients[j].
    The parts come as ``write(*parts)`` writes each run of them, joined by
    ``+``: tuples by default, or text such as a CSV row less its count.  The
    group is checked by :func:`shape` before the first block.

    Rows come from the walk of :func:`compositions`.  With (start, roots,
    free) of :func:`shape`, every factor is C(n, b_i) and the b_i sum to
    free.  The walk carries the product of the factors of each prefix, and
    the products of the last two factors, times start, make the pair
    list of the remainder it leaves; each prefix and each pair of last parts
    is written once.  With g = gcd(product, n) and d = n // g, product * pair
    is a multiple of n exactly when pair is a multiple of d, and the count
    is then (product / g) * (pair / d).  So a block's pair list is divided
    by d and checked in one place, and a row costs one multiplication.  The
    quotient lists are kept per (remainder, d), one list for every block
    that has both; from t = 4 on a remainder recurs under many prefixes.
    """
    start, roots, free = shape(t, n, m)
    if t == 1:  # a single row; no binomial row of n entries
        return iter([(write(), [write(free)], 1, [count_trees(1, n, (free,))])])
    binom = binomial_row(n, free)
    return _counted(n, m, start, binom, {}, _walk(t, roots, free, binom, write))


def count_groups(t: int, n: int, m: Optional[int] = None, *, write=_write_tuple):
    """The blocks of :func:`count_rows`, t >= 3, grouped by their first
    t - 3 parts, as a pair (groups, rows), once :func:`shape` has passed.

    ``groups()`` walks the prefixes of t - 3 parts in the order of
    :func:`compositions`, as (prefix, left, product): the prefix as
    ``write`` writes it, the free edges it leaves to the last three parts
    and the product of its factors C(n, b_i).  It may be walked any number
    of times.  ``rows(left, product)`` iterates the blocks under a prefix of
    that pair, less the prefix, as (part, tails, p, quotients): the blocks
    of count_rows under it are (prefix + part, tails, p, quotients).  The
    pair fixes every factor and quotient after the prefix, so the rows less
    the prefix depend on it alone, and rows raises what count_rows would
    raise under such a prefix.  Quotient lists are shared across calls.
    """
    start, roots, free = shape(t, n, m)
    if t < 3:
        raise ConstraintError(f"prefixes of t - 3 parts need t >= 3, got t={t}")
    binom = binomial_row(n, free)
    texts, tails = _parts(t, roots, free, write)
    last, memo = texts[t - 3 < roots], {}

    def rows(left: int, product: int):
        return _counted(n, m, start, binom, memo, (
            (last[b], tails[left - b], left - b, product * binom[b]) for b in range(left + 1)))

    return (lambda: _groups(t, roots, free, binom, texts, write)), rows


def _counted(n: int, m: Optional[int], start: int, binom: list[int], memo: dict, blocks):
    """(prefix, tails, p, quotients) of each walk block (prefix, tails, left,
    product), as :func:`count_rows` gives them, each quotient list kept in
    ``memo`` per (left, d)."""
    for prefix, tails, left, product in blocks:
        g = gcd(product, n)
        d = n // g
        quotients = memo.get((left, d))
        if quotients is None:
            quotients = memo[left, d] = _quotients(n, m, start, binom, left, d, product)
        yield prefix, tails, product // g, quotients


def _quotients(n: int, m: Optional[int], start: int, binom: list[int], left: int, d: int,
               product: int) -> list[int]:
    """The pairs start * C(n, b) * C(n, left - b), b = 0..left, each divided
    by d; a pair that d does not divide raises the error of its count under
    a prefix of ``product``."""
    pairs = [start * binom[b] * binom[left - b] for b in range(left + 1)]
    if d == 1:
        return pairs
    inexact = [pair for pair in pairs if pair % d]
    if inexact:
        raise _inexact("count_trees" if m is None else "count_forests",
                       product * inexact[0], n)
    return [pair // d for pair in pairs]


def group_total(t: int, n: int, m: Optional[int] = None) -> int:
    """The size of one group of :func:`shape`: (start/n) * C(t*n, free)."""
    start, _, free = shape(t, n, m)
    q, r = divmod(start * comb(t * n, free), n)
    if r:
        raise ArithmeticError(
            f"{'tree' if m is None else 'forest'} total not an integer; this cannot happen")
    return q


def total_trees(t: int, n: int) -> int:
    """Number of t-ary trees with n nodes: (1/n) * C(t*n, n-1)."""
    return group_total(t, n)


def total_forests(t: int, m: int, n: int) -> int:
    """Number of ordered m-tuples of non-empty t-ary trees with n total nodes:
    (m/n) * C(t*n, n-m)."""
    return group_total(t, n, m)


def marginal_count(t: int, n: int, fixed: Mapping[int, int]) -> int:
    """Trees with n nodes where each fixed slot i carries exactly fixed[i] edges,
    all other slots summed out.

    Evaluates (1/n) * prod_fixed C(n, a_i) * C((t-f)*n, n-1-sum(fixed)), the
    unfixed slots collapsing into one binomial.  An over-large fixed sum makes
    the trailing binomial vanish, so the result is 0 rather than an error.
    """
    shape(t, n)
    slots = sorted(fixed)
    for s in slots:
        if not 1 <= s <= t:
            raise ConstraintError(f"fixed slot {s} outside 1..{t}")
        if fixed[s] < 0:
            raise ConstraintError(f"fixed count for slot {s} must be >= 0")
    f = len(slots)
    fixed_sum = sum(fixed[s] for s in slots)
    prod = 1
    for s in slots:
        prod *= binomial(n, fixed[s])
    prod *= binomial((t - f) * n, n - 1 - fixed_sum)
    if prod == 0:
        return 0
    q, r = divmod(prod, n)
    if r:
        raise ArithmeticError(f"marginal product {prod} not divisible by n={n}")
    return q


def marginal_row(t: int, n: int, slot: int) -> list[int]:
    """``marginal_count(t, n, {slot: k})`` for k = 0..n-1: the n-node trees by
    the edge count of one slot.

    Cell k is (1/n) * C(n, k) * C(r, n-1-k) with r = (t-1)*n.  The walk
    starts from cell n-1, which is 1, and goes down by the ratio of
    neighbouring cells,

        cell(k-1) = cell(k) * k * (r-n+1+k) / ((n-k+1) * (n-k)),

    so a cell costs one multiplication and one exact division by a small
    integer.  At t = 1 the factor r-n+1+k is 0 at k = n-1 and every lower
    cell is 0.  Cell n-1 is read from :func:`marginal_count`, so the checks
    and refusals are its own.
    """
    cell = marginal_count(t, n, {slot: n - 1})
    rest, row = (t - 1) * n, [cell]
    for k in range(n - 1, 0, -1):
        prod, den = cell * (k * (rest - n + 1 + k)), (n - k + 1) * (n - k)
        cell, r = divmod(prod, den)
        if r:
            raise ArithmeticError(f"marginal product {prod} not divisible by {den}")
        row.append(cell)
    row.reverse()
    return row


def compositions(t: int, total: int, m: int = 0) -> Iterator[EdgeComposition]:
    """Weak compositions of `total` into t parts, lexicographically ascending.

    With m > 0 the first m parts are each at least 1 (the positivity forced
    on root-edge slots); m = 0 imposes no lower bound.
    """
    check_arity(t)
    if total < 0:
        raise ConstraintError(f"total must be >= 0, got {total}")
    if m and not 1 <= m < t:
        raise ConstraintError(f"m must satisfy 1 <= m < t, got m={m} t={t}")
    base = total - m
    if base < 0:
        return
    if t == 1:
        yield (total,)
        return
    for prefix, tails, _, _ in _walk(t, m, base, [1] * (base + 1), _write_tuple):
        for tail in tails:
            yield prefix + tail


def _walk(t: int, m: int, free: int, factors: Sequence[int], write) -> Iterator[
        tuple[object, list, int, int]]:
    """The compositions of free + m into t >= 2 parts whose first m < t parts
    are at least 1, in lexicographic order, as blocks (prefix, tails, left,
    product), each run of parts written by write(*parts) and joined by ``+``.

    The first t - 2 parts make the prefix, each counting up from its lower
    bound; the last two parts sum to left plus their lower bounds, and tails
    lists them in lexicographic order.  product is the product of factors[b]
    over the prefix, b being each part less its lower bound.  The first
    t - 3 parts come from :func:`_groups`, the last prefix part is a plain
    loop, and each part's text and each tail list is written once per value.
    """
    if t == 2:
        lift = 1 if m else 0  # the last part is never lifted, as m < t
        yield write(), [write(b + lift, free - b) for b in range(free + 1)], free, 1
        return
    texts, tails = _parts(t, m, free, write)
    last = texts[t - 3 < m]
    for prefix, left, product in _groups(t, m, free, factors, texts, write):
        for b in range(left + 1):
            yield prefix + last[b], tails[left - b], left - b, product * factors[b]


def _parts(t: int, m: int, free: int, write) -> tuple[list[list], list[list]]:
    """(texts, tails) of a walk of t >= 3 parts: texts[slot < m][b] the text
    of a part b above its lower bound, and tails[left] the last two parts
    that sum to left above their lower bounds, in lexicographic order."""
    lift = 1 if t - 2 < m else 0  # the last part is never lifted, as m < t
    texts = [[write(b + low) for b in range(free + 1)] for low in (0, 1)]
    return texts, [[write(b + lift, left - b) for b in range(left + 1)]
                   for left in range(free + 1)]


def _groups(t: int, m: int, free: int, factors: Sequence[int], texts: list[list],
            write) -> Iterator[tuple[object, int, int]]:
    """The first t - 3 parts of the walk of :func:`_walk`, t >= 3, as
    (prefix, left, product) with the prefix's text from ``texts``: an
    odometer (Knuth, TAOCP 4A, 7.2.1.3) on an explicit stack.  No frame
    refers to itself, so nothing of the walk outlives it in a reference
    cycle."""
    # stack[slot]: part ``slot`` less its lower bound, and the prefix, product
    # and left before it; prefix, product and left are those after the stack
    stack: list[tuple[int, object, int, int]] = []
    b, prefix, product, left, depth = 0, write(), 1, free, t - 3
    while True:
        while len(stack) < depth:  # part len(stack) at b, the parts after it at 0
            stack.append((b, prefix, product, left))
            prefix, product, left = (prefix + texts[len(stack) <= m][b],
                                     product * factors[b], left - b)
            b = 0
        yield prefix, left, product
        # the odometer step: the last part with room goes up by one
        while stack and stack[-1][0] == stack[-1][3]:
            stack.pop()
        if not stack:
            return
        b, prefix, product, left = stack.pop()
        b += 1
