"""Truncated multivariate formal power series over exact integers.

One variable marks nodes, t further variables mark edge types.  The tree
generating series solves g = x * (1 + y1*g) * ... * (1 + yt*g); this module
obtains it two independent ways: fixed-point iteration on the equation, and
direct coefficient extraction from the expanded product (the inversion rule
[x^n] g = (1/n) [g^(n-1)] prod (1 + yi*g)^n).
"""
from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import Iterator, Sequence

from arbor import counting
from arbor.errors import ConstraintError


class MultiSeries:
    """Sparse series in x and y1..yt, truncated at a fixed x-degree.

    Direct inversion reuses the same ring with g in the place of x.
    Terms map (n, (a1, ..., at)), with 0 <= n <= truncation and t
    non-negative parts, to a nonzero integer coefficient; the
    representation is normalized (no stored zeros).  Values are immutable
    by convention; arithmetic returns new instances.
    """

    __slots__ = ("arity", "truncation", "_terms")

    def __init__(self, arity: int, truncation: int, terms: dict | None = None):
        counting.check_arity(arity)
        if truncation < 0:
            raise ConstraintError(f"truncation must be >= 0, got {truncation}")
        self.arity = arity
        self.truncation = truncation
        for n, a in terms or ():
            self._check_term(n, a)
        self._terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def _ring_result(cls, arity: int, truncation: int, terms: dict) -> "MultiSeries":
        """A series whose keys the ring built itself from in-range operands,
        so they are not checked again; zero coefficients are dropped."""
        out = cls.__new__(cls)
        out.arity = arity
        out.truncation = truncation
        out._terms = {k: v for k, v in terms.items() if v}
        return out

    def _check_term(self, n: int, a: tuple) -> None:
        if not 0 <= n <= self.truncation:
            raise ConstraintError(f"x-degree {n} outside 0..{self.truncation}")
        if len(a) != self.arity or min(a) < 0:
            raise ConstraintError(
                f"exponent vector {a} is not {self.arity} non-negative parts"
            )

    @classmethod
    def zero(cls, arity: int, truncation: int) -> "MultiSeries":
        return cls(arity, truncation)

    @classmethod
    def one(cls, arity: int, truncation: int) -> "MultiSeries":
        return cls(arity, truncation, {(0, (0,) * arity): 1})

    @classmethod
    def x(cls, arity: int, truncation: int) -> "MultiSeries":
        terms = {(1, (0,) * arity): 1} if truncation >= 1 else {}
        return cls(arity, truncation, terms)

    def _check_match(self, other: "MultiSeries") -> None:
        if self.arity != other.arity:
            raise ConstraintError(
                f"arity mismatch: {self.arity} vs {other.arity}"
            )
        if self.truncation != other.truncation:
            raise ConstraintError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        self._check_match(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + c
        return MultiSeries._ring_result(self.arity, self.truncation, out)

    def __mul__(self, other: "MultiSeries") -> "MultiSeries":
        self._check_match(other)
        limit = self.truncation
        # other's terms by x-degree, so pairs beyond the truncation are
        # never formed
        by_degree: dict[int, list] = {}
        for (n2, a2), c2 in other._terms.items():
            by_degree.setdefault(n2, []).append((a2, c2))
        out: dict = {}
        get = out.get
        for (n1, a1), c1 in self._terms.items():
            for n in range(n1, limit + 1):
                for a2, c2 in by_degree.get(n - n1, ()):
                    key = (n, tuple(map(add, a1, a2)))
                    out[key] = get(key, 0) + c1 * c2
        return MultiSeries._ring_result(self.arity, self.truncation, out)

    def times_y(self, slot: int) -> "MultiSeries":
        """Multiply by the edge marker of the given slot (1-based)."""
        if not 1 <= slot <= self.arity:
            raise ConstraintError(f"slot {slot} outside 1..{self.arity}")
        i = slot - 1
        out = {}
        for (n, a), c in self._terms.items():
            b = a[:i] + (a[i] + 1,) + a[i + 1:]
            out[(n, b)] = c
        return MultiSeries._ring_result(self.arity, self.truncation, out)

    def coefficient(self, n: int, parts: Sequence[int]) -> int:
        """Stored coefficient of x^n * y^parts, or 0; the term must be in range."""
        a = tuple(parts)
        self._check_term(n, a)
        return self._terms.get((n, a), 0)

    def terms(self) -> Iterator[tuple]:
        """(n, parts, coefficient) triples in sorted key order."""
        for n, a in sorted(self._terms):
            yield n, a, self._terms[(n, a)]

    def dump_lines(self) -> list[str]:
        """Sorted ``n;a1,...,at;coef`` lines (the debug dump format)."""
        return [
            "%d;%s;%d" % (n, ",".join(str(x) for x in a), c)
            for n, a, c in self.terms()
        ]

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.truncation == other.truncation
            and self._terms == other._terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"MultiSeries(arity={self.arity}, truncation={self.truncation}, "
            f"terms={len(self._terms)})"
        )


def solve_G(t: int, N: int) -> MultiSeries:
    """Solve g = x * prod_i (1 + yi*g) through x-order N by fixed-point iteration.

    Round k (k = 1..N) works at truncation k: it lifts the previous round's
    g to truncation k and applies the right-hand side once.  This is exact,
    not an approximation: g has no constant term, so [x^j] of the
    right-hand side depends only on [x^(<j)] of g, and by induction round
    k-1 already holds the final coefficients up to x^(k-1).  Round k thus
    makes every coefficient through x^k final, and after round N the
    result equals the fixed point truncated at N; no convergence heuristic
    is involved.  Only the last round runs at full truncation.
    """
    counting.check_arity(t)
    if N < 1:
        raise ConstraintError(f"truncation must be >= 1, got N={N}")
    g = MultiSeries.zero(t, 0)
    for k in range(1, N + 1):
        one = MultiSeries.one(t, k)
        g = MultiSeries._ring_result(t, k, g._terms)
        p = MultiSeries.x(t, k)
        for slot in range(1, t + 1):
            p = p * (one + g.times_y(slot))
        g = p
    return g


@lru_cache(maxsize=1)
def _expanded_product(t: int, gmax: int, power: int) -> MultiSeries:
    """prod_i (1 + yi*g)^power with g in the truncated variable's place,
    each factor written out from its binomial coefficients.

    Memoised: every composition of one (n, m) group reads the same product,
    and callers walk the compositions of a group together, so one entry
    saves all but the first build per group and keeps a single product
    alive between calls.  Callers only read it (``MultiSeries`` values are
    immutable by convention).  The memo lives inside the inversion oracle:
    it caches nothing but this module's own ring arithmetic.
    """
    zero = (0,) * t
    p = MultiSeries.one(t, gmax)
    for i in range(t):
        factor = {
            (k, zero[:i] + (k,) + zero[i + 1:]): counting.binomial(power, k)
            for k in range(min(power, gmax) + 1)
        }
        p = p * MultiSeries(t, gmax, factor)
    return p


def lagrange_extract(t: int, n: int, parts: Sequence[int]) -> int:
    """Tree count by direct inversion: expand prod_i (1 + yi*g)^n with g
    truncated at n-1, read the coefficient of g^(n-1) * y^parts, divide by n.

    Agrees with the closed-form product of binomials but is computed by
    polynomial expansion, so it serves as an independent check.
    """
    a = counting.validate_tree_composition(t, n, parts)
    p = _expanded_product(t, n - 1, n)
    c = p.coefficient(n - 1, a)
    q, r = divmod(c, n)
    if r:
        raise ArithmeticError(f"extracted coefficient {c} not divisible by n={n}")
    return q


def lagrange_extract_forest(t: int, m: int, n: int, parts: Sequence[int]) -> int:
    """Forest count by direct inversion.

    The m-tuple generating series is (y1*g)...(ym*g); inverting it gives
    (m/n) times the coefficient of g^(n-m) * y^(parts - e1 - ... - em) in
    prod_i (1 + yi*g)^n, again by expansion.
    """
    a = counting.validate_forest_composition(t, m, n, parts)
    reduced = tuple(x - 1 if i < m else x for i, x in enumerate(a))
    p = _expanded_product(t, n - m, n)
    c = p.coefficient(n - m, reduced)
    q, r = divmod(m * c, n)
    if r:
        raise ArithmeticError(
            f"extracted coefficient {m * c} not divisible by n={n}"
        )
    return q
