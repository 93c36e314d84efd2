"""Truncated multivariate formal power series over exact integers.

One variable marks nodes, t further variables mark edge types.  The tree
generating series solves g = x * (1 + y1*g) * ... * (1 + yt*g); this module
obtains it two independent ways: fixed-point iteration on the equation, and
direct coefficient extraction from the expanded product (the inversion rule
[x^n] g = (1/n) [g^(n-1)] prod (1 + yi*g)^n).
"""
from __future__ import annotations

from operator import add
from typing import Iterator, Optional, Sequence

from arbor import counting
from arbor.errors import ConstraintError


def _pack(parts: Sequence[int], base: int) -> int:
    """The exponent vector as one int: a1 is the most significant digit, so
    packed keys sort as their vectors do while every part is below base."""
    key = 0
    for p in parts:
        key = key * base + p
    return key


def _unpack(key: int, base: int, arity: int) -> tuple:
    parts = [0] * arity
    for i in range(arity - 1, -1, -1):
        key, parts[i] = divmod(key, base)
    return tuple(parts)


def _grade_product(a: list, b: list, d: int) -> dict:
    """[x^d] of the product of two graded term lists (packed keys in one
    base above every part, so no key sum carries).  Reads a[0..d] and
    b[d-k] only where a[k] has terms, so b may still lack grades whose
    partner grade in a is empty."""
    out: dict = {}
    get = out.get
    for k in range(d + 1):
        left = a[k]
        if left:
            right = b[d - k]
            if right:
                pairs = right.items()
                for k1, c1 in left.items():
                    for k2, c2 in pairs:
                        key = k1 + k2
                        out[key] = get(key, 0) + c1 * c2
    return out


def _nonzero(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c} if 0 in terms.values() else terms


class MultiSeries:
    """Sparse series in x and y1..yt, truncated at a fixed x-degree.

    Direct inversion reuses the same ring with g in the place of x.  The
    public form of a term is (n, (a1, ..., at)) with 0 <= n <= truncation
    and 0 <= ai <= n: a term of the tree series counts n nodes (or g-degree
    n) and ai edges of type i, so no part exceeds its degree.  Inside,
    terms are graded by x-degree: ``_grades[n]`` maps each exponent vector
    of degree n, packed as one int in base truncation + 1, to its nonzero
    coefficient, so multiplying monomials adds two ints.  Sums and products
    keep every part at most its degree, so digits never carry.  Values are
    immutable by convention; arithmetic returns new instances.
    """

    __slots__ = ("arity", "truncation", "_base", "_grades")

    def __init__(self, arity: int, truncation: int, terms: dict | None = None):
        counting.check_arity(arity)
        if truncation < 0:
            raise ConstraintError(f"truncation must be >= 0, got {truncation}")
        self.arity = arity
        self.truncation = truncation
        self._base = truncation + 1
        self._grades = [{} for _ in range(truncation + 1)]
        for (n, a), c in (terms or {}).items():
            self._check_term(n, a)
            if max(a) > n:
                raise ConstraintError(f"exponent vector {a} has a part above x-degree {n}")
            if c:
                self._grades[n][_pack(a, self._base)] = c

    @classmethod
    def _ring_result(cls, arity: int, truncation: int, grades: list) -> "MultiSeries":
        """A series the ring built itself from checked operands, so its
        terms are not checked again; grades hold no zero coefficients."""
        out = cls(arity, truncation)
        out._grades = grades
        return out

    def _check_term(self, n: int, a: tuple) -> None:
        if not 0 <= n <= self.truncation:
            raise ConstraintError(f"x-degree {n} outside 0..{self.truncation}")
        if len(a) != self.arity or min(a) < 0:
            raise ConstraintError(
                f"exponent vector {a} is not {self.arity} non-negative parts"
            )

    @classmethod
    def one(cls, arity: int, truncation: int) -> "MultiSeries":
        return cls(arity, truncation, {(0, (0,) * arity): 1})

    @classmethod
    def x(cls, arity: int, truncation: int) -> "MultiSeries":
        terms = {(1, (0,) * arity): 1} if truncation >= 1 else {}
        return cls(arity, truncation, terms)

    def _check_match(self, other: "MultiSeries") -> None:
        if self.arity != other.arity:
            raise ConstraintError(f"arity mismatch: {self.arity} vs {other.arity}")
        if self.truncation != other.truncation:
            raise ConstraintError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}")

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        self._check_match(other)
        out = []
        for mine, theirs in zip(self._grades, other._grades):
            grade = dict(mine)
            get = grade.get
            for key, c in theirs.items():
                grade[key] = get(key, 0) + c
            out.append(_nonzero(grade))
        return MultiSeries._ring_result(self.arity, self.truncation, out)

    def __mul__(self, other: "MultiSeries") -> "MultiSeries":
        self._check_match(other)
        a, b = self._grades, other._grades
        out = [_nonzero(_grade_product(a, b, d)) for d in range(self.truncation + 1)]
        return MultiSeries._ring_result(self.arity, self.truncation, out)

    def times_y(self, slot: int) -> "MultiSeries":
        """Multiply by the edge marker of the given slot (1-based).  Refused
        when a term's part in that slot already equals its degree, since
        the product would hold a part above its degree."""
        if not 1 <= slot <= self.arity:
            raise ConstraintError(f"slot {slot} outside 1..{self.arity}")
        base = self._base
        shift = base ** (self.arity - slot)
        for n, grade in enumerate(self._grades):
            if any(key // shift % base == n for key in grade):
                raise ConstraintError(f"part {slot} of a term equals its x-degree {n}")
        out = [{k + shift: c for k, c in grade.items()} for grade in self._grades]
        return MultiSeries._ring_result(self.arity, self.truncation, out)

    def coefficient(self, n: int, parts: Sequence[int]) -> int:
        """Stored coefficient of x^n * y^parts, or 0; the term must be in
        range.  A part above n cannot be stored, so such a term reads 0."""
        a = tuple(parts)
        self._check_term(n, a)
        if max(a) > n:
            return 0
        return self._grades[n].get(_pack(a, self._base), 0)

    def terms(self) -> Iterator[tuple]:
        """(n, parts, coefficient) triples in sorted key order."""
        base, t = self._base, self.arity
        for n, grade in enumerate(self._grades):
            for key in sorted(grade):
                yield n, _unpack(key, base, t), grade[key]

    def dump_lines(self) -> list[str]:
        """Sorted ``n;a1,...,at;coef`` lines (the debug dump format)."""
        return [
            "%d;%s;%d" % (n, ",".join(str(x) for x in a), c)
            for n, a, c in self.terms()
        ]

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        # equal grade lists are equally long, so their truncations agree
        return self.arity == other.arity and self._grades == other._grades

    __hash__ = None

    def __repr__(self) -> str:
        return (f"MultiSeries(arity={self.arity}, truncation={self.truncation}, "
                f"terms={sum(map(len, self._grades))})")


def solve_G(t: int, N: int) -> MultiSeries:
    """Solve g = x * prod_i (1 + yi*g) through x-order N by online fixed-point
    iteration.

    With Q_0 = 1 and Q_j = Q_(j-1) * (1 + yj*g), the equation reads
    [x^(d+1)] g = [x^d] Q_t, and [x^d] Q_j = [x^d] Q_(j-1)
    + yj * [x^d] (g * Q_(j-1)).  g has no constant term, so [x^d] of
    g * Q_(j-1) needs g only through x^d and Q_(j-1) only below x^d.  Round
    d therefore forms just [x^d] of Q_1, ..., Q_t from coefficients that
    earlier rounds made final, and yields [x^(d+1)] g exactly: each round
    adds one x-degree, no coefficient is recomputed and no convergence
    heuristic is involved (the relaxed fixed point of van der Hoeven,
    "Relax, but don't be too lazy", JSC 34, 2002).
    """
    counting.check_arity(t)
    if N < 1:
        raise ConstraintError(f"truncation must be >= 1, got N={N}")
    # parts of g stay below the degree, those of Q_j at most equal it
    base = N + 1
    g = [{} for _ in range(N + 1)]
    g[1] = {0: 1}
    # q[j] holds [x^0..x^d] Q_j; Q_0 = 1 is written out through x^N
    q = [[{0: 1}] + [{} for _ in range(N)]] + [[{0: 1}] for _ in range(t)]
    for d in range(1, N):
        for j in range(1, t + 1):
            prev = q[j - 1]
            grade = dict(prev[d])
            get = grade.get
            shift = base ** (t - j)
            for key, c in _grade_product(g, prev, d).items():
                key += shift
                grade[key] = get(key, 0) + c
            q[j].append(grade)
        g[d + 1] = q[t][d]
    return MultiSeries._ring_result(t, N, g)


def residual(g: MultiSeries) -> MultiSeries:
    """x * prod_j (1 + yj*g) as a full ring product: g when g solves it."""
    t, N = g.arity, g.truncation
    one, rhs = MultiSeries.one(t, N), MultiSeries.x(t, N)
    for slot in range(1, t + 1):
        rhs = rhs * (one + g.times_y(slot))
    return rhs


def _weak(total: int, parts: int) -> int:
    """The weak compositions of total into parts: the terms of one grade."""
    return counting.binomial(total + parts - 1, parts - 1) if total >= 0 else 0


def solve_steps(t: int, N: int) -> int:
    """The ring steps of ``solve_G(t, N)`` and of its ``residual``, from
    composition counts alone: a step is one product of two coefficients or
    one pair of degrees looked at.  For each factor j, the solver visits
    d+1 pairs of x-degrees in each round d < N, and the residual product
    d+1 for each d <= N, t*N*(N+2) pairs in all.  [x^e] Q_(j-1) holds the
    compositions of e into t parts whose first j-1 parts are not all zero
    (one term at e=0), [x^k] g those of k-1, so g through x^r holds
    weak(r-1, t+1) terms.  The solver multiplies each of the q_e terms of
    [x^e] Q_(j-1) with g through x^(N-1-e), the residual with 1 + yj*g
    through x^(N-1-e): q_e * (2 weak(N-2-e, t+1) + 1) steps.  The sums over
    e < N close by the hockey stick, sum_(e<=E) weak(e, p) = weak(E, p+1),
    and Vandermonde's identity, sum_e weak(e, p) weak(M-e, r) = weak(M, p+r),
    so the count takes O(t) binomials whatever N."""
    steps = t * N * (N + 2)
    for j in range(1, t + 1):
        terms = 1 + _weak(N - 1, t + 1) - _weak(N - 1, t - j + 2)
        products = _weak(N - 2, 2 * t + 1) - _weak(N - 2, 2 * t - j + 2) + _weak(N - 2, t + 1)
        steps += 2 * products + terms
    return steps


def inversion_steps(t: int, gmax: int) -> int:
    """The ring steps of one expanded product: t factors of g-degree up to
    gmax, one term per degree.  Each multiplication visits
    (gmax+1)(gmax+2)/2 pairs of g-degrees, and factor j multiplies the
    weak(e, j-1) terms of each degree e with the gmax-e+1 terms of degree
    at most gmax-e, weak(gmax, j+1) products in all."""
    return t * (gmax + 1) * (gmax + 2) // 2 + sum(
        _weak(gmax, j + 1) for j in range(1, t + 1))


def inversion_steps_through(t: int, gmax: int) -> int:
    """``inversion_steps(t, g)`` summed over g = 0..gmax, by the hockey
    stick: t * C(gmax+3, 3) pairs of g-degrees and weak(gmax, j+2) products
    for factor j."""
    return t * counting.binomial(gmax + 3, 3) + sum(
        _weak(gmax, j + 2) for j in range(1, t + 1))


def _expanded_product(t: int, gmax: int, power: int) -> MultiSeries:
    """prod_i (1 + yi*g)^power with g in the truncated variable's place,
    each factor written out from its binomial coefficients."""
    base = gmax + 1
    p = MultiSeries.one(t, gmax)
    for i in range(t):
        weight = base ** (t - 1 - i)
        factor = [{k * weight: counting.binomial(power, k)} if k <= power else {}
                  for k in range(gmax + 1)]
        p = p * MultiSeries._ring_result(t, gmax, factor)
    return p


def lagrange_table(t: int, n: int, m: Optional[int] = None) -> dict:
    """Every count of the n-node t-ary trees, or with m the n-node m-forests,
    by direct inversion, keyed by composition.

    The m-tuple generating series is (y1*g)...(ym*g), and a tree is the
    m = 1 case without its root edge.  Inverting it gives (m/n) times the
    coefficient of g^(n-m) * y^(parts - e1 - ... - em) in
    prod_i (1 + yi*g)^n: expand that product with g truncated at n-m and
    read every term of g-degree n-m, as stored.  The compositions come from
    the expanded product itself, and the counts agree with the closed-form
    product of binomials but are computed by polynomial expansion, so they
    serve as an independent check.
    """
    counting.shape(t, n, m)
    roots = (1,) * (m or 0) + (0,) * (t - (m or 0))
    m = m or 1  # a tree reads what a 1-forest reads, less its root edge
    product = _expanded_product(t, n - m, n)
    counts = {}
    for key, c in product._grades[n - m].items():
        q, r = divmod(m * c, n)
        if r:
            raise ArithmeticError(
                f"extracted coefficient {m * c} not divisible by n={n}"
            )
        counts[tuple(map(add, _unpack(key, product._base, t), roots))] = q
    return counts


def lagrange_extract(t: int, n: int, parts: Sequence[int]) -> int:
    """One tree count by direct inversion, read from ``lagrange_table``."""
    a = counting.check_parts(t, n, parts)
    return lagrange_table(t, n)[a]


def lagrange_extract_forest(t: int, m: int, n: int, parts: Sequence[int]) -> int:
    """One forest count by direct inversion, read from ``lagrange_table``."""
    a = counting.check_parts(t, n, parts, m)
    return lagrange_table(t, n, m)[a]
