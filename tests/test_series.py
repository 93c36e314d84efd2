"""Series ring, fixed-point solution, and direct coefficient extraction."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbor import cli, counting, series
from arbor.errors import ConstraintError
from arbor.series import (
    MultiSeries,
    lagrange_extract,
    lagrange_extract_forest,
    lagrange_table,
    solve_G,
)


def test_init_rejects_out_of_range_terms():
    for terms in (
        {(5, (0, 0)): 1, (-1, (9,)): 2},  # both terms out of range
        {(4, (0, 0)): 1},                 # degree beyond the truncation
        {(-1, (0, 0)): 1},                # negative degree
        {(1, (9,)): 1},                   # one part at arity 2
        {(1, (0, 0, 0)): 1},              # three parts at arity 2
        {(1, (2, -1)): 1},                # a negative part
        {(4, (0, 0)): 0},                 # zero coefficients are checked too
        {(3, (5, 0)): 2},                 # a part above its degree
        {(0, (0, 1)): 1},                 # any part above degree 0
        {(2, (1, 3)): 0},
    ):
        with pytest.raises(ConstraintError):
            MultiSeries(2, 3, terms)
    with pytest.raises(ConstraintError,
                       match=r"^exponent vector \(1, 3\) has a part above x-degree 2$"):
        MultiSeries(2, 3, {(2, (1, 3)): 1})
    with pytest.raises(ConstraintError, match=r"^x-degree 4 outside 0\.\.3$"):
        MultiSeries(2, 3, {(4, (0, 0)): 1})
    edge = MultiSeries(2, 3, {(0, (0, 0)): 1, (3, (3, 0)): 2})
    with pytest.raises(ConstraintError,
                       match=r"^exponent vector \(1, -1\) is not 2 non-negative parts$"):
        edge.coefficient(1, (1, -1))
    assert edge.dump_lines() == ["0;0,0;1", "3;3,0;2"]
    # coefficient reads under the same rule, and a term with a part above
    # its degree, which cannot be stored, reads 0
    for n, parts in ((-1, (0, 0)), (4, (0, 0)), (1, (1, -1)), (1, (1,))):
        with pytest.raises(ConstraintError):
            edge.coefficient(n, parts)
    for n, parts in ((3, (4, 0)), (3, (0, 9)), (0, (1, 0)), (2, (3, 0))):
        assert edge.coefficient(n, parts) == 0


def reference_solve(t, N):
    """The fixed-point loop run at full truncation N in every round, on the
    reference product."""
    g = MultiSeries(t, N)
    for _ in range(N):
        g = reference_rhs(g)
    return g


def reference_rhs(g):
    """x * prod_j (1 + yj*g) by the reference product and y-shift."""
    t, N = g.arity, g.truncation
    one = MultiSeries(t, N, {(0, (0,) * t): 1})
    p = MultiSeries(t, N, {(1, (0,) * t): 1} if N >= 1 else {})
    for slot in range(1, t + 1):
        p = reference_mul(p, reference_add(one, reference_times_y(g, slot)))
    return p


def reference_mul(a, b):
    """Every pair of terms formed, then the ones beyond the truncation dropped."""
    out = {}
    for n1, a1, c1 in a.terms():
        for n2, a2, c2 in b.terms():
            if n1 + n2 <= a.truncation:
                key = (n1 + n2, tuple(p + q for p, q in zip(a1, a2)))
                out[key] = out.get(key, 0) + c1 * c2
    return MultiSeries(a.arity, a.truncation, out)


def reference_add(a, b):
    out = {(n, parts): c for n, parts, c in a.terms()}
    for n, parts, c in b.terms():
        out[(n, parts)] = out.get((n, parts), 0) + c
    return MultiSeries(a.arity, a.truncation, out)


def reference_times_y(s, slot):
    return MultiSeries(s.arity, s.truncation, {
        (n, a[:slot - 1] + (a[slot - 1] + 1,) + a[slot:]): c
        for n, a, c in s.terms()})


def test_growing_precision_matches_full_truncation():
    for t, max_N in [(1, 12), (2, 10), (3, 8), (4, 6), (5, 5), (6, 4)]:
        for N in range(1, max_N + 1):
            assert solve_G(t, N) == reference_solve(t, N)


def test_coefficient_beyond_truncation():
    g = solve_G(3, 4)
    with pytest.raises(ConstraintError):
        g.coefficient(5, (0, 0, 4))


# solver values frozen from direct enumeration of the trees
def test_solve_spot_values():
    g = solve_G(3, 5)
    assert g.coefficient(1, (0, 0, 0)) == 1
    assert g.coefficient(2, (0, 1, 0)) == 1
    assert g.coefficient(3, (1, 1, 0)) == 3
    assert g.coefficient(4, (1, 1, 1)) == 16
    g2 = solve_G(2, 3)
    assert g2.coefficient(3, (1, 1)) == 3


def test_solution_homogeneity():
    for t, N in [(2, 6), (3, 5), (4, 4)]:
        for n, a, c in solve_G(t, N).terms():
            assert c != 0
            assert sum(a) == n - 1


def test_fixed_point_residual():
    for t, N in [(1, 6), (2, 8), (3, 6), (4, 5)]:
        g = solve_G(t, N)
        assert series.residual(g) == reference_rhs(g) == g


def test_iteration_is_stationary():
    # one extra round changes nothing within the truncation
    t, N = 3, 5
    g = solve_G(t, N)
    assert reference_rhs(g) == g == solve_G(t, N)


def test_residual_of_a_series_off_the_fixed_point(monkeypatch):
    # g with terms added and removed, negative coefficients among them: the
    # residual is still the reference product, and the x^3 y1 y2 terms that
    # cancel in x (1 + y1 g)(1 + y2 g) leave no zero coefficient behind
    g = solve_G(3, 5)
    terms = {(n, a): c for n, a, c in g.terms() if n != 3}
    terms.update({(2, (1, 0, 0)): -1, (4, (0, 1, 2)): 7})
    off = MultiSeries(3, 5, terms)
    want = reference_rhs(off)
    # the product's terms come from checked operands and are not checked again
    checked = []
    real = MultiSeries._check_term
    monkeypatch.setattr(MultiSeries, "_check_term",
                        lambda self, n, a: checked.append(n) or real(self, n, a))
    got = series.residual(off)
    assert checked == []
    monkeypatch.undo()
    assert got == want != off
    assert all(c for _, _, c in series.residual(off).terms())
    half = MultiSeries(2, 4, {(1, (0, 0)): 1, (2, (1, 0)): -1})
    assert series.residual(half).dump_lines() == reference_rhs(half).dump_lines() == [
        "1;0,0;1", "2;0,1;1", "2;1,0;1", "3;2,0;-1", "4;2,1;-2"]


def test_residual_refuses_a_part_at_its_degree():
    # y1 * x^2 y1^2 would hold a part above its degree, and a term at
    # x-degree 0 has every part at its degree: such a g solves no tree
    # equation, and the residual names the term instead of multiplying
    for terms, term in (({(2, (2, 0)): 1, (3, (1, 1)): 1}, "x^2*y^(2, 0)"),
                        ({(0, (0, 0)): 1}, "x^0*y^(0, 0)"),
                        ({(1, (0, 0)): 1, (3, (0, 3)): 5}, "x^3*y^(0, 3)")):
        with pytest.raises(ArithmeticError, match=(
                rf"^g holds {re.escape(term)}, a part of which is not below "
                r"its x-degree$")):
            series.residual(MultiSeries(2, 3, terms))
    # a term cancelled by the constructor is not there to refuse
    assert series.residual(MultiSeries(2, 3, {(2, (2, 0)): 0})) == MultiSeries(
        2, 3, {(1, (0, 0)): 1})


def test_lagrange_spot_values():
    assert lagrange_extract(3, 1, (0, 0, 0)) == 1
    assert lagrange_extract(3, 2, (1, 0, 0)) == 1
    assert lagrange_extract(3, 4, (2, 1, 0)) == 6
    assert lagrange_extract_forest(3, 2, 2, (1, 1, 0)) == 1
    assert lagrange_extract_forest(3, 2, 3, (1, 1, 1)) == 2
    assert lagrange_extract_forest(3, 1, 2, (1, 1, 0)) == \
        counting.count_trees(3, 2, (0, 1, 0))


def test_lagrange_rejects_invalid():
    with pytest.raises(ConstraintError):
        lagrange_extract(3, 3, (1, 1, 1))
    with pytest.raises(ConstraintError):
        lagrange_extract_forest(3, 2, 3, (0, 2, 1))


def test_triple_agreement_small():
    for t, N in [(2, 7), (3, 6), (4, 4)]:
        g = solve_G(t, N)
        for n in range(1, N + 1):
            for a in counting.compositions(t, n - 1):
                want = counting.count_trees(t, n, a)
                assert g.coefficient(n, a) == want
                assert lagrange_extract(t, n, a) == want


def test_interleaved_extraction_reuses_unchanged_products():
    # n descending, forests (m descending) then trees, each group's
    # compositions read forward and back: a read that altered the shared
    # product would spoil the next read of it (m=1 and trees share one)
    t = 4
    for n in range(7, 0, -1):
        groups = [
            (lagrange_extract_forest, counting.count_forests, (t, m, n),
             list(counting.compositions(t, n, m=m)))
            for m in range(min(n, t - 1), 0, -1)
        ]
        groups.append((lagrange_extract, counting.count_trees, (t, n),
                       list(counting.compositions(t, n - 1))))
        for extract, closed, shape, comps in groups:
            for a in comps + comps[::-1]:
                assert extract(*shape, a) == closed(*shape, a)


def test_expanded_product_built_once_per_group(capsys, monkeypatch):
    # verify --mode lagrange at t=3, n<=6 visits 17 (n, m) groups: 6 for
    # trees, 6 for m=1 and 5 for m=2; one product per composition would
    # be 147 in all
    built = []
    real = series._expanded_product

    def counted(t, gmax, power):
        built.append((gmax, power))
        return real(t, gmax, power)

    monkeypatch.setattr(series, "_expanded_product", counted)
    code = cli.main(["verify", "--t", "3", "--max-n", "6", "--mode", "lagrange"])
    assert code == 0
    assert capsys.readouterr().out.endswith("summary: 3/3 checks passed\n")
    assert len(built) == 17


def test_forest_extraction_matches_closed_form():
    for t in (3, 4):
        for m in range(1, t):
            for n in range(m, 7):
                for a in counting.compositions(t, n, m=m):
                    assert lagrange_extract_forest(t, m, n, a) == \
                        counting.count_forests(t, m, n, a)
        for m in [None, *range(1, t)]:
            for n in range(m or 1, 7):
                assert lagrange_table(t, n, m) == counting.count_table(t, n, m), (t, n, m)


def test_inversion_takes_no_binomial_from_the_closed_form(monkeypatch):
    # every C(n, k) of the closed form's module one too large from n = 6 on:
    # the expanded product writes its factors from its own Pascal rows, so
    # no inversion table moves
    grid = [(t, n, m) for t in (2, 3, 4, 6) for m in [None, *range(1, t)]
            for n in range(m or 1, 10 - t // 2)]
    want = [lagrange_table(*group) for group in grid]
    real = counting.binomial
    monkeypatch.setattr(counting, "binomial", lambda n, k: real(n, k) + (n > 5))
    assert counting.binomial(6, 2) == 16
    assert [lagrange_table(*group) for group in grid] == want


def test_ring_step_counts_in_closed_form():
    # solve_steps against its sum over the x-degrees e of [x^e] Q_(j-1),
    # written out term by term, and inversion_steps_through against the
    # inversion_steps of every g-degree it covers
    weak = series._weak
    for t in range(1, 17):
        for N in range(1, 40):
            steps = t * N * (N + 2) + sum(
                (weak(e, t) - weak(e, t - j + 1) if e else 1)
                * (2 * weak(N - 2 - e, t + 1) + 1)
                for j in range(1, t + 1) for e in range(N))
            assert series.solve_steps(t, N) == steps, (t, N)
            assert series.inversion_steps_through(t, N - 1) == sum(
                series.inversion_steps(t, g) for g in range(N)), (t, N)


def test_dump_lines_sorted_format():
    g = solve_G(2, 3)
    lines = g.dump_lines()
    assert lines[0] == "1;0,0;1"
    assert lines == sorted(
        lines, key=lambda s: (int(s.split(";")[0]),
                              tuple(int(x) for x in s.split(";")[1].split(",")))
    )
    for line in lines:
        n, a, c = line.split(";")
        assert int(c) == g.coefficient(int(n), tuple(int(x) for x in a.split(",")))


def domain_term(t, n):
    """A term of degree n: t parts, each in 0..n."""
    return st.tuples(st.just(n), st.tuples(*[st.integers(0, n) for _ in range(t)]))


def small_series(t=2, N=3):
    """Series of up to 5 terms, each part at most its degree, with negative
    coefficients."""
    keys = st.integers(0, N).flatmap(lambda n: domain_term(t, n))
    return st.dictionaries(keys, st.integers(-4, 4), max_size=5).map(
        lambda terms: MultiSeries(t, N, terms)
    )


def edge_series(t=2, N=5):
    """Series with one term at x-degree 0 and one at the truncation N."""
    coefficient = st.integers(-4, 4).filter(bool)
    term = lambda n: st.tuples(domain_term(t, n), coefficient)
    rest = st.dictionaries(st.integers(0, N).flatmap(lambda n: domain_term(t, n)),
                           st.integers(-4, 4), max_size=4)
    return st.builds(
        lambda low, high, terms: MultiSeries(t, N, {**terms, low[0]: low[1],
                                                    high[0]: high[1]}),
        term(0), term(N), rest,
    )


def below_degree(s, slot):
    """Whether every term's part in the slot lies below its degree, which
    is when raising that part keeps the series in the ring."""
    return all(a[slot - 1] < n for n, a, _ in s.terms())


def product(a, b):
    """a * b by the grade-list product, zero coefficients dropped."""
    return MultiSeries._ring_result(a.arity, a.truncation, [
        {k: c for k, c in series._grade_product(a._grades, b._grades, d).items() if c}
        for d in range(a.truncation + 1)])


def check_ring_laws(a, b, c):
    assert product(a, b) == product(b, a) == reference_mul(a, b)
    assert product(product(a, b), c) == product(a, product(b, c))
    assert product(a, reference_add(b, c)) == reference_add(product(a, b), product(a, c))
    x = MultiSeries(a.arity, a.truncation, {(1, (0,) * a.arity): 1} if a.truncation else {})
    for slot in range(1, a.arity + 1):
        for s in (a, product(a, b), product(a, x)):  # every part of a * x is below its degree
            if below_degree(s, slot):
                # a raised part is one digit added to each key: no carry
                assert reference_times_y(product(s, b), slot) == \
                    product(reference_times_y(s, slot), b)
    for n, parts, coefficient in product(a, b).terms():
        assert reference_mul(a, b).coefficient(n, parts) == coefficient


def triples(strategy):
    """Three series of one arity, t = 1, 2 or 3."""
    return st.integers(1, 3).flatmap(
        lambda t: st.tuples(strategy(t), strategy(t), strategy(t)))


@given(triples(small_series))
@settings(max_examples=150, deadline=None)
def test_ring_laws(abc):
    check_ring_laws(*abc)


@given(triples(edge_series))
@settings(max_examples=150, deadline=None)
def test_ring_laws_at_truncation(abc):
    check_ring_laws(*abc)
