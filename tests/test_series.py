"""Series ring, fixed-point solution, and direct coefficient extraction."""
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


def term_key(n, parts):
    return (n, tuple(parts))


def test_mul_examples():
    x = MultiSeries.x(2, 4)
    x2 = x * x
    assert x2.coefficient(2, (0, 0)) == 1
    assert x2.coefficient(1, (0, 0)) == 0
    # (1 + y1 x)(1 + y2 x) = 1 + y1 x + y2 x + y1 y2 x^2
    a = MultiSeries(2, 4, {term_key(0, (0, 0)): 1, term_key(1, (1, 0)): 1})
    b = MultiSeries(2, 4, {term_key(0, (0, 0)): 1, term_key(1, (0, 1)): 1})
    p = a * b
    assert p.coefficient(0, (0, 0)) == 1
    assert p.coefficient(1, (1, 0)) == 1
    assert p.coefficient(1, (0, 1)) == 1
    assert p.coefficient(2, (1, 1)) == 1
    assert p.coefficient(2, (2, 0)) == 0


def test_add_identity_and_normalization():
    s = MultiSeries(2, 3, {term_key(1, (1, 0)): 2, term_key(2, (1, 1)): -1})
    zero = MultiSeries(2, 3)
    assert s + zero == s
    neg = MultiSeries(2, 3, {(n, a): -c for n, a, c in s.terms()})
    total = s + neg
    assert total == zero
    assert list(total.terms()) == []
    assert not any(total._grades)  # no stored zeros


def test_truncation_drops_high_orders():
    x = MultiSeries.x(2, 2)
    x2 = x * x
    x3 = x2 * x
    assert x3 == MultiSeries(2, 2)


def test_mismatch_errors():
    with pytest.raises(ConstraintError):
        MultiSeries.one(2, 3) + MultiSeries.one(3, 3)
    with pytest.raises(ConstraintError):
        MultiSeries.one(2, 3) * MultiSeries.one(2, 4)


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
    edge = MultiSeries(2, 3, {(0, (0, 0)): 1, (3, (3, 0)): 2})
    assert edge.dump_lines() == ["0;0,0;1", "3;3,0;2"]
    # coefficient reads under the same rule, and a term with a part above
    # its degree, which cannot be stored, reads 0
    for n, parts in ((-1, (0, 0)), (4, (0, 0)), (1, (1, -1)), (1, (1,))):
        with pytest.raises(ConstraintError):
            edge.coefficient(n, parts)
    for n, parts in ((3, (4, 0)), (3, (0, 9)), (0, (1, 0)), (2, (3, 0))):
        assert edge.coefficient(n, parts) == 0


def test_ring_results_skip_the_term_check(monkeypatch):
    a = MultiSeries(2, 5, {(1, (0, 0)): 1, (2, (1, 0)): 2})
    b = MultiSeries(2, 5, {(2, (0, 1)): -1, (3, (1, 1)): 3})
    want = reference_mul(a, MultiSeries(2, 5, {
        (1, (0, 1)): 1, (2, (1, 1)): 2, (2, (0, 2)): -1, (3, (1, 2)): 3}))
    checked = []
    real = MultiSeries._check_term

    def counting_check(self, n, parts):
        checked.append((n, parts))
        real(self, n, parts)

    monkeypatch.setattr(MultiSeries, "_check_term", counting_check)
    product = a * (a + b).times_y(2)
    assert checked == []
    assert product == want
    # the public constructor and coefficient still check every term
    with pytest.raises(ConstraintError, match=r"^x-degree 6 outside 0\.\.5$"):
        MultiSeries(2, 5, {(6, (0, 0)): 1})
    with pytest.raises(ConstraintError,
                       match=r"^exponent vector \(1, -1\) is not 2 non-negative parts$"):
        product.coefficient(1, (1, -1))


def reference_solve(t, N):
    """The fixed-point loop run at full truncation N in every round."""
    one = MultiSeries.one(t, N)
    x = MultiSeries.x(t, N)
    g = MultiSeries(t, N)
    for _ in range(N):
        p = x
        for slot in range(1, t + 1):
            p = p * (one + g.times_y(slot))
        g = p
    return g


def reference_mul(a, b):
    """Every pair of terms formed, then the ones beyond the truncation dropped."""
    out = {}
    for n1, a1, c1 in a.terms():
        for n2, a2, c2 in b.terms():
            if n1 + n2 <= a.truncation:
                key = (n1 + n2, tuple(p + q for p, q in zip(a1, a2)))
                out[key] = out.get(key, 0) + c1 * c2
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
        one = MultiSeries.one(t, N)
        p = MultiSeries.x(t, N)
        for slot in range(1, t + 1):
            p = p * (one + g.times_y(slot))
        assert p == g


def test_iteration_is_stationary():
    # one extra round changes nothing within the truncation
    t, N = 3, 5
    g = solve_G(t, N)
    one = MultiSeries.one(t, N)
    p = MultiSeries.x(t, N)
    for slot in range(1, t + 1):
        p = p * (one + g.times_y(slot))
    assert p == g == solve_G(t, N)


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
    is when ``times_y(slot)`` stays in the ring."""
    return all(a[slot - 1] < n for n, a, _ in s.terms())


def check_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a == reference_mul(a, b)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    x = MultiSeries.x(a.arity, a.truncation)
    for slot in range(1, a.arity + 1):
        for s in (a, a * b, a * x):  # every part of a * x is below its degree
            if below_degree(s, slot):
                assert s.times_y(slot) == reference_times_y(s, slot)
                assert (s * b).times_y(slot) == s.times_y(slot) * b
            else:
                with pytest.raises(ConstraintError):
                    s.times_y(slot)
    for n, parts, coefficient in (a * b).terms():
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


def test_times_y_refused_at_a_part_equal_to_its_degree():
    # y1 * x^2 y1^2 would hold a part above its degree; once a sum cancels
    # that term, the same slot is accepted again
    with pytest.raises(ConstraintError,
                       match=r"^part 1 of a term equals its x-degree 2$"):
        MultiSeries(2, 3, {(2, (2, 0)): 1, (3, (1, 1)): 1}).times_y(1)
    with pytest.raises(ConstraintError, match=r"x-degree 0$"):
        MultiSeries.one(2, 3).times_y(2)
    s = MultiSeries(2, 3, {(2, (2, 0)): 1, (3, (1, 1)): 1})
    s = s + MultiSeries(2, 3, {(2, (2, 0)): -1})
    assert s.times_y(1).dump_lines() == ["3;2,1;1"]
    assert s.times_y(2).dump_lines() == ["3;1,2;1"]
    assert MultiSeries(2, 3, {(2, (2, 0)): 1}).times_y(2).dump_lines() == ["2;2,1;1"]
