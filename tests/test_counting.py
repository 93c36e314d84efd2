"""Closed-form counters: frozen brute-force values, structure, properties."""
from collections import Counter
from itertools import permutations
from math import comb, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbor import counting
from arbor.counting import (
    binomial,
    compositions,
    count_forests,
    count_rows,
    count_table,
    count_trees,
    marginal_count,
    marginal_row,
    total_forests,
    total_trees,
)
from arbor.errors import ConstraintError


def test_binomial_basics():
    assert binomial(5, 0) == 1
    assert binomial(5, 5) == 1
    assert binomial(4, 2) == 6
    assert binomial(4, -1) == 0
    assert binomial(4, 5) == 0
    with pytest.raises(ConstraintError):
        binomial(-1, 0)


def test_binomial_pascal_recurrence():
    for n in range(1, 25):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_row_matches_comb():
    for n in (*range(40), 997, 3000):
        for top in {0, n // 3, n}:
            assert counting.binomial_row(n, top) == [comb(n, k) for k in range(top + 1)]


# expected values below were frozen from direct enumeration of the trees
def test_count_trees_spot_values():
    assert count_trees(3, 1, (0, 0, 0)) == 1
    assert count_trees(3, 3, (1, 1, 0)) == 3
    assert count_trees(3, 4, (1, 1, 1)) == 16
    assert count_trees(3, 4, (2, 1, 0)) == 6
    assert count_trees(2, 3, (1, 1)) == 3
    assert count_trees(1, 4, (3,)) == 1


def test_count_trees_rejects_invalid_queries():
    with pytest.raises(ConstraintError):
        count_trees(3, 3, (1, 1, 1))  # sum != n-1
    with pytest.raises(ConstraintError):
        count_trees(3, 2, (1, 0))  # wrong length
    with pytest.raises(ConstraintError):
        count_trees(3, 2, (2, -1, 0))  # negative part
    with pytest.raises(ConstraintError):
        count_trees(3, 0, (0, 0, 0))  # empty tree outside the domain
    with pytest.raises(ConstraintError):
        count_trees(0, 1, ())
    with pytest.raises(ConstraintError):
        count_trees(17, 1, (0,) * 17)  # arity bound


def test_count_forests_spot_values():
    assert count_forests(3, 2, 2, (1, 1, 0)) == 1
    assert count_forests(3, 2, 3, (2, 1, 0)) == 2
    assert count_forests(3, 1, 3, (2, 1, 0)) == count_trees(3, 3, (1, 1, 0)) == 3
    assert count_forests(3, 2, 4, (1, 2, 1)) == 8


def test_count_forests_rejects_invalid_queries():
    with pytest.raises(ConstraintError):
        count_forests(3, 0, 3, (2, 1, 0))  # m out of range
    with pytest.raises(ConstraintError):
        count_forests(3, 3, 3, (1, 1, 1))  # m = t
    with pytest.raises(ConstraintError):
        count_forests(3, 2, 3, (3, 0, 0))  # zero in a root-edge slot
    with pytest.raises(ConstraintError):
        count_forests(3, 2, 3, (2, 1, 1))  # sum != n
    with pytest.raises(ConstraintError):
        count_forests(3, 2, 1, (1, 0, 0))  # n < m


def test_totals():
    assert total_trees(3, 1) == 1
    assert total_trees(3, 3) == 12
    assert total_trees(3, 4) == 55
    assert total_trees(3, 5) == 273
    assert total_trees(3, 5) == comb(15, 4) // 5
    assert total_forests(3, 2, 2) == 1
    assert total_forests(3, 2, 3) == 6
    assert total_forests(3, 2, 4) == 33
    assert total_forests(3, 1, 4) == total_trees(3, 4)


def test_marginal_spot_values():
    assert marginal_count(3, 2, {2: 1}) == 1
    assert marginal_count(3, 2, {2: 0}) == 2
    assert marginal_count(3, 4, {2: 1}) == 28
    # cross-check against summing the full table over the free slots
    assert marginal_count(3, 4, {2: 1}) == sum(
        count_trees(3, 4, (a1, 1, 2 - a1)) for a1 in range(3)
    )


def test_marginal_degenerations():
    for n in range(1, 8):
        for a in compositions(3, n - 1):
            assert marginal_count(3, n, {1: a[0], 2: a[1], 3: a[2]}) == \
                count_trees(3, n, a)
        assert marginal_count(3, n, {}) == total_trees(3, n)


def test_marginal_overfull_fixed_returns_zero():
    assert marginal_count(3, 2, {2: 5}) == 0
    assert marginal_count(3, 3, {1: 1, 2: 2}) == 0


def test_marginal_rejects_bad_slots():
    with pytest.raises(ConstraintError):
        marginal_count(3, 2, {0: 1})
    with pytest.raises(ConstraintError):
        marginal_count(3, 2, {4: 1})
    with pytest.raises(ConstraintError):
        marginal_count(3, 2, {1: -1})


def test_count_table_matches_per_composition_calls():
    # same keys in the same order, same counts, for every group up to n=12
    for t in range(1, 7):
        for n in range(1, 13):
            want = {a: count_trees(t, n, a) for a in compositions(t, n - 1)}
            assert list(count_table(t, n).items()) == list(want.items())
            for m in range(1, min(t - 1, n) + 1):
                want = {a: count_forests(t, m, n, a)
                        for a in compositions(t, n, m=m)}
                assert list(count_table(t, n, m).items()) == list(want.items())


@pytest.mark.parametrize("t, n, m", [
    (0, 3, None), (17, 3, None), (3, 0, None), (3, -2, None),
    (0, 3, 1), (3, 3, 0), (3, 3, 3), (3, 1, 2), (3, -2, 2),
])
def test_count_table_refusals_match_per_composition_calls(t, n, m):
    # the shape checks come first, so any composition of the right length
    # draws the message the per-composition call gives
    parts = (1,) * max(t, 0)
    with pytest.raises(ConstraintError) as want:
        count_trees(t, n, parts) if m is None else count_forests(t, m, n, parts)
    with pytest.raises(ConstraintError) as got:
        count_table(t, n, m)
    assert str(got.value) == str(want.value)
    with pytest.raises(ConstraintError) as got:
        # with a text writer, before the first row is asked for
        count_rows(t, n, m, write=lambda *parts: "%d," * len(parts) % parts)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("t, n, m", [(4, 24, None), (5, 12, 2), (6, 12, None),
                                     (4, 30, 3)])
def test_count_table_matches_per_composition_calls_where_quotients_recur(t, n, m):
    # n with many divisors: the quotient lists kept per (remainder, d) at
    # t >= 4 are read again under later prefixes, some of them divided by
    # d > 1, as counted here from the prefixes of the table
    free, lift = (n - 1, 0) if m is None else (n - m, m)
    table = compositions(t, n - 1) if m is None else compositions(t, n, m=m)
    seen = Counter()
    for prefix in {a[:t - 2] for a in table}:
        b = [x - (i < lift) for i, x in enumerate(prefix)]
        product = prod(comb(n, x) for x in b)
        seen[free - sum(b), n // gcd(product, n)] += 1
    assert any(count > 1 for (_, d), count in seen.items() if d > 1)
    if m is None:
        want = {a: count_trees(t, n, a) for a in compositions(t, n - 1)}
    else:
        want = {a: count_forests(t, m, n, a) for a in compositions(t, n, m=m)}
    assert list(count_table(t, n, m).items()) == list(want.items())


@pytest.mark.parametrize("t, n, m", [(3, 4, None), (2, 4, None), (3, 4, 2), (4, 5, 1),
                                     (4, 12, None), (5, 12, 2), (6, 12, None)])
def test_count_table_inexact_division_raises_like_per_composition_calls(
        t, n, m, monkeypatch):
    # a wrong C(n, 1), in the per-composition calls and in the table's
    # binomial row, breaks the exact division; the table names the same
    # product as the first per-composition call that fails
    monkeypatch.setattr(counting, "comb", lambda n, k: comb(n, k) + (k == 1))
    monkeypatch.setattr(counting, "binomial_row", lambda n, top: [
        comb(n, k) + (k == 1) for k in range(top + 1)])
    with pytest.raises(ArithmeticError) as want:
        if m is None:
            for a in compositions(t, n - 1):
                count_trees(t, n, a)
        else:
            for a in compositions(t, n, m=m):
                count_forests(t, m, n, a)
    with pytest.raises(ArithmeticError) as got:
        count_table(t, n, m)
    assert str(got.value) == str(want.value)


def test_marginal_row_matches_marginal_count():
    # the cell-ratio walk against one product of binomials per cell, up to
    # counts of several machine words and through t=1's zero cells
    for t in range(1, 7):
        for n in range(1, 81):
            for slot in range(1, t + 1):
                assert marginal_row(t, n, slot) == [
                    marginal_count(t, n, {slot: k}) for k in range(n)]
    assert marginal_row(6, 80, 1)[40].bit_length() > 128
    assert marginal_row(1, 5, 1) == [0, 0, 0, 0, 1]


@pytest.mark.parametrize("t, n, slot", [
    (0, 3, 1), (17, 3, 1), (3, 0, 1), (3, 2, 0), (3, 2, 4),
])
def test_marginal_row_refusals_match_marginal_count(t, n, slot):
    with pytest.raises(ConstraintError) as want:
        marginal_count(t, n, {slot: 0})
    with pytest.raises(ConstraintError) as got:
        marginal_row(t, n, slot)
    assert str(got.value) == str(want.value)


def test_counts_stay_below_two_to_the_t_n():
    # the bound behind the word budget of table and triangle
    for t in range(1, 7):
        for n in range(1, 13):
            counts = [*count_table(t, n).values(), *marginal_row(t, n, 1)]
            for m in range(1, min(t, n + 1)):
                counts += count_table(t, n, m).values()
            assert max(counts).bit_length() <= t * n


def test_compositions_examples():
    assert list(compositions(3, 1)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(3, 2, m=2)) == [(1, 1, 0)]


def test_compositions_lexicographic_and_complete():
    for t in range(1, 7):
        for m in range(t):
            for total in range(0, 8):
                seq = list(compositions(t, total, m=m))
                assert seq == sorted(seq)
                assert len(seq) == len(set(seq)) == comb(total - m + t - 1, t - 1)
                assert all(sum(a) == total and len(a) == t for a in seq)
                assert all(min(a[:m], default=1) >= 1 for a in seq)


def test_compositions_positivity_constraint():
    seq = list(compositions(4, 5, m=2))
    assert all(a[0] >= 1 and a[1] >= 1 for a in seq)
    assert len(seq) == comb(3 + 3, 3)
    assert list(compositions(3, 1, m=2)) == []


def test_compositions_rejects_bad_m():
    with pytest.raises(ConstraintError):
        list(compositions(3, 2, m=3))
    with pytest.raises(ConstraintError):
        list(compositions(3, -1))


def test_sum_identity_small():
    for t in range(1, 5):
        for n in range(1, 12):
            assert sum(count_trees(t, n, a) for a in compositions(t, n - 1)) == \
                total_trees(t, n)


def test_forest_sum_identity_small():
    for t in range(2, 5):
        for m in range(1, t):
            for n in range(m, 10):
                assert sum(count_forests(t, m, n, a)
                           for a in compositions(t, n, m=m)) == \
                    total_forests(t, m, n)


def test_exactness_exhaustive():
    # n divides the binomial product for every valid composition
    for t in range(1, 5):
        for n in range(1, 13):
            for a in compositions(t, n - 1):
                q = count_trees(t, n, a)
                prod = 1
                for x in a:
                    prod *= comb(n, x)
                assert q * n == prod


@st.composite
def tree_queries(draw):
    t = draw(st.integers(1, 16))
    n = draw(st.integers(1, 90))
    cuts = sorted(draw(st.lists(st.integers(0, n - 1),
                                min_size=t - 1, max_size=t - 1)))
    parts, prev = [], 0
    for c in cuts + [n - 1]:
        parts.append(c - prev)
        prev = c
    return t, n, tuple(parts)


@given(tree_queries())
@settings(max_examples=200, deadline=None)
def test_exactness_randomized(query):
    t, n, a = query
    q = count_trees(t, n, a)
    prod = 1
    for x in a:
        prod *= comb(n, x)
    assert q * n == prod


@given(tree_queries(), st.randoms())
@settings(max_examples=150, deadline=None)
def test_permutation_symmetry_randomized(query, rng):
    t, n, a = query
    shuffled = list(a)
    rng.shuffle(shuffled)
    assert count_trees(t, n, shuffled) == count_trees(t, n, a)


def test_permutation_symmetry_exhaustive_small():
    for t in range(1, 4):
        for n in range(1, 8):
            for a in compositions(t, n - 1):
                base = count_trees(t, n, a)
                for p in permutations(a):
                    assert count_trees(t, n, p) == base


def test_m1_reduction():
    for t in range(2, 5):
        for n in range(1, 12):
            for a in compositions(t, n, m=1):
                shifted = (a[0] - 1,) + a[1:]
                assert count_forests(t, 1, n, a) == count_trees(t, n, shifted)

