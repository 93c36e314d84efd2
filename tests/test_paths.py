"""Path encoding, its inverse, residue statistics, and the probe report."""
import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbor import counting, paths, treebank
from arbor.errors import BudgetExceededError, ConstraintError, MalformedPathError
from arbor.paths import (
    LatticePath,
    Step,
    format_path,
    parse_path,
    path_to_tree,
    residue_distribution_probe,
    residue_stats,
    tree_to_path,
)
from arbor.treebank import (
    TAryTree,
    edge_profile,
    enumerate_trees,
    parse_tree,
    serialize_tree,
)
from references import reference_listing


def steps_of(path):
    return [s.rise for s in path.steps]


def labels_of(path):
    return [s.label for s in path.steps]


def test_encoding_lone_root():
    p = tree_to_path(TAryTree.leaf(3))
    assert steps_of(p) == [2, -1, -1, -1]
    assert labels_of(p) == [None, 1, 2, 3]


def test_encoding_middle_child():
    tree = TAryTree((None, TAryTree.leaf(3), None))
    p = tree_to_path(tree)
    assert steps_of(p) == [2, -1, 2, -1, -1, -1, -1]
    assert labels_of(p) == [None, 1, 2, 1, 2, 3, 3]


def test_encoding_binary_left_chain():
    tree = TAryTree((TAryTree((TAryTree.leaf(2), None)), None))
    p = tree_to_path(tree)
    assert steps_of(p) == [1, 1, 1, -1, -1, -1, -1]
    assert labels_of(p) == [None, 1, 1, 1, 2, 2, 2]


def test_step_census():
    for t, n in [(2, 5), (3, 4), (1, 4)]:
        for tree in enumerate_trees(t, n):
            p = tree_to_path(tree)
            rises = sum(1 for s in p.steps if s.rise == t - 1)
            falls = sum(1 for s in p.steps if s.rise == -1)
            assert rises == n
            assert falls == (t - 1) * n + 1
            heights = p.heights()
            assert heights[-1] == -1
            assert all(h >= 0 for h in heights[:-1])


def test_round_trip_exhaustive_small():
    for t in (2, 3):
        for n in range(1, 6):
            for tree in enumerate_trees(t, n):
                assert path_to_tree(tree_to_path(tree), t) == tree


def test_deep_chain_round_trip():
    # a 3000-node unary chain: path -> tree -> text -> tree -> path
    n = 3000
    path = LatticePath((Step(0),) + (Step(0, 1),) * (n - 1) + (Step(-1, 1),))
    tree = path_to_tree(path, 1)
    text = serialize_tree(tree)
    assert text == "o" * n + "."
    again = parse_tree(text, 1)
    assert again is not tree and again == tree
    assert repr(again) == f"TAryTree({text!r})"
    assert tree_to_path(again) == path


def test_deep_trees_compare_without_recursion():
    # two 3000-node binary trees that differ only in the deepest node:
    # a left child in one, a right child in the other
    n = 3000
    left = parse_tree("o" * n + "." * (n + 1), 2)
    right = parse_tree("o" * (n - 1) + ".o.." + "." * (n - 2), 2)
    assert left.size == right.size == n
    assert left != right
    assert left == parse_tree(serialize_tree(left), 2)
    assert treebank.Forest([left]) != treebank.Forest([right])


def test_path_to_tree_recomputes_labels():
    tree = TAryTree((None, TAryTree.leaf(3), None))
    bare = LatticePath(tuple(Step(s.rise) for s in tree_to_path(tree).steps))
    rebuilt = path_to_tree(bare, 3)
    assert rebuilt == tree
    assert labels_of(tree_to_path(rebuilt)) == [None, 1, 2, 1, 2, 3, 3]


def test_malformed_paths_report_index():
    with pytest.raises(MalformedPathError) as info:
        path_to_tree(LatticePath((Step(-1),)), 3)
    assert info.value.index == 0

    # dips to -1 early: the root closes at index 3, junk follows
    with pytest.raises(MalformedPathError) as info:
        path_to_tree(parse_path("+2,-1,-1,-1,-1"), 3)
    assert info.value.index == 4

    # wrong rise value for the declared arity
    with pytest.raises(MalformedPathError) as info:
        path_to_tree(parse_path("+2,-1,+1,-1"), 3)
    assert info.value.index == 2

    # ends before the tree closes
    with pytest.raises(MalformedPathError) as info:
        path_to_tree(parse_path("+2,-1,-1"), 3)
    assert info.value.index == 3


def test_parse_tree_and_path_to_tree_read_one_word():
    """Both readers take the same word: a node (``o``, a rise of t-1), an
    empty slot (``.``, -1) or an invalid symbol (``x``, 5).  Each returns
    an equal tree or fails at the same index, for every word of length <= 7."""
    def parsed(text, t):
        try:
            return parse_tree(text, t)
        except ConstraintError as exc:
            found = re.fullmatch(r"(?:expected 'o'|trailing characters) at "
                                 r"position (\d+) of '[o.x]*'", str(exc))
            if found:
                return int(found[1])
            assert str(exc) == f"unexpected end of input in {text!r}"
            return len(text)

    def rebuilt(rises, t):
        try:
            return path_to_tree(LatticePath(tuple(map(Step, rises))), t)
        except MalformedPathError as exc:
            return exc.index

    for t in (1, 2, 3):
        rise = {"o": t - 1, ".": -1, "x": 5}
        for length in range(8):
            for word in itertools.product("o.x", repeat=length):
                text = "".join(word)
                assert parsed(text, t) == rebuilt([rise[c] for c in word], t), (t, text)

    for text, message in [
        ("", "expected 'o' at position 0 of ''"),
        ("...", "expected 'o' at position 0 of '...'"),
        ("o.x.", "expected 'o' at position 2 of 'o.x.'"),
        ("o....", "trailing characters at position 4 of 'o....'"),
        ("o.o..", "unexpected end of input in 'o.o..'"),
    ]:
        with pytest.raises(ConstraintError, match=f"^{re.escape(message)}$"):
            parse_tree(text, 3)
    for text, message, index in [
        ("", "expected a node step of rise 2 at index 0", 0),
        ("-1,-1,-1", "expected a node step of rise 2 at index 0", 0),
        ("+2,-1,+5,-1", "step rise 5 at index 2 is neither 2 nor -1", 2),
        ("+2,-1,-1,-1,-1", "step at index 4 follows a completed tree", 4),
        ("+2,-1,+2,-1,-1", "path ends at index 5 before the tree closes", 5),
    ]:
        path = parse_path(text) if text else LatticePath(())
        with pytest.raises(MalformedPathError, match=f"^{re.escape(message)}$") as info:
            path_to_tree(path, 3)
        assert info.value.index == index


def test_residue_stats_examples():
    lone = tree_to_path(TAryTree.leaf(3))
    assert residue_stats(lone, 3) == (1, 1, 1)
    middle = tree_to_path(TAryTree((None, TAryTree.leaf(3), None)))
    assert residue_stats(middle, 3) == (2, 1, 2)


def test_residue_conservation():
    for t, n in [(2, 5), (3, 4)]:
        for tree in enumerate_trees(t, n):
            stats = residue_stats(tree_to_path(tree), t)
            assert sum(stats) == (t - 1) * n + 1


def test_label_recovery():
    for n in range(1, 6):
        for tree in enumerate_trees(3, n):
            p = tree_to_path(tree)
            prof = edge_profile(tree)
            for slot in range(1, 4):
                rises = sum(1 for s in p.steps
                            if s.label == slot and s.rise == 2)
                total = sum(1 for s in p.steps if s.label == slot)
                assert rises == prof[slot - 1]
                assert total == n


def test_format_parse_round_trip():
    tree = TAryTree((None, TAryTree.leaf(3), None))
    p = tree_to_path(tree)
    assert format_path(p) == "+2,-1,+2,-1,-1,-1,-1"
    assert format_path(p, with_labels=True) == "+2,-1:1,+2:2,-1:1,-1:2,-1:3,-1:3"
    assert parse_path(format_path(p, with_labels=True)) == p
    bare = parse_path(format_path(p))
    assert [s.rise for s in bare.steps] == steps_of(p)
    with pytest.raises(ConstraintError):
        parse_path("+2,,-1")
    with pytest.raises(ConstraintError):
        parse_path("+2,-x")


@st.composite
def random_trees(draw, t=3, max_nodes=12):
    budget = draw(st.integers(1, max_nodes))

    def build(limit):
        if limit == 1:
            return TAryTree.leaf(t)
        kids = []
        remaining = limit - 1
        for _ in range(t):
            take = draw(st.integers(0, remaining))
            kids.append(build(take) if take else None)
            remaining -= take
        return TAryTree(kids)

    return build(budget)


@given(random_trees())
@settings(max_examples=100, deadline=None)
def test_round_trip_random(tree):
    assert path_to_tree(tree_to_path(tree), 3) == tree


# residue distribution for t=3, n=2 frozen from hand simulation
def test_probe_report_small():
    report = residue_distribution_probe(3, 2)
    assert report.edge_distribution == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    assert report.residue_distribution == {
        (2, 2, 1): 1, (2, 1, 2): 1, (1, 2, 2): 1,
    }
    assert report.verdict == "not-equal"
    assert report.witness is not None
    assert len(report.shift_matches) == 3


def test_probe_edge_side_matches_closed_form():
    for n in (1, 2, 3, 4):
        report = residue_distribution_probe(3, n)
        want = {a: counting.count_trees(3, n, a)
                for a in counting.compositions(3, n - 1)}
        assert report.edge_distribution == want
        assert sum(report.residue_distribution.values()) == \
            counting.total_trees(3, n)


def test_probe_offset_and_shift_machinery():
    # an offset making both multisets live on the same total mass for n=1
    report = residue_distribution_probe(3, 1, offset=(1, 1, 1))
    assert report.verdict == "equal"
    assert report.shift_matches[report.best_shift] == 1
    with pytest.raises(ConstraintError):
        residue_distribution_probe(3, 2, offset=(1, 1))


def test_probe_csv_shape():
    report = residue_distribution_probe(3, 3)
    lines = report.to_csv().splitlines()
    assert lines[0] == "kind,a1,a2,a3,count"
    kinds = Counter(line.split(",")[0] for line in lines[1:])
    assert kinds["edge"] == len(report.edge_distribution)
    assert kinds["residue"] == len(report.residue_distribution)
    assert report.verdict_line().startswith("verdict: ")


def test_probe_budget_guard():
    with pytest.raises(BudgetExceededError):
        residue_distribution_probe(3, 8, budget=100)


# every t <= 5 at small n, t = 1 deeper, and large arities whose residue
# vectors range far wider than their edge profiles
JOINT_SIZES = [(1, n) for n in range(1, 12)] + [
    (t, n) for t, max_n in [(2, 8), (3, 6), (4, 5), (5, 4)] for n in range(1, max_n + 1)
] + [(8, 4), (16, 2)]


def object_tables(t, n):
    """The edge profiles and the class vectors of every tree, from the tree
    objects: n less the residue vector of its path."""
    trees = list(enumerate_trees(t, n))
    return (Counter(edge_profile(tree) for tree in trees),
            Counter(tuple(n - r for r in residue_stats(tree_to_path(tree), t))
                    for tree in trees))


def check_joint_census(engine):
    for t, n in JOINT_SIZES:
        assert treebank.joint_census(t, n, engine=engine) == object_tables(t, n), (t, n)


def test_joint_census_matches_object_enumeration():
    check_joint_census("pure")


def test_compiled_joint_census_matches_object_enumeration(compiled_kernel):
    check_joint_census("compiled")


def check_probe_marginals():
    for t, n in [(1, 7), (2, 7), (3, 5), (4, 4), (5, 4)]:
        report = residue_distribution_probe(t, n)
        assert report.edge_distribution == treebank.census(t, n)
        # the residue counter the probe built from the tree objects
        residues = Counter(residue_stats(tree_to_path(tree), t)
                           for tree in enumerate_trees(t, n))
        assert report.residue_distribution == residues


def test_probe_marginals_with_pure_kernel(monkeypatch):
    monkeypatch.setattr(treebank, "_segment_census_compiled", None)
    check_probe_marginals()


def test_probe_marginals_with_compiled_kernel(compiled_kernel):
    check_probe_marginals()


def test_probe_walks_no_tree_objects(monkeypatch):
    def refuse(*args):
        raise AssertionError("the probe walked the tree objects")

    for name in ("enumerate_trees", "tree_to_path", "residue_stats"):
        monkeypatch.setattr(treebank if name == "enumerate_trees" else paths, name, refuse)
    report = residue_distribution_probe(3, 5)
    assert sum(report.residue_distribution.values()) == counting.total_trees(3, 5)


# every t <= 5 and every n whose listing has at most 5,000 trees (t = 1 to
# n = 40), and arities whose rises and labels take two digits, against the
# object-level join of each listing line
LISTING_LIMIT = 5000
LISTING_SIZES = [(1, n) for n in range(1, 41)] + [
    (t, n) for t in range(2, 6) for n in range(1, 12)
    if counting.total_trees(t, n) <= LISTING_LIMIT
] + [(12, 3), (16, 2)]


def listing(t, n, **flags):
    lines = []
    paths.write_listing(t, n, lines.append, **flags)
    return lines


def test_listing_matches_the_object_join():
    assert (2, 9) in LISTING_SIZES and (5, 5) in LISTING_SIZES
    assert (3, 7) not in LISTING_SIZES
    for t, n in LISTING_SIZES:
        want = reference_listing(t, n)
        assert listing(t, n, labels=True) == want["labels"], (t, n)
        assert listing(t, n) == want["bare"], (t, n)
        assert listing(t, n, dump=True) == want["dump"], (t, n)
        # a dump carries no step text to label
        assert listing(t, n, labels=True, dump=True) == want["dump"], (t, n)


def test_listing_line_length_matches_real_listings():
    # every line of one listing has the length the budget is sized from,
    # at every arity, in every mode
    sizes = [(t, n) for t in range(1, 17) for n in range(1, 41)
             if counting.total_trees(t, n) <= LISTING_LIMIT]
    assert (16, 3) in sizes and (1, 40) in sizes
    for t, n in sizes:
        for flags in ({}, {"labels": True}, {"dump": True}):
            lengths = {len(line) for line in listing(t, n, **flags)}
            assert lengths == {paths.listing_line_length(t, n, **flags)}, (t, n, flags)


def test_listing_deep_chain_without_recursion():
    # one 3000-node unary chain, deeper than the default recursion limit
    (line,) = listing(1, 3000, labels=True)
    assert line == "o" * 3000 + ". | +0" + ",+0:1" * 2999 + ",-1:1\n"
    assert line == reference_listing(1, 3000)["labels"][0]


def test_listing_stops_at_the_first_failed_write():
    calls = []

    def write(text):
        calls.append(text)
        if len(calls) == 2:
            raise BrokenPipeError

    with pytest.raises(BrokenPipeError):
        paths.write_listing(3, 9, write, labels=True)
    assert len(calls) == 2


def test_listing_builds_no_path_objects(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the listing built path objects")

    for name in ("tree_to_path", "format_path", "Step", "LatticePath"):
        monkeypatch.setattr(paths, name, refuse)
    monkeypatch.setattr(treebank, "serialize_tree", refuse)
    assert len(listing(3, 4, labels=True)) == counting.total_trees(3, 4)


def test_listing_builds_no_tree_objects(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the listing built tree objects")

    monkeypatch.setattr(treebank, "TAryTree", refuse)
    monkeypatch.setattr(treebank, "read_preorder", refuse)
    assert len(listing(3, 4, labels=True)) == counting.total_trees(3, 4)
