"""Enumeration and census oracles: frozen tables, determinism, kernel parity."""
import itertools
import math
import os
import threading
from collections import Counter

import pytest

from arbor import counting, treebank
from arbor.errors import BUDGET_ENV_VAR, BudgetExceededError, ConstraintError
from arbor.paths import residue_stats, tree_to_path
from arbor.treebank import (
    Forest,
    TAryTree,
    census,
    edge_profile,
    enumerate_forests,
    enumerate_trees,
    forest_census,
    forest_profile,
    joint_census,
    parse_tree,
    segment_census_pure,
    serialize_tree,
)
from conftest import child_env, kernel_prelude, run_python
from references import reference_forests, reference_trees

# enumeration totals frozen from direct generation
TERNARY_TOTALS = [1, 3, 12, 55, 273, 1428, 7752]
BINARY_TOTALS = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
QUATERNARY_TOTALS = [1, 4, 22, 140, 969]
# the kernel each engine runs, as census calls it
KERNELS = {"pure": segment_census_pure, "compiled": treebank._segment_census_capped}


def test_enumeration_counts():
    for n, want in enumerate(TERNARY_TOTALS, start=1):
        assert sum(1 for _ in enumerate_trees(3, n)) == want
    for n, want in enumerate(BINARY_TOTALS[:6], start=1):
        assert sum(1 for _ in enumerate_trees(2, n)) == want
    for n, want in enumerate(QUATERNARY_TOTALS[:4], start=1):
        assert sum(1 for _ in enumerate_trees(4, n)) == want
    assert list(enumerate_trees(3, 0)) == []


def test_enumeration_no_duplicates():
    for t, n in [(2, 7), (3, 5), (4, 4)]:
        seen = [serialize_tree(tr) for tr in enumerate_trees(t, n)]
        assert len(seen) == len(set(seen)) == counting.total_trees(t, n)


def test_enumeration_deterministic():
    first = [serialize_tree(tr) for tr in enumerate_trees(3, 5)]
    second = [serialize_tree(tr) for tr in enumerate_trees(3, 5)]
    assert first == second


def slot_sizes(tree):
    """Subtree size in every slot (0 when empty), each slot followed by the
    slots of its subtree: the sequence the enumeration order sorts by."""
    out, stack = [], list(reversed(tree.children))
    while stack:
        ch = stack.pop()
        out.append(0 if ch is None else ch.size)
        if ch is not None:
            stack.extend(reversed(ch.children))
    return out


def test_enumeration_order_matches_recursive_reference():
    limits = {1: 9, 2: 8, 3: 6, 4: 5, 5: 4}
    for t, max_n in limits.items():
        for n in range(max_n + 1):
            got = [serialize_tree(tr) for tr in enumerate_trees(t, n)]
            assert got == [serialize_tree(tr) for tr in reference_trees(t, n)]
        for m in range(1, t):
            for n in range(m, max_n + 1):
                got = [repr(f) for f in enumerate_forests(t, m, n)]
                assert got == [repr(f) for f in reference_forests(t, m, n)]


def test_enumeration_order_is_lexicographic_on_slot_sizes():
    for t, n in [(1, 4), (2, 7), (3, 5), (4, 4), (5, 4)]:
        seqs = [slot_sizes(tr) for tr in enumerate_trees(t, n)]
        assert all(len(seq) == t * n for seq in seqs)
        assert all(a < b for a, b in zip(seqs, seqs[1:]))


def test_enumeration_deep_chain():
    (chain,) = enumerate_trees(1, 3000)
    assert serialize_tree(chain) == "o" * 3000 + "."
    # the first binary tree and the first one-tree forest are combs down
    # the last slot; reaching them walks 3000 levels
    comb = "o." * 3000 + "."
    assert serialize_tree(next(enumerate_trees(2, 3000))) == comb
    assert serialize_tree(next(enumerate_forests(2, 1, 3000)).trees[0]) == comb


def test_tree_invariants():
    for n in range(1, 6):
        for tr in enumerate_trees(3, n):
            assert tr.size == n
            prof = edge_profile(tr)
            assert len(prof) == 3
            assert sum(prof) == n - 1


def test_edge_profile_examples():
    lone = TAryTree.leaf(3)
    assert edge_profile(lone) == (0, 0, 0)
    middle = TAryTree((None, TAryTree.leaf(3), None))
    assert edge_profile(middle) == (0, 1, 0)
    chain = TAryTree((TAryTree((TAryTree.leaf(3), None, None)), None, None))
    assert edge_profile(chain) == (2, 0, 0)


def test_forest_profile_examples():
    lone = TAryTree.leaf(3)
    assert forest_profile(Forest((lone, lone))) == (1, 1, 0)
    assert forest_profile(Forest((lone,))) == (1, 0, 0)
    left = TAryTree((TAryTree.leaf(3), None, None))
    assert forest_profile(Forest((left, lone))) == (2, 1, 0)


def test_forest_validation():
    lone3 = TAryTree.leaf(3)
    with pytest.raises(ConstraintError):
        Forest(())
    with pytest.raises(ConstraintError):
        Forest((lone3, lone3, lone3))  # m = t
    with pytest.raises(ConstraintError):
        Forest((lone3, TAryTree.leaf(2)))  # mixed arity
    with pytest.raises(ConstraintError):
        TAryTree((TAryTree.leaf(2), None, None))  # child arity mismatch


def test_equality_by_arity_and_shape():
    word = "o.o...."
    assert parse_tree(word, 3) == parse_tree(word, 3)
    assert TAryTree.leaf(2) != TAryTree.leaf(3)
    # as long a word, but one node of arity 3 against three of arity 1
    assert TAryTree.leaf(3) != parse_tree("ooo.", 1)
    assert TAryTree.leaf(3) != "o..."
    lone, middle = TAryTree.leaf(3), parse_tree(word, 3)
    assert Forest((middle, lone)) == Forest((parse_tree(word, 3), TAryTree.leaf(3)))
    assert Forest((lone,)) != Forest((TAryTree.leaf(4),))
    assert Forest((lone, lone)) != Forest((lone,))
    assert Forest((middle,)) != Forest((lone, lone))  # two nodes each
    assert Forest((middle, lone)) != Forest((lone, middle))


def test_serialize_examples():
    assert serialize_tree(TAryTree.leaf(3)) == "o..."
    middle = TAryTree((None, TAryTree.leaf(3), None))
    assert serialize_tree(middle) == "o.o...."
    assert serialize_tree(TAryTree.leaf(1)) == "o."


def test_serialize_parse_round_trip():
    for t, n in [(1, 5), (2, 5), (3, 4)]:
        for tr in enumerate_trees(t, n):
            assert parse_tree(serialize_tree(tr), t) == tr


def test_parse_rejects_malformed():
    with pytest.raises(ConstraintError):
        parse_tree("o..", 3)  # truncated
    with pytest.raises(ConstraintError):
        parse_tree("o....", 3)  # trailing garbage
    with pytest.raises(ConstraintError):
        parse_tree("...", 3)  # no root


# census tables frozen from direct enumeration
def test_census_frozen_tables():
    assert census(3, 2) == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    assert census(3, 3) == {
        (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
        (1, 1, 0): 3, (1, 0, 1): 3, (0, 1, 1): 3,
    }
    assert census(1, 4) == {(3,): 1}
    assert census(3, 4)[(2, 1, 0)] == 6
    assert census(3, 4)[(1, 1, 1)] == 16


def test_forest_census_frozen_tables():
    assert forest_census(3, 2, 2) == {(1, 1, 0): 1}
    assert forest_census(3, 2, 3) == {(2, 1, 0): 2, (1, 2, 0): 2, (1, 1, 1): 2}
    assert forest_census(2, 1, 2) == {(2, 0): 1, (1, 1): 1}
    assert forest_census(3, 2, 4) == {
        (1, 1, 2): 3, (1, 2, 1): 8, (1, 3, 0): 3,
        (2, 1, 1): 8, (2, 2, 0): 8, (3, 1, 0): 3,
    }


def test_enumerate_forests_counts():
    assert sum(1 for _ in enumerate_forests(3, 2, 2)) == 1
    assert sum(1 for _ in enumerate_forests(3, 2, 3)) == 6
    assert sum(1 for _ in enumerate_forests(3, 2, 4)) == 33
    for t, m, n in [(3, 1, 5), (3, 2, 5), (4, 2, 4)]:
        assert sum(1 for _ in enumerate_forests(t, m, n)) == \
            counting.total_forests(t, m, n)


def test_forest_census_matches_direct_aggregation():
    for t, m, n in [(3, 1, 4), (3, 2, 5), (4, 3, 4)]:
        direct = Counter(forest_profile(f) for f in enumerate_forests(t, m, n))
        assert forest_census(t, m, n) == direct


def test_census_matches_closed_form():
    for t, max_n in [(2, 8), (3, 6), (4, 4)]:
        for n in range(1, max_n + 1):
            table = census(t, n)
            comps = list(counting.compositions(t, n - 1))
            assert set(table) == set(comps)
            for a in comps:
                assert table[a] == counting.count_trees(t, n, a)


def test_budget_guard_names_total():
    with pytest.raises(BudgetExceededError) as info:
        census(3, 6, budget=100)
    assert "1428" in str(info.value)
    assert info.value.total == 1428
    with pytest.raises(BudgetExceededError):
        forest_census(3, 2, 6, budget=10)
    # the amount that tripped: a node refusal carries the node count
    with pytest.raises(BudgetExceededError) as info:
        census(1, 20, budget=10)
    assert str(info.value) == "census(t=1, n=20) would place 20 nodes, budget is 10"
    assert info.value.total == 20


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "50")
    with pytest.raises(BudgetExceededError):
        census(3, 5)
    assert census(3, 3) == census(3, 3, budget=1000)
    monkeypatch.setenv(BUDGET_ENV_VAR, "not-a-number")
    with pytest.raises(ConstraintError):
        census(3, 3)


def usable_cpus(monkeypatch, cpus):
    """Let this process run on ``cpus`` CPUs, as a census counts them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def split_any_census(monkeypatch):
    """Let a census of any size take more than one worker: one too small to
    pay for the split stays on the calling thread."""
    monkeypatch.setattr(treebank, "_split_pays", lambda total, jobs: True)


def root_split_jobs(t, n):
    """The jobs of census(t, n) on more than one worker: the subtrees in the
    root's nonempty slots, and an edge from the root into each."""
    return [(tuple(s for s in comp if s), tuple(min(s, 1) for s in comp))
            for comp in counting.compositions(t, n - 1)]


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs."""
    threads = []

    class RecordingThread(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    return threads


def test_workers_do_not_change_tables(monkeypatch, engine):
    usable_cpus(monkeypatch, 5)
    split_any_census(monkeypatch)
    for workers in (1, 2, 5):
        assert census(3, 5, workers=workers, engine=engine) == counting.count_table(3, 5)
        assert forest_census(3, 2, 5, workers=workers, engine=engine) == \
            counting.count_table(3, 5, 2)
        assert census(3, 1, workers=workers, engine=engine) == {(0, 0, 0): 1}


def test_worker_pool_clamped_to_job_count(monkeypatch, compiled_kernel, started):
    # a census runs one worker on the calling thread and one on each thread it
    # starts; record how many ran at once, or nothing when it ran sequentially
    pool_sizes = []

    def run(call, *args):
        del started[:]
        assert call(*args, workers=1000) == call(*args)
        assert not any(thread.is_alive() for thread in started)
        if started:
            pool_sizes.append(len(started) + 1)

    # the CPUs this process may run on count, not the CPUs of the machine
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    usable_cpus(monkeypatch, 64)
    split_any_census(monkeypatch)
    # 10 root size splits for t=3 n=4, 4 node splits for t=3 m=2 n=5
    run(census, 3, 4)
    run(forest_census, 3, 2, 5)
    assert pool_sizes == [10, 4]
    # fewer usable CPUs than jobs: they bind
    usable_cpus(monkeypatch, 3)
    run(census, 3, 4)
    # without an affinity call the CPU count stands in; unknown means one
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run(census, 3, 4)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run(census, 3, 4)
    assert pool_sizes == [10, 4, 3, 2]


def test_each_worker_walks_its_balanced_share_in_one_call(monkeypatch, kernel_calls):
    # one kernel call per worker; the shares hold every root split once and
    # their closed-form tuple counts differ by at most the largest job's
    usable_cpus(monkeypatch, 2)
    split_any_census(monkeypatch)
    assert census(3, 7, workers=2) == counting.count_table(3, 7)
    jobs = root_split_jobs(3, 7)
    assert len(kernel_calls) == 2
    assert sorted(job for share in kernel_calls for job in share) == sorted(jobs)

    def load(share):
        return sum(math.prod(counting.total_trees(3, s) for s in sizes) for sizes, _ in share)

    assert abs(load(kernel_calls[0]) - load(kernel_calls[1])) <= max(load([job]) for job in jobs)


def test_small_census_stays_on_the_calling_thread(monkeypatch, kernel_calls, started):
    # 7,752 trees take the compiled walk well under a millisecond, less
    # than starting a thread; two usable CPUs still run one whole walk
    usable_cpus(monkeypatch, 2)
    assert census(3, 7, workers=2) == counting.count_table(3, 7)
    assert (kernel_calls, started) == ([[((7,), (0, 0, 0))]], [])


def test_split_pays_from_its_measured_floor(monkeypatch, compiled_kernel, started):
    # 2**11 trees per split plus 2**16: the floor itself splits
    assert treebank._split_pays((45 + 32) << 11, 45)
    assert not treebank._split_pays(((45 + 32) << 11) - 1, 45)
    usable_cpus(monkeypatch, 2)
    # 43,263 trees in 36 root splits stay; 246,675 in 45 take a thread;
    # 316,316 in 3,876 stay, as building and merging them costs more
    for t, n, threads in [(3, 8, 0), (3, 9, 1), (16, 5, 0)]:
        del started[:]
        assert census(t, n, workers=2) == counting.count_table(t, n)
        assert len(started) == threads


def test_one_usable_cpu_runs_the_whole_walk(monkeypatch, kernel_calls, started):
    # pinned to one CPU of 64, two workers are one: one kernel call on the
    # whole tree, not one per root split (3,876 at t=16 n=5), and no thread
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    usable_cpus(monkeypatch, 1)
    split_any_census(monkeypatch)
    assert census(16, 5, workers=2) == counting.count_table(16, 5)
    assert (kernel_calls, started) == ([[((5,), (0,) * 16)]], [])


def test_pure_kernel_runs_alone(monkeypatch, started):
    # the pure kernel holds the GIL, so more workers would only add overhead
    usable_cpus(monkeypatch, 2)
    assert census(3, 5, workers=2, engine="pure") == counting.count_table(3, 5)
    assert forest_census(3, 2, 5, workers=2, engine="pure") == \
        counting.count_table(3, 5, 2)
    assert started == []


@pytest.mark.parametrize("where", ["worker", "calling"])
def test_kernel_error_under_workers_reaches_the_caller(monkeypatch, where):
    def kernel(t, jobs, classes=False):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (where == "worker"):
            raise RuntimeError(f"kernel failed on the {where} thread")
        return segment_census_pure(t, jobs)

    # only the compiled kernel runs on more than one worker
    monkeypatch.setattr(treebank, "_segment_census_compiled", kernel)
    usable_cpus(monkeypatch, 2)
    split_any_census(monkeypatch)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"on the {where} thread"):
        census(3, 4, workers=2)
    assert threading.active_count() == before


def test_engine_selection(monkeypatch):
    pure = census(4, 4, engine="pure")
    auto = census(4, 4, engine="auto")
    assert pure == auto
    with pytest.raises(ConstraintError):
        census(3, 3, engine="warp")
    monkeypatch.setattr(treebank, "_segment_census_compiled", None)
    with pytest.raises(ConstraintError):
        census(3, 3, engine="compiled")


def test_compiled_kernel_matches_reference(compiled_kernel, monkeypatch):
    fast = compiled_kernel
    cases = [(3, (5,)), (2, (6,)), (4, (2, 3)), (3, (1, 2, 1)), (3, (2, 2)), (5, (4,))]
    for t, sizes in cases:
        jobs = [(sizes, (0,) * t)]
        assert fast(t, jobs) == segment_census_pure(t, jobs)
        edges, classes = fast(t, jobs, classes=True)
        assert edges == fast(t, jobs)
        assert (edges, classes) == segment_census_pure(t, jobs, classes=True)
    # mixed root vectors in one space of 3 edges, the empty tuple among them
    mixed = [((2, 1), (1, 0, 1)), ((), (1, 1, 1)), ((3,), (0, 1, 0)), ((1, 1, 2), (0, 0, 2))]
    assert fast(3, mixed) == segment_census_pure(3, mixed)
    for job in mixed:
        assert fast(3, [job] * 2, classes=True) == segment_census_pure(3, [job] * 2, classes=True)
    assert fast(3, []) == segment_census_pure(3, []) == {}
    for t, n in [(2, 9), (3, 7), (4, 5)]:
        assert census(t, n, engine="compiled") == census(t, n, engine="pure")
        assert joint_census(t, n, engine="compiled") == joint_census(t, n, engine="pure")
    for t, m, n in [(3, 1, 6), (3, 2, 6)] + [(5, m, 6) for m in range(1, 5)]:
        assert forest_census(t, m, n, engine="compiled") == \
            forest_census(t, m, n, engine="pure")
    # every root-split job of census(t, n, workers=2), alone and all in one call
    split_any_census(monkeypatch)
    for t, max_n in [(1, 8), (2, 7), (3, 6), (4, 5), (5, 4)]:
        for n in range(1, max_n + 1):
            jobs = root_split_jobs(t, n)
            assert fast(t, jobs) == segment_census_pure(t, jobs) == counting.count_table(t, n)
            for job in jobs:
                assert fast(t, [job]) == segment_census_pure(t, [job])
                assert fast(t, [job], classes=True) == \
                    segment_census_pure(t, [job], classes=True)
        assert census(t, max_n, workers=2, engine="compiled") == \
            census(t, max_n, workers=2, engine="pure")


def test_forest_census_ranks_above_the_root_floor(compiled_kernel):
    # 649,600 forests whose profiles start at one edge in each of slots
    # 1..8 fill 816 cells above that floor, not 7,726,160 from zero
    assert forest_census(16, 8, 11, budget=10**12) == counting.count_table(16, 11, 8)


def test_jobs_of_different_spaces_are_refused(engine):
    kernel = KERNELS[engine]
    refused = "^jobs fill different composition spaces$"
    # 2 edges against 3
    with pytest.raises(ConstraintError, match=refused):
        kernel(3, [((3,), (0, 0, 0)), ((3,), (1, 0, 0))])
    # the classes rank in the jobs' space, so they need one roots vector
    jobs = [((2,), (1, 0, 0)), ((2,), (0, 1, 0))]
    assert kernel(3, jobs) == {(2, 0, 0): 1, (1, 1, 0): 2, (1, 0, 1): 1, (0, 2, 0): 1,
                               (0, 1, 1): 1}
    with pytest.raises(ConstraintError, match=refused):
        kernel(3, jobs, classes=True)


def test_compiled_kernel_refuses_malformed_jobs(compiled_kernel):
    # what would read or write past the compiled kernel's buffers, refused
    # by both kernels with one message, in classes mode too
    def shape(t):
        return (rf"^each job must be a \(sizes, roots\) pair of tuples, at most {t} "
                rf"sizes and {t} roots$")
    negative = "^root edge count -1 must be >= 0$"
    cases = [(3, jobs, shape(3)) for jobs in (
        [((1,), (0, 0))], [((1, 1, 1, 1), (0, 0, 0))], [[(1,), (0, 0, 0)]],
        [((1,), (0, 0, 0), ())], [([1], (0, 0, 0))],
        # a good job first: every job's shape is checked before any walks
        [((2,), (0, 0, 0)), ((1,), (0, 0))])]
    cases += [(3, [((1,), (0, -1, 0))], negative),
              (2, [((1, 1, 1), (0, 0))], shape(2)),
              (2, [((2,), (0,))], shape(2)),
              (2, [((2,), (0, -1))], negative),
              # nothing is sized by t before a job shows t roots
              (2**40, [((1,), (0,))], shape(2**40))]
    for kernel in (segment_census_pure, treebank._segment_census_capped):
        for t, jobs, message in cases:
            for classes in (False, True):
                with pytest.raises(ConstraintError, match=message):
                    kernel(t, jobs, classes=classes)
        assert kernel(2**40, []) == {}
        assert kernel(2**40, [], classes=True) == ({}, {})


def test_compiled_kernel_cell_cap_is_a_constraint_error(compiled_kernel):
    with pytest.raises(ConstraintError, match="composition space too large"):
        census(16, 15, budget=10**40, engine="compiled")


def test_compiled_residues_mode_refusals(compiled_kernel):
    cap = r"^composition space too large for the compiled kernel \(more than 16777216 cells\)$"
    # the profiles pass the cap at t=16 n=15 (77.6M)
    with pytest.raises(ConstraintError, match=cap):
        joint_census(16, 15, budget=10**40, engine="compiled")
    edges, classes = joint_census(12, 6, engine="compiled")
    total = counting.total_trees(12, 6)
    assert sum(edges.values()) == sum(classes.values()) == total
    assert edges == census(12, 6)
    big = 10**20
    with pytest.raises(ConstraintError,
                       match=f"^segment size {big} does not fit the compiled kernel$"):
        joint_census(1, big, budget=10**40, engine="compiled")


def test_joint_census_refusals_match_census():
    for args, kwargs in [((3, 6), {"budget": 100}), ((3, 0), {}), ((17, 2), {}),
                         ((3, 3), {"engine": "warp"})]:
        with pytest.raises((ConstraintError, BudgetExceededError)) as want:
            census(*args, **kwargs)
        with pytest.raises((ConstraintError, BudgetExceededError)) as got:
            joint_census(*args, **kwargs)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_residues_mode_sums_the_path_of_each_tree():
    # one Lukasiewicz path per segment, its falls counted from height 0; the
    # classes are the node count less the falls of each residue class
    for t, sizes in [(2, (2, 3)), (3, (1, 2, 1)), (3, (3, 2)), (4, (2, 2))]:
        edges, classes = Counter(), Counter()
        for trees in itertools.product(*(list(enumerate_trees(t, n)) for n in sizes)):
            edges[tuple(map(sum, zip(*(edge_profile(x) for x in trees))))] += 1
            classes[tuple(sum(sizes) - sum(falls) for falls in
                          zip(*(residue_stats(tree_to_path(x), t) for x in trees)))] += 1
        assert segment_census_pure(t, [(sizes, (0,) * t)], classes=True) == (edges, classes)


def test_pure_walk_matches_object_enumeration():
    for t, n in [(1, 6), (2, 8), (3, 6), (4, 5)]:
        direct = Counter(edge_profile(tr) for tr in enumerate_trees(t, n))
        assert census(t, n, engine="pure") == direct
    for t, m, n in [(2, 1, 6), (3, 1, 5), (3, 2, 6), (4, 3, 6)]:
        direct = Counter(forest_profile(f) for f in enumerate_forests(t, m, n))
        assert forest_census(t, m, n, engine="pure") == direct


def test_pure_walk_deep_chain():
    assert census(1, 3000, engine="pure") == {(2999,): 1}


def test_compiled_kernel_deep_chain(kernel_child):
    done = kernel_child("print(treebank.census(1, 200_000, engine='compiled'))")
    assert (done.returncode, done.stdout) == (0, "{(199999,): 1}\n"), done.stderr


SANITIZED_CHECKS = """
import os, random
from math import prod
from arbor import counting
from arbor.errors import ConstraintError
# every census on two workers, whatever the CPUs and its size
os.sched_getaffinity = lambda pid: {0, 1}
treebank._split_pays = lambda total, jobs: True
for t, n in [(3, 10), (16, 5), (8, 6), (2, 13)]:
    assert treebank.census(t, n, workers=2) == counting.count_table(t, n), (t, n)
# forests, their profiles ranked above the floor of their m root edges
for t, m, n in [(16, 8, 11), (16, 15, 16)]:
    for workers in (1, 2):
        got = treebank.forest_census(t, m, n, workers=workers, budget=10**12)
        assert got == counting.count_table(t, n, m), (t, m, n, workers)
for t, n in [(3, 9), (11, 5), (1, 7)]:
    edges, classes = treebank.joint_census(t, n)
    assert edges == counting.count_table(t, n), (t, n)
    assert sum(classes.values()) == counting.total_trees(t, n), (t, n)
# random job lists, some malformed: both kernels give one table or one refusal
rng = random.Random(8)

def job(t, roots):
    while True:
        sizes = tuple(rng.randint(1, 4) if rng.random() > 0.01 else 0
                      for _ in range(rng.randint(0, t + 1)))
        if prod(counting.total_trees(t, s) for s in sizes if s > 0) <= 200:
            break
    if rng.random() < 0.05:  # another space, another shape or a negative count
        roots = tuple(rng.randint(-1, 2) for _ in range(rng.randint(t - 1, t + 1)))
    return sizes, roots

def outcome(kernel, t, jobs, classes):
    try:
        return kernel(t, jobs, classes=classes)
    except ConstraintError as exc:
        return str(exc)

results = []
for _ in range(1000):
    t = rng.randint(1, 9)
    roots = tuple(rng.randint(0, 2) for _ in range(t))
    jobs = [job(t, roots) for _ in range(rng.randint(0, 3))]
    classes = rng.random() < 0.5
    got = outcome(treebank._segment_census_capped, t, jobs, classes)
    assert got == outcome(treebank.segment_census_pure, t, jobs, classes), (t, jobs, classes)
    results.append(isinstance(got, str))
print(f"{results.count(False)} tables, {results.count(True)} refusals")
"""


def test_compiled_kernel_under_sanitizers(sanitized_speedups):
    # the kernel built with AddressSanitizer and UBSan, in a child with their
    # runtimes preloaded: large censuses against the closed form, then seeded
    # random job lists against the pure kernel.  A read or write outside a
    # buffer, or undefined behaviour, aborts the child with a report
    path, runtimes = sanitized_speedups
    env = child_env(LD_PRELOAD=" ".join(runtimes), ASAN_OPTIONS="detect_leaks=0")
    done = run_python("-c", kernel_prelude(path) + SANITIZED_CHECKS, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert done.stdout == "547 tables, 453 refusals\n"


def test_segment_census_degenerate(engine):
    # the empty tuple, the one job of a root split at n = 1; the compiled
    # kernel as census calls it, its ValueError a ConstraintError
    kernel = KERNELS[engine]
    assert kernel(3, [((), (0, 0, 0))]) == {(0, 0, 0): 1}
    assert kernel(3, [((), (0, 0, 0))], classes=True) == ({(0, 0, 0): 1}, {(0, 0, 0): 1})
    assert kernel(3, [((), (1, 0, 2))]) == {(1, 0, 2): 1}
    for sizes, bad in [((0,), 0), ((-1,), -1), ((2, 0, -1), 0)]:
        for classes in (False, True):
            with pytest.raises(ConstraintError, match=f"^segment size {bad} must be >= 1$"):
                kernel(3, [((1,), (0, 0, 0)), (sizes, (0, 0, 0))], classes=classes)


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ConstraintError):
        list(enumerate_trees(0, 3))
    with pytest.raises(ConstraintError):
        list(enumerate_trees(17, 1))
    with pytest.raises(ConstraintError):
        list(enumerate_forests(3, 3, 4))
    with pytest.raises(ConstraintError):
        list(enumerate_forests(3, 2, 1))
