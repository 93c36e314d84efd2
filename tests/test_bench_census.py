"""``tools/bench_census.py``: its process rows launch through the
benchmark's launcher in ``perfbench/run.py``, pinned or not, and its
in-process rows keep their schema and stop on a failed check."""
import importlib.util
import json
import os
from pathlib import Path

import pytest

from arbor import counting, treebank

ROOT = Path(__file__).resolve().parent.parent
COUNT = ["count", "--t", "2", "--n", "1", "--composition", "0,0"]
TINY = {  # one small size for each in-process row, one call each
    "SOLVE_SIZES": [(2, 4)], "RESIDUAL_SIZES": [(2, 4)], "INVERSION_GROUPS": [(3, 4, 2)],
    "COMPOSITION_SIZES": [(3, 4, 2)], "BINOMIAL_ROWS": [(6, 5)],
    "CLOSED_FORM_SIZES": [(3, 4, None), (3, 4, 2)], "TRIANGLE_SIZES": [(3, 2, 5)],
    "CSV_SIZES": [(3, 4, None)], "PRETTY_SIZES": [(3, 4, 2)],
    "LISTING_SIZES": [(3, 3, True)], "REPEAT": 1, "MIN_SECONDS": 0,
    "SIZES": [], "JOINT_SIZES": [], "PROBE_SIZES": [],
    "WORKER_SIZES": [(3, 4, None), (3, 4, 2)],
}


@pytest.fixture
def bench():
    """A fresh load of the tool, its in-process rows at TINY sizes."""
    spec = importlib.util.spec_from_file_location(
        "bench_census", ROOT / "tools" / "bench_census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    vars(module).update(TINY)
    return module


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_process_rows_launch_through_the_benchmark_launcher(bench):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    want = bench.digest(bench.cli_text(COUNT))
    for pinned in (None, cpu):
        [run] = bench.launched(["-m", "arbor.cli", *COUNT], env, 1, pinned)
        assert (run.exit_code, run.sha) == (0, want)
        assert run.rss_kb > 0
        assert os.sched_getaffinity(0) == allowed
    # a pinned command runs on that one CPU
    [run] = bench.launched(["-c", "import os; print(sorted(os.sched_getaffinity(0)))"],
                           env, 1, cpu)
    assert run.tail == f"[{cpu}]\n".encode()
    assert os.sched_getaffinity(0) == allowed


def test_in_process_rows_keep_their_schema(bench, monkeypatch, tmp_path):
    # without the kernel and with no process rows, the row set holds the
    # in-process rows alone, in the order and with the keys of earlier sets
    monkeypatch.setattr(treebank, "HAVE_SPEEDUPS", False)
    bench.process_rows, bench.OUT = lambda: [], tmp_path / "bench.json"
    bench.main()
    [run] = json.loads(bench.OUT.read_text())
    assert run["tables_equal"] is True
    assert [(row["layer"], row.get("call"), " ".join(row)) for row in run["rows"]] == [
        ("series", "solve_G", "layer call t N terms best_s"),
        ("series", "residual", "layer call t N best_s"),
        ("series", "inversion_group", "layer call t n m rows best_s"),
        ("compositions", None, "layer t total m items best_s"),
        ("closed_form", "binomial_row", "layer call n top best_s"),
        *[("closed_form", "count_table", "layer call t n m rows best_s")] * 2,
        ("closed_form", "_triangle_rows", "layer call t slot rows cells best_s"),
        ("closed_form", "table_csv", "layer call t n m rows bytes best_s"),
        ("closed_form", "table_pretty", "layer call t n m rows bytes best_s"),
        ("paths_listing", None, "layer t n labels trees bytes best_s"),
    ]
    assert [row["rows"] for row in run["rows"][-3:-1]] == [
        len(counting.count_table(3, 4)), len(counting.count_table(3, 4, 2))]


def test_listing_rows_stop_on_a_fault_in_the_walk(bench, monkeypatch):
    # the walk drops its last tree; enumerate_trees runs the same walk, so
    # only a reference that builds its trees apart from it sees the loss
    real = treebank.tree_texts

    def short(*args):
        return iter(list(real(*args))[:-1])

    monkeypatch.setattr(treebank, "tree_texts", short)
    with pytest.raises(SystemExit, match="recursive reference listing"):
        bench.listing_rows()


def test_workers_rows_time_trees_and_forests(bench, compiled_kernel):
    rows = bench.kernel_rows()
    assert [" ".join(row) for row in rows] == [
        "layer t n trees root_splits one_s two_s two_over_one",
        "layer t n m forests node_splits one_s two_s two_over_one"]
    assert [(row["t"], row["n"], row.get("m")) for row in rows] == [(3, 4, None), (3, 4, 2)]
