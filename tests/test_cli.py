"""Command-line surface: outputs, exit codes, determinism."""
import argparse
import contextlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from itertools import permutations, product
from pathlib import Path

import pytest

from arbor import cli, counting, errors, paths, series, treebank
from arbor.cli import main
from references import old_rule_table, old_triangle_text

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_tree(capsys):
    code, out, _ = run(capsys, "count", "--t", "3", "--n", "4",
                       "--composition", "1,1,1")
    assert code == 0
    assert out == "16\n"


def test_count_trivial(capsys):
    code, out, _ = run(capsys, "count", "--t", "3", "--n", "1",
                       "--composition", "0,0,0")
    assert code == 0
    assert out == "1\n"


def test_count_forest(capsys):
    code, out, _ = run(capsys, "count", "--t", "3", "--n", "3",
                       "--composition", "2,1,0", "--forest", "2")
    assert code == 0
    assert out == "2\n"


def test_count_constraint_violation(capsys):
    code, out, err = run(capsys, "count", "--t", "3", "--n", "3",
                         "--composition", "1,1,1")
    assert code == 1
    assert out == ""
    assert "sum" in err


def test_bad_flags_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(treebank, "_segment_census_compiled", None)
    verify = ["verify", "--t", "3", "--max-n", "3", "--mode", "brute"]
    for argv, message in (
        (["count", "--t", "3"], None),
        (verify + ["--workers", "0"], None),
        (verify + ["--workers", "-3"], None),
        (verify + ["--engine", "compiled"], None),
        # count_trees and count_forests check the arity, the shape, then the parts
        (["count", "--t", "0", "--n", "5", "--composition", "1"],
         "arity must be >= 1, got t=0"),
        (["count", "--t", "3", "--n", "0", "--composition", "1,2"],
         "node count must be >= 1, got n=0"),
        (["count", "--t", "3", "--n", "4", "--composition", "1,2"],
         "composition has 2 parts, arity is 3"),
        (["count", "--t", "3", "--n", "3", "--forest", "2", "--composition", "1,2"],
         "composition has 2 parts, arity is 3"),
        # the shape is checked before any composition is built
        (["table", "--t", "3", "--n", "0"], "node count must be >= 1, got n=0"),
        (["table", "--t", "3", "--n", "-2", "--forest", "2"],
         "node count must be >= m=2, got n=-2"),
        # the CLI parses the offset, the probe checks its length
        (["paths", "--t", "3", "--n", "2", "--probe", "--offset", "1,2"],
         "offset has 2 parts, arity is 3"),
        (["paths", "--t", "3", "--n", "2", "--probe", "--offset", "1,x,0"],
         "offset '1,x,0' is not a comma-separated list of integers"),
        # a flag the chosen output cannot use is refused, not dropped
        (["paths", "--t", "3", "--n", "2", "--offset", "1,0,0"],
         "--offset applies only to --probe"),
        (["paths", "--t", "3", "--n", "2", "--dump", "--offset", "1,0,0"],
         "--offset applies only to --probe"),
        (["paths", "--t", "3", "--n", "2", "--probe", "--labels"],
         "--labels does not apply to --probe"),
        (["paths", "--t", "3", "--n", "2", "--dump", "--labels"],
         "--labels does not apply to --dump"),
        (["paths", "--t", "3", "--n", "2", "--probe", "--dump"],
         "--dump does not apply to --probe"),
        # the arity first, then the row count, then the slot
        (["triangle", "--t", "0", "--rows", "2", "--marginal", "1"],
         "arity must be >= 1, got t=0"),
        (["triangle", "--t", "17", "--rows", "0", "--marginal", "1"],
         "arity must be <= 16, got t=17"),
        (["triangle", "--t", "3", "--rows", "0", "--marginal", "1"],
         "--rows must be >= 1, got 0"),
        (["triangle", "--t", "3", "--rows", "-2", "--marginal", "4"],
         "--rows must be >= 1, got -2"),
        (["verify", "--t", "4", "--max-n", "2", "--forest", "3"],
         "--forest must satisfy m <= max-n, got m=3 max-n=2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        if message is not None:
            assert err == f"error: {message}\n"


def test_kernel_cell_cap_exit_1(capsys, compiled_kernel):
    # an oversized table, then segments too large for the kernel's C types,
    # for the sizes of its buffers and for the memory it can allocate; the
    # budget lets them past the node-count refusal
    for argv, message in (
        (["--t", "16", "--n", "15"], "composition space too large"),
        (["--t", "1", "--n", str(10**20)],
         f"segment size {10**20} does not fit the compiled kernel"),
        (["--t", "1", "--n", str(2**62)],
         f"segment size {2**62} does not fit the compiled kernel"),
        (["--t", "1", "--n", str(10**15)],
         f"{10**15} nodes do not fit the compiled kernel's memory"),
    ):
        code, out, err = run(capsys, "paths", *argv, "--probe", "--budget", str(10**40))
        assert code == 1
        assert out == ""
        assert err.startswith("error: " + message)


def test_probe_past_the_squared_cell_count(capsys, compiled_kernel):
    # 4,368 compositions at t=12 n=6: each table is far below the cap,
    # though their joint table would have passed it
    code, out, err = run(capsys, "paths", "--t", "12", "--n", "6", "--probe")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    edges = [line for line in lines if line.startswith("edge,")]
    want = counting.count_table(12, 6)
    assert edges == [f"edge,{','.join(map(str, a))},{c}" for a, c in want.items()]
    residues = [line for line in lines if line.startswith("residue,")]
    assert sum(int(line.rsplit(",", 1)[1]) for line in residues) == sum(want.values())
    assert len(lines) == 1 + len(edges) + len(residues) + 1
    assert lines[-1].startswith("verdict: not-equal ")


def test_kernel_cell_cap_under_workers_exit_1(capsys, monkeypatch, compiled_kernel):
    # the kernel's refusal raised on a worker thread still exits 1 without a
    # traceback: every call off the calling thread asks for an oversized
    # table; the split floor is lifted so that these small censuses split
    def kernel(t, jobs, classes=False):
        if threading.current_thread() is not threading.main_thread():
            t, jobs = 16, [((15,), (0,) * 16)]
        return compiled_kernel(t, jobs, classes=classes)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(treebank, "_segment_census_compiled", kernel)
    monkeypatch.setattr(treebank, "_split_pays", lambda total, jobs: True)
    code, out, err = run(capsys, "verify", "--t", "3", "--max-n", "7",
                         "--mode", "brute", "--workers", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: composition space too large for the compiled kernel")


def test_unary_walks_refused_by_node_count(monkeypatch):
    # t=1 has one tree of each size, so the tree count never refuses it; a
    # walk that started would exhaust memory, so each command runs in a
    # child limited to 1 GiB of address space and a regression fails fast
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from arbor import treebank\n"
        "from arbor.cli import main\n"
        "treebank._segment_census_compiled = None\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    monkeypatch.delenv(errors.BUDGET_ENV_VAR, raising=False)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    n = 10**11
    for argv, code, err in (
        ([], 2, f"error: listing t=1 n={n} would place {n} nodes, budget is 10000000\n"),
        (["--dump"], 2,
         f"error: listing t=1 n={n} would place {n} nodes, budget is 10000000\n"),
        (["--probe"], 2,
         f"error: census(t=1, n={n}) would place {n} nodes, budget is 10000000\n"),
    ):
        done = subprocess.run([sys.executable, "-c", child, "paths", "--t", "1",
                               "--n", str(n), *argv],
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (code, "", err)
    # walks within the budget still run under the same limit
    for argv in (["--n", "3000"], ["--n", "100000", "--probe"]):
        done = subprocess.run([sys.executable, "-c", child, "paths", "--t", "1", *argv],
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, ""), done.stderr


SWEEP_BAD = ["0", "-2", str(10**20), "1.5"]


def sweep_grid():
    """Every subcommand with 3 or each bad value in one option at a time,
    over the arities 1, 2, 16, 17 and the bad values.  No composition sums
    right at a large n."""
    for t in ["1", "2", "16", "17", *SWEEP_BAD]:
        parts = ",".join(["0"] * (int(t) - 1) + ["2"]) if t in ("1", "2", "16") else "2"
        for v in ["3", *SWEEP_BAD]:
            yield ["count", "--t", t, "--n", v, "--composition", parts]
            yield ["count", "--t", t, "--n", "3", "--composition", v]
            yield ["count", "--t", t, "--n", v, "--forest", "1", "--composition", parts]
            yield ["count", "--t", t, "--n", "3", "--forest", v, "--composition", parts]
            yield ["table", "--t", t, "--n", v]
            yield ["table", "--t", t, "--n", "3", "--forest", v, "--format", "csv"]
            yield ["triangle", "--t", t, "--rows", v, "--marginal", "1"]
            yield ["triangle", "--t", t, "--rows", "3", "--marginal", v, "--self-check"]
            yield ["triangle", "--t", t, "--rows", "3", "--marginal", "1",
                   "--format", "bfile", "--b-offset", v]
            for mode in ("brute", "series", "lagrange", "all"):
                yield ["verify", "--t", t, "--max-n", v, "--mode", mode]
            yield ["verify", "--t", t, "--max-n", "3", "--forest", v]
            yield ["verify", "--t", t, "--max-n", "3", "--mode", "brute", "--workers", v]
            yield ["verify", "--t", t, "--max-n", "3", "--budget", v]
            for flag in ([], ["--probe"], ["--dump"], ["--labels"]):
                yield ["paths", "--t", t, "--n", v, *flag]
            yield ["paths", "--t", t, "--n", "3", "--probe", "--offset", v]
            yield ["paths", "--t", t, "--n", "3", "--budget", v]


def test_every_command_bounded_without_traceback(kernel_child):
    # each case of the grid, at the default budget and at $ARBOR_BUDGET=1,
    # through main in one child limited to 1 GiB of address space: it exits
    # with a documented code in a few seconds, and no exception escapes
    code = (
        "import contextlib, io, json, os, resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from arbor.cli import main\n"
        "class Sink(io.StringIO):\n"
        "    def write(self, text):\n"
        "        return len(text)\n"
        "results = []\n"
        "for budget in ('', '1'):\n"
        "    os.environ['ARBOR_BUDGET'] = budget  # empty: the default budget\n"
        f"    for argv in {list(sweep_grid())!r}:\n"
        "        err = io.StringIO()\n"
        "        start = time.perf_counter()\n"
        "        try:\n"
        "            with contextlib.redirect_stdout(Sink()), contextlib.redirect_stderr(err):\n"
        "                rc = main(argv)\n"
        "        except BaseException as exc:\n"
        "            rc = repr(exc)\n"
        "        results.append([argv, budget, rc, time.perf_counter() - start, err.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    done = kernel_child(code)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    results = json.loads(done.stdout)
    assert len(results) == 2 * len(list(sweep_grid()))
    bad = [(argv, budget, rc, round(seconds, 2), err)
           for argv, budget, rc, seconds, err in results
           if rc not in (0, 1, 2, 3) or seconds > 5 or "Traceback" in err]
    assert bad == []


def test_deep_chain_probe_with_either_kernel(capsys, monkeypatch, kernel_child):
    argv = ["paths", "--t", "1", "--n", "100000", "--probe"]
    done = kernel_child(f"from arbor.cli import main\nraise SystemExit(main({argv!r}))")
    monkeypatch.setattr(treebank, "_segment_census_compiled", None)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert (done.returncode, done.stdout) == (code, out), done.stderr


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--t", "3", "--n", "2",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "a1,a2,a3,count",
        "0,0,1,1",
        "0,1,0,1",
        "1,0,0,1",
        "total,,,3",
    ]


@pytest.mark.parametrize("t, n, m", [
    (1, 1, None), (1, 5, None), (2, 6, None), (6, 7, None), (4, 6, 1), (4, 6, 3),
    (2, 4, 1), (4, 3, 3), (3, 40, None), (16, 1, None), (16, 2, None),
    (16, 3, None), (16, 15, 15), (16, 16, 15), (4, 24, None), (5, 12, 2),
    (6, 12, None),
])
def test_table_csv_written_from_the_walk(t, n, m):
    # each row is written from the walk; the pretty width is fixed before it
    for fmt in ("csv", "pretty"):
        text = "".join(cli._table_chunks(fmt, t, n, m))
        assert text == old_rule_table(fmt, t, n, m) + "\n", fmt


def test_table_csv_refuses_rows_off_the_total(capsys, monkeypatch):
    def raised(t, n, m=None, **options):
        # the first row's count raised by one: its block as p = 1 and the
        # counts themselves as quotients
        blocks = list(real(t, n, m, **options))
        prefix, tails, p, quotients = blocks[0]
        counts = [p * q for q in quotients]
        counts[0] += 1
        blocks[0] = (prefix, tails, 1, counts)
        return iter(blocks)

    real = counting.count_rows
    monkeypatch.setattr(counting, "count_rows", raised)
    # (6, 12) has 4,368 rows: a piece of its text is made before the check
    for (t, n), fmt in product(((3, 4), (6, 12)), ("csv", "pretty")):
        with pytest.raises(ArithmeticError, match="closed-form total"):
            cli._table_chunks(fmt, t, n)
        # the command prints only a FAIL line and exits 3, as verify does
        code, out, err = run(capsys, "table", "--t", str(t), "--n", str(n),
                             "--format", fmt)
        assert (code, out, err) == (
            3, "FAIL table rows do not sum to the closed-form total\n", "")


class Writes:
    """A stdout that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_table_and_triangle_written_in_pieces():
    # each write is whole lines: 4,370 table lines in two pieces, the first
    # of at least 4,096 lines, 11,325 b-file lines in batches of 4,096, one
    # write per pretty row; no write holds the whole text
    triangle = ["triangle", "--t", "3", "--marginal"]
    for argv, want, writes in (
        (["table", "--t", "6", "--n", "12", "--format", "csv"],
         old_rule_table("csv", 6, 12) + "\n", 2),
        (["table", "--t", "6", "--n", "12"], old_rule_table("pretty", 6, 12) + "\n", 2),
        (triangle + ["2", "--rows", "150", "--format", "bfile", "--b-offset", "5"],
         old_triangle_text("bfile", 3, 2, 150, offset=5), 3),
        (triangle + ["1", "--rows", "40"], old_triangle_text("pretty", 3, 1, 40), 40),
    ):
        out = Writes()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert "".join(out.writes) == want, argv
        assert len(out.writes) == writes, argv
        assert all(text.endswith("\n") for text in out.writes), argv


def test_triangle_reference_sees_a_wrong_row(capsys, monkeypatch):
    # the reference computes its cells apart from marginal_row, so one wrong
    # row in what the command prints fails the text check
    real = counting.marginal_row
    monkeypatch.setattr(counting, "marginal_row", lambda t, n, slot: [
        cell + (n == 5) for cell in real(t, n, slot)])
    code, out, _ = run(capsys, "triangle", "--t", "3", "--rows", "8", "--marginal", "1")
    assert code == 0
    want = old_triangle_text("pretty", 3, 1, 8)
    assert out != want
    assert [a for a, b in zip(out.splitlines(), want.splitlines()) if a != b] == [
        "n=5 (edges=4): " + " ".join(str(cell + 1) for cell in real(3, 5, 1))]


@pytest.mark.parametrize("t, n, m", [(4, 12, None), (3, 4, None), (4, 12, 2),
                                     (3, 6, 1)])
def test_table_inexact_division_fails_like_per_composition_calls(
        t, n, m, capsys, monkeypatch):
    # a wrong C(n, 1), in the per-composition calls and in the table's
    # binomial row, breaks the exact division in rows whose prefix leaves
    # a divisor of n to their pair of last factors; the table prints the
    # FAIL line of the first per-composition call that fails, and exits 3
    monkeypatch.setattr(counting, "comb", lambda n, k: math.comb(n, k) + (k == 1))
    monkeypatch.setattr(counting, "binomial_row", lambda n, top: [
        math.comb(n, k) + (k == 1) for k in range(top + 1)])
    with pytest.raises(ArithmeticError) as want:
        if m is None:
            for a in counting.compositions(t, n - 1):
                counting.count_trees(t, n, a)
        else:
            for a in counting.compositions(t, n, m=m):
                counting.count_forests(t, m, n, a)
    forest = ["--forest", str(m)] if m else []
    for fmt in ("csv", "pretty"):
        code, out, err = run(capsys, "table", "--t", str(t), "--n", str(n),
                             *forest, "--format", fmt)
        assert (code, out, err) == (3, f"FAIL {want.value}\n", "")


def test_triangle_closed_form_error_exit_3(capsys, monkeypatch):
    def marginal_row(t, n, slot):
        raise ArithmeticError(f"marginal product 7 not divisible by {n}")

    monkeypatch.setattr(counting, "marginal_row", marginal_row)
    code, out, err = run(capsys, "triangle", "--t", "3", "--rows", "4",
                         "--marginal", "1")
    assert (code, out, err) == (3, "FAIL marginal product 7 not divisible by 1\n", "")


def test_count_prints_long_integers(capsys):
    # the count has 12,033 digits, past the 4,300-digit limit that Python
    # puts on converting an int to text by default
    code, out, err = run(capsys, "count", "--t", "2", "--n", "20000",
                         "--composition", "10000,9999")
    assert (code, err) == (0, "")
    assert out == f"{counting.count_trees(2, 20000, (10000, 9999))}\n"


def test_table_unary(capsys):
    code, out, _ = run(capsys, "table", "--t", "1", "--n", "5",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["a1,count", "4,1", "total,1"]


def test_table_forest_total(capsys):
    code, out, _ = run(capsys, "table", "--t", "3", "--n", "3",
                       "--forest", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "total,,,6"


def test_table_pretty_has_total(capsys):
    code, out, _ = run(capsys, "table", "--t", "3", "--n", "3")
    assert code == 0
    assert out.splitlines()[-1].startswith("total")
    assert out.splitlines()[-1].endswith("12")


def test_count_table_invariants():
    header, *rows, total = "".join(cli._table_chunks("csv", 3, 4)).splitlines()
    rows = [tuple(map(int, row.split(","))) for row in rows]
    comps = [row[:-1] for row in rows]
    assert comps == sorted(comps)
    assert total == "total,,,55"
    assert sum(row[-1] for row in rows) == 55


def test_triangle_rows(capsys):
    code, out, _ = run(capsys, "triangle", "--t", "3", "--rows", "3",
                       "--marginal", "2")
    assert code == 0
    assert out.splitlines() == [
        "n=1 (edges=0): 1",
        "n=2 (edges=1): 2 1",
        "n=3 (edges=2): 5 6 1",
    ]


def test_triangle_bfile(capsys):
    code, out, _ = run(capsys, "triangle", "--t", "3", "--rows", "3",
                       "--marginal", "2", "--format", "bfile")
    assert code == 0
    assert out.splitlines() == [
        "0 1", "1 2", "2 1", "3 5", "4 6", "5 1",
    ]
    code, out, _ = run(capsys, "triangle", "--t", "3", "--rows", "2",
                       "--marginal", "2", "--format", "bfile",
                       "--b-offset", "10")
    assert out.splitlines() == ["10 1", "11 2", "12 1"]


def test_triangle_self_check(capsys):
    code, out, _ = run(capsys, "triangle", "--t", "3", "--rows", "4",
                       "--marginal", "1", "--self-check")
    assert code == 0
    assert "self-check: all 3 slot triangles agree" in out


@pytest.mark.parametrize("corrupt, fail", [
    (3, "FAIL slot 3 triangle differs from slot 1"),
    (1, "FAIL slot 1 row n=2 does not sum to total_trees(t=3, n=2)"),
])
def test_triangle_self_check_fails_on_a_corrupt_slot(capsys, monkeypatch, corrupt, fail):
    def marginal_row(t, n, slot):
        row = real(t, n, slot)
        if slot == corrupt and n == 2:
            row[0] += 1
        return row

    real = counting.marginal_row
    monkeypatch.setattr(counting, "marginal_row", marginal_row)
    code, out, _ = run(capsys, "triangle", "--t", "3", "--rows", "4",
                       "--marginal", "1", "--self-check")
    assert (code, out.splitlines()) == (3, [fail])


def test_triangle_self_check_computes_t_triangles(capsys, monkeypatch):
    calls = []

    def marginal_row(t, n, slot):
        calls.append(slot)
        return real(t, n, slot)

    real = counting.marginal_row
    monkeypatch.setattr(counting, "marginal_row", marginal_row)
    code, out, _ = run(capsys, "triangle", "--t", "4", "--rows", "5",
                       "--marginal", "2", "--self-check")
    assert code == 0
    assert out.splitlines()[0] == "self-check: all 4 slot triangles agree"
    assert sorted(calls) == [1] * 5 + [2] * 5 + [3] * 5 + [4] * 5


def test_table_and_triangle_refused_over_budget(capsys, monkeypatch):
    # rows of a table, cells of a triangle (times t with --self-check), then
    # the 64-bit words their counts fill: rows or cells plus t*n bits per
    # count over 64, rounded up
    monkeypatch.delenv(errors.BUDGET_ENV_VAR, raising=False)
    for argv, refusal in (
        (["table", "--t", "16", "--n", "40"],
         "table(t=16, n=40) would enumerate 8654327655120 rows"),
        (["table", "--t", "16", "--n", "40", "--forest", "15"],
         "table(t=16, m=15, n=40) would enumerate 40225345056 rows"),
        (["triangle", "--t", "3", "--rows", "100000", "--marginal", "1"],
         "triangle(t=3, rows=100000) would enumerate 5000050000 cells"),
        (["triangle", "--t", "3", "--rows", "100000", "--marginal", "1",
          "--self-check"],
         "triangle(t=3, rows=100000) would enumerate 15000150000 cells"),
        # 9682200 cells pass, their counts run to thousands of digits
        (["triangle", "--t", "3", "--rows", "4400", "--marginal", "1"],
         "triangle(t=3, rows=4400) would compute 1341135985 64-bit words of counts"),
        (["triangle", "--t", "3", "--rows", "860", "--marginal", "1"],
         "triangle(t=3, rows=860) would compute 10325947 64-bit words of counts"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (
            2, "", f"error: {refusal}, budget is 10000000\n")
    # $ARBOR_BUDGET moves both bounds: rows or cells over it are refused
    # first, and counts filling as many words as it allows run
    table, forest = ["table", "--t", "3", "--n"], ["--forest", "2"]
    triangle = ["triangle", "--t", "3", "--marginal", "1", "--rows", "4"]
    for budget, argv, refusal in (
        (14, table + ["5"], "table(t=3, n=5) would enumerate 15 rows"),
        (12, table + ["4"], None),  # 10 rows, 10 + ceil(10*3*4 / 64) words
        (11, table + ["4"], "table(t=3, n=4) would compute 12 64-bit words of counts"),
        (13, table + ["5"] + forest, None),  # 10 rows, 10 + ceil(10*3*5 / 64)
        (12, table + ["5"] + forest,
         "table(t=3, m=2, n=5) would compute 13 64-bit words of counts"),
        (9, triangle, "triangle(t=3, rows=4) would enumerate 10 cells"),
        (12, triangle, None),  # 10 cells, 10 + ceil(3*(1+4+9+16) / 64)
        (11, triangle, "triangle(t=3, rows=4) would compute 12 64-bit words of counts"),
        (35, triangle + ["--self-check"], None),  # 3 copies: 30 + ceil(270 / 64)
        (34, triangle + ["--self-check"],
         "triangle(t=3, rows=4) would compute 35 64-bit words of counts"),
    ):
        monkeypatch.setenv(errors.BUDGET_ENV_VAR, str(budget))
        code, out, err = run(capsys, *argv)
        if refusal is None:
            assert (code, err) == (0, ""), argv
        else:
            assert (code, out, err) == (
                2, "", f"error: {refusal}, budget is {budget}\n"), argv


def test_closed_pipe_exit_1_without_traceback():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    arbor = [sys.executable, "-m", "arbor.cli"]
    first = next(treebank.enumerate_trees(3, 9))
    line = f"{treebank.serialize_tree(first)} | "
    line += paths.format_path(paths.tree_to_path(first), with_labels=True)
    # the reader takes one line and leaves while the writer still has more
    # than a pipe buffer to write (the table's 88,872 bytes are the least of
    # them, over 64 KiB of pipe and 8 KiB of read-ahead).  The table and the
    # triangles are written in pieces after their checks, so the pipe breaks
    # partway through their text; the listing writes each line as it is
    # made, so its 246,675 lines stop at the first write after the reader
    # leaves
    for argv, head in (
        (["triangle", "--t", "3", "--marginal", "2", "--format", "bfile",
          "--rows", "150"], "0 1"),
        (["triangle", "--t", "3", "--rows", "300", "--marginal", "1"],
         "n=1 (edges=0): 1"),
        (["table", "--t", "6", "--n", "12", "--format", "csv"],
         "a1,a2,a3,a4,a5,a6,count"),
        (["paths", "--t", "3", "--n", "9", "--labels"], line),
    ):
        proc = subprocess.Popen(arbor + argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == f"{head}\n".encode(), argv
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, b""), argv
    # the reader is gone before the first write; the output fits the
    # stdout buffer, so the pipe breaks only when it is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(arbor + ["triangle", "--t", "3", "--marginal", "2",
                                       "--format", "bfile", "--rows", "3"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def test_triangle_bad_slot(capsys):
    code, _, err = run(capsys, "triangle", "--t", "3", "--rows", "3",
                       "--marginal", "4")
    assert code == 1


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--t", "3", "--max-n", "4",
                       "--mode", "all")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("summary:")


def test_verify_series_mode_with_dump(capsys):
    code, out, _ = run(capsys, "verify", "--t", "2", "--max-n", "3",
                       "--mode", "series", "--dump-series")
    assert code == 0
    assert "series dump:" in out
    assert "1;0,0;1" in out


def test_verify_budget_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--t", "3", "--max-n", "6",
                       "--mode", "brute", "--budget", "100")
    assert code == 2
    assert "budget" in err


def test_verify_series_and_inversion_refused_over_budget(capsys, monkeypatch):
    # series ring steps: coefficient products plus pairs of degrees looked
    # at, counted from composition counts before any check runs
    monkeypatch.delenv(errors.BUDGET_ENV_VAR, raising=False)
    for argv, refusal in (
        (["--t", "2", "--max-n", "120", "--mode", "series"],
         "verify(t=2, max-n=120, mode=series) would take 17055802 series ring steps"),
        (["--t", "16", "--max-n", "10", "--mode", "lagrange"],
         "verify(t=16, max-n=10, mode=lagrange) would take 21574278 series ring steps"),
        (["--t", "16", "--max-n", "10"],
         "verify(t=16, max-n=10, mode=all) would take 1836835892 series ring steps"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (
            2, "", f"error: {refusal}, budget is 10000000\n")
    # at t=3, n<=4 the series check takes 201 steps and the two inversion
    # checks 311; --budget and $ARBOR_BUDGET move the bound, and the
    # censuses of --mode brute take none
    verify = ["verify", "--t", "3", "--max-n", "4", "--mode"]
    for budget, mode, steps in ((201, "series", None), (200, "series", 201),
                                (311, "lagrange", None), (310, "lagrange", 311),
                                (511, "all", 512), (100, "brute", None)):
        for flag in (True, False):
            monkeypatch.delenv(errors.BUDGET_ENV_VAR, raising=False)
            if flag:
                code, out, err = run(capsys, *verify, mode, "--budget", str(budget))
            else:
                monkeypatch.setenv(errors.BUDGET_ENV_VAR, str(budget))
                code, out, err = run(capsys, *verify, mode)
            if steps is None:
                assert (code, err) == (0, ""), (budget, mode)
            else:
                assert (code, out, err) == (2, "", (
                    f"error: verify(t=3, max-n=4, mode={mode}) would take "
                    f"{steps} series ring steps, budget is {budget}\n"))


def test_ring_steps_count_what_the_ring_does(monkeypatch):
    # every pair of degrees _grade_product looks at and every product of
    # coefficients it forms, against the budget's count from compositions
    steps = []
    real = series._grade_product

    def counted(a, b, d):
        steps.append(d + 1 + sum(len(a[k]) * len(b[d - k])
                                 for k in range(d + 1) if a[k] and b[d - k]))
        return real(a, b, d)

    monkeypatch.setattr(series, "_grade_product", counted)
    for t, N in [(1, 9), (2, 7), (3, 6), (4, 5), (6, 3), (16, 2)]:
        steps.clear()
        series.residual(series.solve_G(t, N))
        assert sum(steps) == series.solve_steps(t, N), (t, N)
        for m in [None] + list(range(1, min(t, N + 1))):
            for n in range(m or 1, N + 1):
                steps.clear()
                series.lagrange_table(t, n, m)
                assert sum(steps) == series.inversion_steps(t, n - (m or 1)), (t, m, n)


def test_verify_refuses_any_max_n_at_once(capsys, monkeypatch):
    # the ring-step counts are closed forms, so the guard never loops over
    # --max-n: each refusal comes in well under a second, $ARBOR_BUDGET=1 or not
    for budget in (None, "1"):
        monkeypatch.delenv(errors.BUDGET_ENV_VAR, raising=False)
        if budget:
            monkeypatch.setenv(errors.BUDGET_ENV_VAR, budget)
        for max_n, mode in product((10**6, 10**20 - 1), ("series", "lagrange", "all")):
            start = time.perf_counter()
            code, out, err = run(capsys, "verify", "--t", "3", "--max-n", str(max_n),
                                 "--mode", mode)
            assert time.perf_counter() - start < 1.0, (max_n, mode)
            assert (code, out) == (2, ""), (max_n, mode)
            assert err.startswith(
                f"error: verify(t=3, max-n={max_n}, mode={mode}) would take "), err


def test_verify_bounds_the_nodes_of_all_its_censuses(capsys, monkeypatch):
    # at t=1 every census holds one tree, so only the nodes of all the
    # groups together bound --mode brute: refused at once, before any census
    monkeypatch.delenv(errors.BUDGET_ENV_VAR, raising=False)
    for max_n, nodes in ((100000, 5000050000), (10**20, 10**20 * (10**20 + 1) // 2)):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--t", "1", "--max-n", str(max_n),
                             "--mode", "brute")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", (
            f"error: verify(t=1, max-n={max_n}, mode=brute) would place "
            f"{nodes} nodes, budget is 10000000\n"))
    # the trees place n = 1..max-n nodes and the forests of each m
    # n = m..max-n, so the default budget admits t=1 up to max-n 4471
    parse = cli.build_parser().parse_args
    for argv, nodes in ((["--t", "1", "--max-n", "4471"], 9997156),
                        (["--t", "3", "--max-n", "4"], 29),
                        (["--t", "3", "--max-n", "4", "--forest", "2"], 19)):
        args = parse(["verify", *argv, "--mode", "brute", "--budget", str(nodes)])
        cli._verify_entries(args)
        args.budget -= 1
        with pytest.raises(errors.BudgetExceededError, match=f" would place {nodes} nodes, "):
            cli._verify_entries(args)


@pytest.mark.parametrize("mode", ["brute", "series", "lagrange", "all"])
def test_verify_prices_exactly_the_entries_it_runs(capsys, monkeypatch, mode):
    # each priced entry prints one PASS line, in the same order
    monkeypatch.delenv(errors.BUDGET_ENV_VAR, raising=False)
    argv = ["verify", "--t", "3", "--max-n", "4", "--mode", mode]
    entries = cli._verify_entries(cli.build_parser().parse_args(argv))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    passed = [line for line in out.splitlines() if line.startswith("PASS ")]
    assert len(passed) == len(entries)
    for line, (check, group) in zip(passed, entries):
        text = check.passed.format(t=3, n=4, m=",".join(map(str, group)),
                                   count="COUNT", orders="COUNT")
        assert re.fullmatch(re.escape("PASS " + text).replace("COUNT", r"\d+"), line)


def test_verify_prices_an_all_m_entry_over_every_size(monkeypatch):
    # an entry over m = 1, 2 costs what one entry per m would: 10 + 9 nodes
    sums = next(c for c in cli.CHECKS if c.scope == "all m")
    monkeypatch.setattr(cli, "CHECKS", (sums._replace(cost=cli._nodes),))
    args = cli.build_parser().parse_args(
        ["verify", "--t", "3", "--max-n", "4", "--mode", "all", "--budget", "18"])
    with pytest.raises(errors.BudgetExceededError, match=" would place 19 nodes, "):
        cli._verify_entries(args)


def test_benchmark_verify_commands_far_below_the_budget():
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    parser = cli.build_parser()
    for command in golden["commands"]:
        args = parser.parse_args(command.split())
        if args.command != "verify":
            continue
        args.budget = errors.DEFAULT_BUDGET // 100
        cli._verify_entries(args)  # raises when over


def test_verify_symmetry_at_large_arity(capsys, monkeypatch):
    # one look per row stands for its t! permutation checks
    monkeypatch.delenv(errors.BUDGET_ENV_VAR, raising=False)
    for t, checks in ((9, 19958400), (16, 3201186852864000)):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--t", str(t), "--max-n", "3",
                             "--mode", "all")
        assert time.perf_counter() - start < 10.0
        assert (code, err) == (0, "")
        assert (f"PASS counts invariant under slot permutations (t={t}, n<=3, "
                f"{checks} checks)") in out.splitlines()


def per_permutation_failure(t, max_n):
    """The FAIL line of every composition against all t! of its permutations,
    the scan the sorted-composition check stands for."""
    orders = list(permutations(range(t)))
    for n in range(1, max_n + 1):
        rows = counting.count_table(t, n)
        for a, count in rows.items():
            for p in orders:
                if rows[tuple(a[i] for i in p)] != count:
                    return f"FAIL symmetry mismatch at t={t} n={n} a={a} perm={p}"
    return None


@pytest.mark.parametrize("t, n", [(3, 4), (4, 3), (2, 5)])
def test_symmetry_failure_matches_the_per_permutation_scan(t, n, capsys, monkeypatch):
    real = counting.count_table
    check = next(c for c in cli.CHECKS if c.name == "symmetry")
    args = argparse.Namespace(t=t, max_n=n)
    for parts in real(t, n):
        monkeypatch.setattr(counting, "count_table", row_off_by_one(real, n, parts))
        want = per_permutation_failure(t, n)  # None when parts are all equal
        assert cli._compare(check, args, ()) is (want is None)
        out = capsys.readouterr().out
        assert out.startswith("PASS") if want is None else out == want + "\n"


def test_verify_failure_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(counting, "count_table",
                        row_off_by_one(counting.count_table, 2))
    code, out, _ = run(capsys, "verify", "--t", "3", "--max-n", "3",
                       "--mode", "brute")
    assert code == 3
    assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
        "FAIL tree census mismatch at t=3 n=2 a=(0, 0, 1)",
        "summary: 2/3 checks passed",
    ]


def row_off_by_one(real, n_at, parts=None):
    """``real`` (count_table) with one tree row raised by one at node count
    n_at: the row of parts, or the first row when parts is None."""
    def lying(t, n, m=None):
        table = real(t, n, m)
        if m is None and n == n_at:
            table[parts or min(table)] += 1
        return table
    return lying


def off_by_one(real, n_at, n_index=1):
    """``real`` with its result raised by one at node count n_at (argument
    n_index)."""
    def lying(*args, **kwargs):
        value = real(*args, **kwargs)
        if args[n_index] != n_at:
            return value
        if isinstance(value, dict):  # a census: raise its first row
            value = dict(value)
            value[min(value)] += 1
            return value
        return value + 1
    return lying


def row_missing(real, n_at):
    """``real`` (census) with its first row dropped at node count n_at."""
    def lying(t, n, **kwargs):
        table = dict(real(t, n, **kwargs))
        if n == n_at:
            del table[min(table)]
        return table
    return lying


def group_off_by_one(real, n_at, forests):
    """``real`` (lagrange_table or group_total) with its result raised by
    one at node count n_at, for the forest groups when ``forests`` is true,
    else for the tree groups."""
    lying = off_by_one(real, n_at)

    def only(t, n, m=None):
        return (lying if (m is not None) == forests else real)(t, n, m)
    return only


def series_off_by_one(real, n_at, parts):
    """``real`` (solve_G) with the coefficient of x^n_at y^parts raised by one."""
    def lying(t, N):
        g = real(t, N)
        terms = {(n, a): c for n, a, c in g.terms()}
        terms[(n_at, parts)] = terms.get((n_at, parts), 0) + 1
        return series.MultiSeries(t, N, terms)
    return lying


def term_missing(real, gmax_at, power_at):
    """``real`` (the inversion's expanded product) without its first term of
    top g-degree when truncated at g-degree gmax_at and raised to the power
    power_at."""
    def lying(t, gmax, power):
        p = real(t, gmax, power)
        if (gmax, power) != (gmax_at, power_at):
            return p
        terms = {(n, a): c for n, a, c in p.terms()}
        del terms[min(key for key in terms if key[0] == gmax)]
        return series.MultiSeries(t, gmax, terms)
    return lying


# One wrong oracle per case: the verify mode, the FAIL lines (each names the
# check and its first failing index) and the summary.  Every table entry
# reports on its own, so a failure hides no later entry.
FAIL_CASES = {
    "tree census": (
        lambda: [(treebank, "census", off_by_one(treebank.census, 3))],
        "all",
        ["FAIL tree census mismatch at t=3 n=3 a=(0, 0, 2)"],
        "summary: 9/10 checks passed"),
    "tree census key set": (
        lambda: [(treebank, "census", row_missing(treebank.census, 3))],
        "brute",
        ["FAIL tree census key set differs at t=3 n=3 a=(0, 0, 2)"],
        "summary: 2/3 checks passed"),
    "forest census": (
        lambda: [(treebank, "forest_census",
                  off_by_one(treebank.forest_census, 3, n_index=2))],
        "brute",
        ["FAIL forest census mismatch at t=3 m=1 n=3 a=(1, 0, 2)",
         "FAIL forest census mismatch at t=3 m=2 n=3 a=(1, 1, 1)"],
        "summary: 1/3 checks passed"),
    "series": (
        lambda: [(series, "solve_G", series_off_by_one(series.solve_G, 3, (0, 1, 1)))],
        "all",
        ["FAIL series mismatch at t=3 n=3 a=(0, 1, 1)"],
        "summary: 9/10 checks passed"),
    "inversion": (
        lambda: [(series, "lagrange_table",
                  group_off_by_one(series.lagrange_table, 3, forests=False))],
        "lagrange",
        ["FAIL inversion mismatch at t=3 n=3 a=(0, 0, 2)"],
        "summary: 2/3 checks passed"),
    "inversion key set": (
        # the expanded product of n=3 lacks a term: the tree group and the
        # m=1 forest group read that one product (g-degree 2, power 3)
        lambda: [(series, "_expanded_product",
                  term_missing(series._expanded_product, 2, 3))],
        "lagrange",
        ["FAIL inversion key set differs at t=3 n=3 a=(0, 0, 2)",
         "FAIL forest inversion key set differs at t=3 m=1 n=3 a=(1, 0, 2)"],
        "summary: 1/3 checks passed"),
    "forest inversion": (
        lambda: [(series, "lagrange_table",
                  group_off_by_one(series.lagrange_table, 4, forests=True))],
        "lagrange",
        ["FAIL forest inversion mismatch at t=3 m=1 n=4 a=(1, 0, 3)",
         "FAIL forest inversion mismatch at t=3 m=2 n=4 a=(1, 1, 2)"],
        "summary: 1/3 checks passed"),
    "tree sum identity": (
        lambda: [(counting, "group_total",
                  group_off_by_one(counting.group_total, 3, forests=False))],
        "all",
        ["FAIL tree sum identity mismatch at t=3 n=3"],
        "summary: 9/10 checks passed"),
    "forest sum identity": (
        lambda: [(counting, "group_total",
                  group_off_by_one(counting.group_total, 4, forests=True))],
        "all",
        ["FAIL forest sum identity mismatch at t=3 m=1 n=4"],
        "summary: 9/10 checks passed"),
    "symmetry": (
        # the closed form itself breaks, so every tree check fails at n=2
        lambda: [(counting, "count_table",
                  row_off_by_one(counting.count_table, 2, parts=(1, 0, 0)))],
        "all",
        ["FAIL tree census mismatch at t=3 n=2 a=(1, 0, 0)",
         "FAIL series mismatch at t=3 n=2 a=(1, 0, 0)",
         "FAIL inversion mismatch at t=3 n=2 a=(1, 0, 0)",
         "FAIL tree sum identity mismatch at t=3 n=2",
         "FAIL symmetry mismatch at t=3 n=2 a=(0, 0, 1) perm=(2, 0, 1)"],
        "summary: 5/10 checks passed"),
    "series residual": (
        # g and the closed form agree, but g does not solve the equation
        lambda: [(counting, "count_table",
                  row_off_by_one(counting.count_table, 3, parts=(0, 0, 2))),
                 (series, "solve_G", series_off_by_one(series.solve_G, 3, (0, 0, 2)))],
        "series",
        ["FAIL series mismatch at t=3 n=3 a=(0, 0, 2)"],
        "summary: 0/1 checks passed"),
}


@pytest.mark.parametrize("case", sorted(FAIL_CASES))
def test_verify_fail_path(case, capsys, monkeypatch):
    patches, mode, fails, summary = FAIL_CASES[case]
    for module, name, lying in patches():
        monkeypatch.setattr(module, name, lying)
    code, out, _ = run(capsys, "verify", "--t", "3", "--max-n", "4",
                       "--mode", mode)
    lines = out.splitlines()
    assert code == 3
    assert [line for line in lines if not line.startswith("PASS")] == fails + [summary]


def test_paths_deep_chain(capsys):
    code, out, _ = run(capsys, "paths", "--t", "1", "--n", "3000", "--dump")
    assert code == 0
    assert out == "o" * 3000 + ".\n"
    code, out, _ = run(capsys, "paths", "--t", "1", "--n", "3000", "--probe")
    assert code == 0
    assert out.splitlines()[-1].startswith("verdict: ")


def test_paths_listing(capsys):
    code, out, _ = run(capsys, "paths", "--t", "3", "--n", "1")
    assert code == 0
    assert out == "o... | +2,-1,-1,-1\n"
    code, out, _ = run(capsys, "paths", "--t", "3", "--n", "2")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_paths_labels_and_dump(capsys):
    code, out, _ = run(capsys, "paths", "--t", "3", "--n", "1", "--labels")
    assert out == "o... | +2,-1:1,-1:2,-1:3\n"
    code, out, _ = run(capsys, "paths", "--t", "3", "--n", "2", "--dump")
    assert out.splitlines() == ["o..o...", "o.o....", "oo....."]


def test_paths_budget_exit(capsys):
    code, _, err = run(capsys, "paths", "--t", "3", "--n", "7",
                       "--budget", "50")
    assert code == 2


def test_paths_listing_refused_by_the_text_it_writes(capsys, monkeypatch):
    # after trees and nodes, the listing's trees times its line length in
    # 64-bit words: 1430715 lines of 187 chars at t=3 n=10 with labels
    monkeypatch.delenv(errors.BUDGET_ENV_VAR, raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "paths", "--t", "3", "--n", "10", "--labels")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", "error: listing t=3 n=10 would write "
                                "33442964 64-bit words of text, budget is 10000000\n")
    # the 55 lines at t=3 n=4 fill 544 words with labels (79 chars each),
    # 97 as a dump (14 chars each)
    for budget, argv, words in ((544, ["--labels"], None), (543, ["--labels"], 544),
                                (97, ["--dump"], None), (96, ["--dump"], 97)):
        code, out, err = run(capsys, "paths", "--t", "3", "--n", "4", *argv,
                             "--budget", str(budget))
        if words is None:
            assert (code, err) == (0, "")
            assert len(out) == 55 * paths.listing_line_length(3, 4, "--labels" in argv,
                                                               "--dump" in argv)
        else:
            assert (code, out, err) == (2, "", f"error: listing t=3 n=4 would write "
                                        f"{words} 64-bit words of text, budget is {budget}\n")


def test_paths_probe(capsys):
    code, out, _ = run(capsys, "paths", "--t", "3", "--n", "4", "--probe")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,a1,a2,a3,count"
    assert lines[-1].startswith("verdict: ")
    edge_rows = [l for l in lines if l.startswith("edge,")]
    assert len(edge_rows) == 10


def test_outputs_byte_deterministic(capsys):
    seen = {}
    for args in (
        ["table", "--t", "3", "--n", "4", "--format", "csv"],
        ["verify", "--t", "3", "--max-n", "4", "--mode", "all"],
        ["paths", "--t", "3", "--n", "3", "--probe"],
    ):
        runs = []
        for _ in range(2):
            code, out, _ = run(capsys, *args)
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]
        seen[tuple(args)] = runs[0]
    # worker count must not change verify output
    for workers in ("2", "3"):
        code, out, _ = run(capsys, "verify", "--t", "3", "--max-n", "4",
                           "--mode", "all", "--workers", workers)
        assert code == 0
        assert out == seen[("verify", "--t", "3", "--max-n", "4", "--mode", "all")]


def test_engine_flag_does_not_change_verify_output(capsys):
    _, pure_out, _ = run(capsys, "verify", "--t", "3", "--max-n", "4",
                         "--mode", "brute", "--engine", "pure")
    _, auto_out, _ = run(capsys, "verify", "--t", "3", "--max-n", "4",
                         "--mode", "brute", "--engine", "auto")
    assert pure_out == auto_out


def test_closed_form_commands_load_only_the_closed_form_layer():
    # count, table and triangle need neither the census kernel nor the
    # series ring nor the lattice paths, so they do not import them
    code = (
        "import sys\n"
        "from arbor.cli import main\n"
        "for argv in (['table', '--t', '3', '--n', '5', '--format', 'csv'],\n"
        "             ['triangle', '--t', '3', '--rows', '4', '--marginal', '1',\n"
        "              '--self-check'],\n"
        "             ['count', '--t', '2', '--n', '1', '--composition', '0,0']):\n"
        "    assert main(argv) == 0\n"
        "print('loaded:', sorted(m for m in sys.modules if m.split('.')[0] == 'arbor'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == (
        "loaded: ['arbor', 'arbor.cli', 'arbor.counting', 'arbor.errors']")


def test_brute_verify_loads_no_series_ring():
    # the censuses of --mode brute take no ring steps, so counting them
    # loads neither the series ring nor the lattice paths
    code = (
        "import sys\n"
        "from arbor.cli import main\n"
        "assert main(['verify', '--t', '3', '--max-n', '4', '--mode', 'brute']) == 0\n"
        "print('loaded:', sorted(m for m in sys.modules if m.split('.')[0] == 'arbor'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    loaded = done.stdout.splitlines()[-1]
    assert "'arbor.treebank'" in loaded
    assert "'arbor.series'" not in loaded and "'arbor.paths'" not in loaded


def test_package_names_load_on_first_use():
    # import arbor loads no layer; each exported name and each layer is then
    # the object its module holds
    code = (
        "import sys\n"
        "import arbor\n"
        "print(sorted(m for m in sys.modules if m.startswith('arbor')))\n"
        "names = {name: getattr(arbor, name) for name in arbor.__all__}\n"
        "layers = [arbor.counting, arbor.errors, arbor.paths, arbor.series,\n"
        "          arbor.treebank]\n"
        "assert layers[-1] is sys.modules['arbor.treebank']\n"
        "for name, value in names.items():\n"
        "    assert name in dir(arbor), name\n"
        "    assert any(vars(layer).get(name) is value for layer in layers), name\n"
        "print(arbor.HAVE_SPEEDUPS is arbor.treebank.HAVE_SPEEDUPS)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["['arbor']", "True"]


def test_cli_imports_stay_lean():
    # start-up cost is paid by every command: dataclasses pulls in inspect,
    # concurrent.futures pulls in logging.  Without site (-S) only arbor's own
    # imports can load them, through the module or a census on worker threads.
    code = (
        "import sys\n"
        "from arbor import cli\n"
        "cli.main(['verify', '--t', '3', '--max-n', '4', '--mode', 'brute',"
        " '--workers', '2'])\n"
        "heavy = ('dataclasses', 'concurrent.futures', 'inspect', 'logging')\n"
        "print('loaded:', [m for m in heavy if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "loaded: []"
