"""Census kernel and closed-form row timings, appended to BENCH_census.json.

Times, in-process, ``treebank.census`` and ``treebank.joint_census`` (the
census with the class vector of every tree's Lukasiewicz path) with each
engine at a fixed set of sizes, the compiled census with 1 and with 2
workers (one job per root split when two CPUs can run them),
``paths.residue_distribution_probe`` with the default engine, ``counting.compositions`` consumed whole, the
closed-form rows of ``table`` and ``triangle``
(``counting.binomial_row``, ``counting.count_table`` and
``cli._triangle_rows``), and the text that
``arbor table`` prints as CSV and pretty, through ``cli.main``, and the series
layer: ``series.solve_G``, ``series.residual`` (the product
x * prod (1 + yi*g) that ``verify --mode series`` forms from the solved g)
and direct inversion of one (n, m) group at a time, as ``verify --mode lagrange`` reads it, and the
``arbor paths`` listing through ``cli.main``.  Each timing calls the
function at least 3 times and until 0.2 s have elapsed, and reports the
best call.  It also runs fresh processes through ``launch`` of
``perfbench/run.py``, the benchmark's own minimal launcher, which forks
each command and reads its peak RSS (``ru_maxrss``) through ``wait4``, after
one untimed run that fills a temporary bytecode cache: start-up rows, a
no-work ``arbor count``, ``arbor verify --t 3 --max-n 7 --mode brute
--workers 2`` and ``python -c pass`` for calibration, each the best of 15
runs that must exit 0, and process rows, whole ``table`` and ``triangle``
commands at the sizes of the ``tables`` benchmark workload and at sizes
users run and ``paths --t 11 --n 6 --probe``, and ``verify --t 16 --max-n
5 --mode brute`` with and without ``--workers 2``, each pinned to one CPU
(``pinned_cpu``: this process runs there while it launches them, and the
launcher and the command inherit it), 3 runs each; each row has the best
wall time and the lowest and highest peak RSS of its runs.  It checks
that both engines and both worker counts give equal tables, that the first
table of the joint census is the census, that the compositions are as many as the binomial
count of weak compositions and come distinct, in lexicographic order, each
summing to its total, that the closed-form rows equal one ``count_trees``,
``count_forests`` or ``marginal_count`` call per row, in the same order,
that the table text equals the rendering of ``count_table`` by the rule it
replaced (a ``%d`` formatting of each row for CSV; pretty columns as wide as
the longest of the total and every part and count), that each process row
exits 0 and prints the same bytes as that rendering, as the one-string
rendering of the triangle or as the probe's report made in-process, that
the binomial row equals one ``comb`` call per entry, and that the solved
series, its residual product and every inversion group equal the
closed-form tables, and that each listing equals, byte for byte, the join of
``serialize_tree`` and ``format_path(tree_to_path(tree))`` over
``enumerate_trees``.  It appends one row set to ``BENCH_census.json`` at
the repository root.  The stamp carries the git SHA, ``"dirty": true`` when
``src`` or ``tools`` differ from that commit, the Python version and the CPU
count.  The census, joint, workers and probe rows need the compiled kernel, for
example after ``python setup.py build_ext --inplace``; without it only the
series, compositions, closed-form, CSV, listing, start-up and process rows
are timed:

    PYTHONPATH=src python tools/bench_census.py

The pure engine needs about two minutes for the census sizes.
"""
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from math import comb
from pathlib import Path

from arbor import cli, counting, paths, series, treebank

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench  # noqa: E402  (perfbench/run.py, for its launcher)

OUT = ROOT / "BENCH_census.json"
SIZES = [(3, 11), (2, 15), (4, 8), (3, 9)]
JOINT_SIZES = [(3, 9), (3, 10)]
WORKER_SIZES = [(3, 11), (8, 6), (16, 5)]
PROBE_SIZES = [(3, 9)]
COMPOSITION_SIZES = [(6, 21, 0), (6, 29, 0), (4, 30, 3)]  # (t, total, m)
CLOSED_FORM_SIZES = [(6, 22, None), (6, 30, None), (4, 30, 3)]  # (t, n, m)
TRIANGLE_SIZES = [(3, 2, 150)]  # (t, slot, rows)
CSV_SIZES = [(6, 22, None), (4, 30, 3), (3, 300, None)]  # (t, n, m)
PRETTY_SIZES = [(6, 22, None), (6, 30, None), (4, 30, 3)]  # (t, n, m)
SOLVE_SIZES = [(3, 12), (4, 8), (2, 40)]  # (t, N)
RESIDUAL_SIZES = [(3, 12)]  # (t, N)
LISTING_SIZES = [(3, 6, True), (3, 7, True), (4, 5, False)]  # (t, n, labels)
INVERSION_GROUPS = [(3, 12, None), (3, 12, 1), (3, 12, 2),
                    (4, 8, None), (4, 8, 1), (4, 8, 2), (4, 8, 3)]  # (t, n, m)
BINOMIAL_ROWS = [(3000, 2999), (8000, 7999)]  # (n, top)
PROCESS_TABLES = [("csv", 6, 22, None), ("pretty", 4, 30, 3), ("csv", 6, 30, None),
                  ("pretty", 6, 30, None), ("csv", 2, 8000, None)]  # (format, t, n, m)
PROCESS_TRIANGLES = [("bfile", 3, 2, 150, True), ("bfile", 3, 2, 300, True),
                     ("pretty", 3, 1, 600, False)]  # (format, t, slot, rows, self-check)
PROCESS_PROBES = [(11, 6)]  # (t, n)
PROCESS_REPEAT = 3
STARTUP_COMMANDS = [  # run as python <args>
    ["-c", "pass"],
    ["-m", "arbor.cli", "count", "--t", "2", "--n", "1", "--composition", "0,0"],
    ["-m", "arbor.cli", "verify", "--t", "3", "--max-n", "7", "--mode", "brute",
     "--workers", "2"],
]
REPEAT = 3
STARTUP_REPEAT = 15
PINNED_COMMANDS = [  # run as python -m arbor.cli <args> on one CPU
    ["verify", "--t", "16", "--max-n", "5", "--mode", "brute"],
    ["verify", "--t", "16", "--max-n", "5", "--mode", "brute", "--workers", "2"],
]
MIN_SECONDS = 0.2


def best(run, repeat=REPEAT):
    """(best seconds per call, result) of run(), called at least ``repeat``
    times and until MIN_SECONDS have elapsed."""
    times = []
    while len(times) < repeat or sum(times) < MIN_SECONDS:
        t0 = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - t0)
    return min(times), result


def engine_row(layer, fn, t, n):
    """Time fn(t, n) with each engine; returns (row, table)."""
    compiled_s, compiled = best(lambda: fn(t, n, engine="compiled", budget=10**12))
    pure_s, pure = best(lambda: fn(t, n, engine="pure", budget=10**12))
    if compiled != pure:
        sys.exit(f"{layer} t={t} n={n}: compiled and pure tables differ")
    row = {
        "layer": layer, "t": t, "n": n, "trees": counting.total_trees(t, n),
        "compiled_s": round(compiled_s, 5), "pure_s": round(pure_s, 5),
        "pure_over_compiled": round(pure_s / compiled_s, 1),
    }
    return row, compiled


def composition_rows():
    """The ``compositions`` rows, each checked against the binomial count of
    its items."""
    rows = []
    for t, total, m in COMPOSITION_SIZES:
        seconds, items = best(lambda: list(counting.compositions(t, total, m)))
        want = counting.binomial(total - m + t - 1, t - 1)
        if (len(items) != want or items != sorted(set(items))
                or any(sum(a) != total or min(a[:m], default=1) < 1 for a in items)):
            sys.exit(f"compositions({t}, {total}, m={m}) are not the {want} "
                     "weak compositions in lexicographic order")
        rows.append({"layer": "compositions", "t": t, "total": total, "m": m,
                     "items": len(items), "best_s": round(seconds, 5)})
    return rows


def closed_form_rows():
    """The closed-form rows of table and triangle, each checked against one
    per-composition (or per-cell) call."""
    rows = []
    for n, top in BINOMIAL_ROWS:
        seconds, row = best(lambda: counting.binomial_row(n, top))
        if row != [comb(n, k) for k in range(top + 1)]:
            sys.exit(f"binomial_row({n}, {top}) differs from comb")
        rows.append({"layer": "closed_form", "call": "binomial_row", "n": n,
                     "top": top, "best_s": round(seconds, 5)})
    for t, n, m in CLOSED_FORM_SIZES:
        seconds, table = best(lambda: counting.count_table(t, n, m))
        if m is None:
            want = {a: counting.count_trees(t, n, a)
                    for a in counting.compositions(t, n - 1)}
        else:
            want = {a: counting.count_forests(t, m, n, a)
                    for a in counting.compositions(t, n, m=m)}
        if list(table.items()) != list(want.items()):
            sys.exit(f"count_table({t}, {n}, {m}) differs from the "
                     "per-composition counts")
        rows.append({"layer": "closed_form", "call": "count_table", "t": t, "n": n,
                     "m": m, "rows": len(table), "best_s": round(seconds, 5)})
    for t, slot, size in TRIANGLE_SIZES:
        seconds, triangle = best(lambda: cli._triangle_rows(t, slot, size))
        want = [[counting.marginal_count(t, n, {slot: k}) for k in range(n)]
                for n in range(1, size + 1)]
        if triangle != want:
            sys.exit(f"_triangle_rows({t}, {slot}, {size}) differs from marginal_count")
        rows.append({"layer": "closed_form", "call": "_triangle_rows", "t": t,
                     "slot": slot, "rows": size, "cells": size * (size + 1) // 2,
                     "best_s": round(seconds, 5)})
    for fmt, sizes in (("csv", CSV_SIZES), ("pretty", PRETTY_SIZES)):
        for t, n, m in sizes:
            argv = ["table", "--t", str(t), "--n", str(n), "--format", fmt]
            argv += ["--forest", str(m)] if m else []
            seconds, text = best(lambda: cli_text(argv))
            table = counting.count_table(t, n, m)
            if text != table_text(fmt, t, table) + "\n":
                sys.exit(f"{' '.join(argv)} differs from the rows of count_table")
            rows.append({"layer": "closed_form", "call": f"table_{fmt}", "t": t,
                         "n": n, "m": m, "rows": len(table), "bytes": len(text),
                         "best_s": round(seconds, 5)})
    return rows


def table_text(fmt, t, table):
    """``count_table`` rendered as ``table`` rendered it before its rows were
    written from the walk: CSV by a ``%d`` formatting of each row, pretty
    with every column as wide as the longest of the total and every part
    and count."""
    total = sum(table.values())
    if fmt == "csv":
        line = ",".join(["%d"] * (t + 1))
        lines = [",".join(f"a{i + 1}" for i in range(t)) + ",count"]
        lines += [line % (*comp, count) for comp, count in table.items()]
        lines.append("total," + "," * (t - 1) + str(total))
        return "\n".join(lines)
    width = max([len(str(total))] + [len(str(x)) for comp, count in table.items()
                                     for x in comp + (count,)])
    lines = [" ".join(f"a{i + 1}".rjust(width) for i in range(t))
             + "  " + "count".rjust(width + 4)]
    lines += [" ".join(str(x).rjust(width) for x in comp) + "  "
              + str(count).rjust(width + 4) for comp, count in table.items()]
    pad = len(lines[0]) - len("total") - len(str(total))
    lines.append("total" + " " * max(pad, 2) + str(total))
    return "\n".join(lines)


def series_rows():
    """The solve_G, residual and inversion rows, each checked against the
    closed-form tables."""
    rows = []
    for t, N in SOLVE_SIZES:
        seconds, g = best(lambda: series.solve_G(t, N))
        if by_degree(g) != {n: counting.count_table(t, n) for n in range(1, N + 1)}:
            sys.exit(f"solve_G({t}, {N}) differs from the closed form")
        rows.append({"layer": "series", "call": "solve_G", "t": t, "N": N,
                     "terms": sum(1 for _ in g.terms()), "best_s": round(seconds, 5)})
    for t, N in RESIDUAL_SIZES:
        g = series.solve_G(t, N)
        seconds, rhs = best(lambda: series.residual(g))
        if rhs != g:
            sys.exit(f"x * prod (1 + yi*g) differs from g at t={t} N={N}")
        rows.append({"layer": "series", "call": "residual", "t": t, "N": N,
                     "best_s": round(seconds, 5)})
    for t, n, m in INVERSION_GROUPS:
        seconds, got = best(lambda: series.lagrange_table(t, n, m))
        if got != counting.count_table(t, n, m):
            sys.exit(f"inversion of t={t} n={n} m={m} differs from the closed form")
        rows.append({"layer": "series", "call": "inversion_group", "t": t, "n": n,
                     "m": m, "rows": len(got), "best_s": round(seconds, 5)})
    return rows


def by_degree(g):
    """{n: {parts: coefficient}} of a series."""
    out = {}
    for n, a, c in g.terms():
        out.setdefault(n, {})[a] = c
    return out


def listing_rows():
    """The ``paths`` listing rows, each checked against the object-level
    join of its lines."""
    rows = []
    for t, n, labels in LISTING_SIZES:
        argv = ["paths", "--t", str(t), "--n", str(n)] + (["--labels"] if labels else [])
        seconds, text = best(lambda: cli_text(argv))
        want = "".join(
            f"{treebank.serialize_tree(tree)} | "
            f"{paths.format_path(paths.tree_to_path(tree), with_labels=labels)}\n"
            for tree in treebank.enumerate_trees(t, n))
        if text != want:
            sys.exit(f"{' '.join(argv)} differs from the object-level listing")
        rows.append({"layer": "paths_listing", "t": t, "n": n, "labels": labels,
                     "trees": counting.total_trees(t, n), "bytes": len(text),
                     "best_s": round(seconds, 5)})
    return rows


def cli_text(argv):
    """What ``arbor <argv>`` prints, run in-process through ``cli.main``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if cli.main(argv):
            sys.exit(f"{' '.join(argv)} failed")
    return out.getvalue()


def launched(args, env, runs, cpu=None):
    """``runs`` launches of ``python <args>`` through ``launch`` of
    ``perfbench/run.py``, each a Launched (exit code, wall seconds, peak RSS
    in kB, stdout SHA-256, ...).  With ``cpu`` this process runs on that one
    CPU while it launches, so the launcher and the command run there too;
    its own CPU set is restored afterwards."""
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        return [perfbench.launch([sys.executable, *args], env) for _ in range(runs)]
    finally:
        os.sched_setaffinity(0, allowed)


def process_rows():
    """The start-up rows, each the best of STARTUP_REPEAT runs that must
    exit 0, and the rows of whole ``table`` and ``triangle`` commands, each
    of PROCESS_REPEAT runs checked by exit code and stdout digest against
    the rendering of ``count_table`` or of the triangle by the rule each
    replaced, the rows of whole ``paths --probe`` commands, checked
    against the text of the report made in-process, and the PINNED_COMMANDS
    rows, each started on the first CPU this process may run on and checked
    against the text of the command run in-process.  Every command runs
    once untimed first, which fills a bytecode cache in a temporary
    directory, so the timed runs read compiled modules as an installed
    package would."""
    commands = [(args, STARTUP_REPEAT, None, None) for args in STARTUP_COMMANDS]
    for fmt, t, n, m in PROCESS_TABLES:
        argv = ["table", "--t", str(t), "--n", str(n), "--format", fmt]
        argv += ["--forest", str(m)] if m else []
        want = table_text(fmt, t, counting.count_table(t, n, m)) + "\n"
        commands.append((["-m", "arbor.cli", *argv], PROCESS_REPEAT, digest(want), None))
    for fmt, t, slot, size, check in PROCESS_TRIANGLES:
        argv = ["triangle", "--t", str(t), "--rows", str(size), "--marginal", str(slot),
                "--format", fmt] + (["--self-check"] if check else [])
        want = (f"self-check: all {t} slot triangles agree\n" if check else "")
        want += triangle_text(fmt, cli._triangle_rows(t, slot, size))
        commands.append((["-m", "arbor.cli", *argv], PROCESS_REPEAT, digest(want), None))
    for t, n in PROCESS_PROBES:
        report = paths.residue_distribution_probe(t, n, budget=10**12)
        want = f"{report.to_csv()}\n{report.verdict_line()}\n"
        commands.append((["-m", "arbor.cli", "paths", "--t", str(t), "--n", str(n),
                          "--probe"], PROCESS_REPEAT, digest(want), None))
    cpu = min(os.sched_getaffinity(0))
    for argv in PINNED_COMMANDS:
        commands.append((["-m", "arbor.cli", *argv], PROCESS_REPEAT,
                         digest(cli_text(argv)), cpu))
    rows = []
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.pop("ARBOR_BUDGET", None)
        for args, repeat, want, pinned in commands:
            runs = launched(args, env, repeat + 1, pinned)
            if any((run.exit_code, run.sha if want else None) != (0, want)
                   for run in runs):
                sys.exit(f"python {' '.join(args)} failed or printed other text")
            runs = runs[1:]
            row = {"layer": "startup" if want is None else "process",
                   "command": "python " + " ".join(args), "repeat": repeat,
                   **({} if pinned is None else {"pinned_cpu": pinned}),
                   "best_s": round(min(run.wall for run in runs), 5),
                   "peak_rss_mb": [round(f(run.rss_kb for run in runs) / 1024, 2)
                                   for f in (min, max)]}
            rows.append(row)
    return rows


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def triangle_text(fmt, triangle):
    """A triangle rendered as one string, as ``triangle`` printed it before
    it wrote its output in pieces."""
    if fmt == "bfile":
        lines = [f"{i} {v}" for i, v in enumerate(v for row in triangle for v in row)]
    else:
        lines = [f"n={n} (edges={n - 1}): " + " ".join(map(str, row))
                 for n, row in enumerate(triangle, start=1)]
    return "\n".join(lines) + "\n"


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()


def kernel_rows():
    """The census, joint census and probe rows."""
    rows = []
    for t, n in SIZES:
        row, _ = engine_row("census", treebank.census, t, n)
        rows.append(row)
        print(json.dumps(row), flush=True)
    for t, n in JOINT_SIZES:
        row, (edges, _) = engine_row("joint_census", treebank.joint_census, t, n)
        if edges != treebank.census(t, n):
            sys.exit(f"joint_census t={t} n={n}: edge table differs from census")
        rows.append(row)
        print(json.dumps(row), flush=True)
    for t, n in WORKER_SIZES:
        one_s, one = best(lambda: treebank.census(t, n, engine="compiled", budget=10**12))
        two_s, two = best(lambda: treebank.census(t, n, workers=2, engine="compiled",
                                                  budget=10**12))
        if one != two:
            sys.exit(f"census t={t} n={n}: 1 and 2 workers give different tables")
        rows.append({"layer": "workers", "t": t, "n": n,
                     "trees": counting.total_trees(t, n),
                     "root_splits": counting.binomial(n + t - 2, t - 1),
                     "one_s": round(one_s, 5), "two_s": round(two_s, 5),
                     "two_over_one": round(two_s / one_s, 2)})
        print(json.dumps(rows[-1]), flush=True)
    for t, n in PROBE_SIZES:
        probe_s, _ = best(lambda: paths.residue_distribution_probe(t, n, budget=10**12))
        rows.append({"layer": "probe", "t": t, "n": n,
                     "trees": counting.total_trees(t, n), "auto_s": round(probe_s, 5)})
        print(json.dumps(rows[-1]), flush=True)
    return rows


def main():
    if hasattr(sys, "set_int_max_str_digits"):  # as arbor.cli does: some
        sys.set_int_max_str_digits(0)           # counts run past 4,300 digits
    if treebank.HAVE_SPEEDUPS:
        rows = kernel_rows()
    else:
        print("arbor._speedups is not built: timing the series, compositions, "
              "closed-form, listing, start-up and process rows only", file=sys.stderr)
        rows = []
    for row in (series_rows() + composition_rows() + closed_form_rows()
                + listing_rows() + process_rows()):
        rows.append(row)
        print(json.dumps(row), flush=True)
    runs = json.loads(OUT.read_text()) if OUT.is_file() else []
    runs.append({
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "tools")),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "repeat": REPEAT,
        "min_seconds": MIN_SECONDS,
        "tables_equal": True,
        "rows": rows,
    })
    OUT.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
