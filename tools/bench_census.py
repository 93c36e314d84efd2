"""Timings of the census kernels, series, closed-form rows, CLI text and
fresh processes, appended to BENCH_census.json.

In-process rows time the census (each engine, 1 and 2 workers), the forest
census (1 and 2 workers), the joint census, the probe, the series layer,
compositions, the closed-form rows of ``table`` and ``triangle`` and the
text of ``arbor table`` and ``arbor paths``, each the best call of at
least REPEAT and MIN_SECONDS.  Process rows launch start-up commands and
whole ``table``, ``triangle``, ``paths --probe`` and pinned ``verify``
commands through ``launch`` of ``perfbench/run.py`` and keep their best
wall time and peak RSS.  Each row is checked, and a failed check stops the
run with its message.  The census, joint, workers and probe rows need the
compiled kernel (``python setup.py build_ext --inplace``); without it they
are left out:

    PYTHONPATH=src python tools/bench_census.py

Each run appends one row set to ``BENCH_census.json`` at the repository
root, stamped with the git SHA (``"dirty": true`` when ``src``, ``tools``
or ``tests``, which holds the references of the checks, differ from it),
the Python version, the CPU count and ``have_speedups``, whether the
compiled kernel was built in ``src``: the process rows run the kernel that
``PYTHONPATH=src`` finds, so without a build they time the pure one.
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
from itertools import chain
from math import comb
from pathlib import Path

from arbor import cli, counting, paths, series, treebank

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
import run as perfbench  # noqa: E402  (perfbench/run.py, for its launcher)
from references import (  # noqa: E402
    each_composition, old_rule_lines, old_rule_table, old_triangle_lines, per_composition,
    reference_listing)

OUT = ROOT / "BENCH_census.json"
SIZES = [(3, 11), (2, 15), (4, 8), (3, 9)]
JOINT_SIZES = [(3, 9), (3, 10)]
WORKER_SIZES = [(3, 11, None), (8, 6, None), (16, 5, None), (4, 9, None), (5, 8, None),
                (3, 10, None), (2, 13, None), (2, 14, None), (6, 7, None),
                (3, 11, 2)]  # (t, n, m)
PROBE_SIZES = [(3, 9)]
COMPOSITION_SIZES = [(6, 21, 0), (6, 29, 0), (4, 30, 3), (16, 4, 0)]  # (t, total, m)
CLOSED_FORM_SIZES = [(6, 22, None), (6, 30, None), (4, 30, 3), (16, 8, None)]  # (t, n, m)
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
                  ("pretty", 6, 30, None), ("csv", 2, 8000, None), ("csv", 4, 100, None),
                  ("csv", 16, 7, None), ("csv", 3, 300, None),
                  # the largest texts the default budget admits, and large
                  # pretty tables below t = 6
                  ("pretty", 8, 30, 7), ("pretty", 16, 10, None), ("pretty", 12, 13, None),
                  ("pretty", 4, 100, None), ("pretty", 3, 300, None)]  # (format, t, n, m)
PROCESS_TRIANGLES = [("bfile", 3, 2, 150, True), ("bfile", 3, 2, 300, True),
                     ("pretty", 3, 1, 600, False),
                     ("bfile", 3, 1, 850, False)]  # (format, t, slot, rows, self-check)
PROCESS_PROBES = [(11, 6)]  # (t, n)
PROCESS_REPEAT = 3
STARTUP_COMMANDS = [  # run as python <args>; -h times the argparse path
    ["-c", "pass"],
    ["-m", "arbor.cli", "-h"],
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


def best(run):
    """(best seconds per call, result) of run(), called at least REPEAT
    times and until MIN_SECONDS have elapsed."""
    times = []
    while len(times) < REPEAT or sum(times) < MIN_SECONDS:
        t0 = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - t0)
    return min(times), result


def show(row):
    print(json.dumps(row), flush=True)
    return row


def timed(layer, fields, run, check, failure, measure=lambda result: {}):
    """The row of run()'s best call: its layer, ``fields``, what
    measure(result) adds and ``best_s``.  The run stops with ``failure``
    unless check(result) holds."""
    seconds, result = best(run)
    if not check(result):
        sys.exit(failure)
    return show({"layer": layer, **fields, **measure(result),
                 "best_s": round(seconds, 5)})


def engine_row(layer, fn, t, n):
    """Time fn(t, n) with each engine; returns (row, table)."""
    compiled_s, compiled = best(lambda: fn(t, n, engine="compiled", budget=10**12))
    pure_s, pure = best(lambda: fn(t, n, engine="pure", budget=10**12))
    if compiled != pure:
        sys.exit(f"{layer} t={t} n={n}: compiled and pure tables differ")
    return {
        "layer": layer, "t": t, "n": n, "trees": counting.total_trees(t, n),
        "compiled_s": round(compiled_s, 5), "pure_s": round(pure_s, 5),
        "pure_over_compiled": round(pure_s / compiled_s, 1),
    }, compiled


def series_rows():
    """The solve_G, residual and inversion rows, each checked against the
    closed-form tables."""
    rows = [timed("series", {"call": "solve_G", "t": t, "N": N},
                  lambda: series.solve_G(t, N),
                  lambda g: {(n, a): c for n, a, c in g.terms()} == {
                      (n, a): c for n in range(1, N + 1)
                      for a, c in counting.count_table(t, n).items()},
                  f"solve_G({t}, {N}) differs from the closed form",
                  lambda g: {"terms": sum(1 for _ in g.terms())})
            for t, N in SOLVE_SIZES]
    for t, N in RESIDUAL_SIZES:
        g = series.solve_G(t, N)
        rows.append(timed("series", {"call": "residual", "t": t, "N": N},
                          lambda: series.residual(g), lambda rhs: rhs == g,
                          f"x * prod (1 + yi*g) differs from g at t={t} N={N}"))
    rows += [timed("series", {"call": "inversion_group", "t": t, "n": n, "m": m},
                   lambda: series.lagrange_table(t, n, m),
                   lambda got: got == counting.count_table(t, n, m),
                   f"inversion of t={t} n={n} m={m} differs from the closed form",
                   lambda got: {"rows": len(got)})
             for t, n, m in INVERSION_GROUPS]
    return rows


def composition_rows():
    """The ``compositions`` rows, each checked against the binomial count of
    its items."""
    rows = []
    for t, total, m in COMPOSITION_SIZES:
        want = counting.binomial(total - m + t - 1, t - 1)
        rows.append(timed(
            "compositions", {"t": t, "total": total, "m": m},
            lambda: list(counting.compositions(t, total, m)),
            lambda items: (len(items) == want and items == sorted(set(items))
                           and all(sum(a) == total and min(a[:m], default=1) >= 1
                                   for a in items)),
            f"compositions({t}, {total}, m={m}) are not the {want} "
            "weak compositions in lexicographic order",
            lambda items: {"items": len(items)}))
    return rows


def closed_form_rows():
    """The closed-form rows of table and triangle, each checked against one
    per-composition (or per-cell) call, and the table text, checked against
    its rendering by the rule it replaced."""
    rows = [timed("closed_form", {"call": "binomial_row", "n": n, "top": top},
                  lambda: counting.binomial_row(n, top),
                  lambda row: row == [comb(n, k) for k in range(top + 1)],
                  f"binomial_row({n}, {top}) differs from comb")
            for n, top in BINOMIAL_ROWS]
    rows += [timed("closed_form", {"call": "count_table", "t": t, "n": n, "m": m},
                   lambda: counting.count_table(t, n, m),
                   lambda table: list(table.items()) == per_composition(t, n, m),
                   f"count_table({t}, {n}, {m}) differs from the per-composition counts",
                   lambda table: {"rows": len(table)})
             for t, n, m in CLOSED_FORM_SIZES]
    rows += [timed("closed_form", {"call": "_triangle_rows", "t": t, "slot": slot,
                                   "rows": size, "cells": size * (size + 1) // 2},
                   lambda: cli._triangle_rows(t, slot, size),
                   lambda triangle: triangle == [
                       [counting.marginal_count(t, n, {slot: k}) for k in range(n)]
                       for n in range(1, size + 1)],
                   f"_triangle_rows({t}, {slot}, {size}) differs from marginal_count")
             for t, slot, size in TRIANGLE_SIZES]
    for fmt, sizes in (("csv", CSV_SIZES), ("pretty", PRETTY_SIZES)):
        for t, n, m in sizes:
            argv = table_argv(fmt, t, n, m)
            rows.append(timed(
                "closed_form", {"call": f"table_{fmt}", "t": t, "n": n, "m": m},
                lambda: cli_text(argv),
                lambda text: text == old_rule_table(fmt, t, n, m) + "\n",
                f"{' '.join(argv)} differs from the rows of count_table",
                lambda text: {"rows": text.count("\n") - 2, "bytes": len(text)}))
    return rows


def table_argv(fmt, t, n, m):
    return (["table", "--t", str(t), "--n", str(n), "--format", fmt]
            + (["--forest", str(m)] if m else []))


def listing_rows():
    """The ``paths`` listing rows, each checked against the recursive
    reference listing, which builds no tree through the listing's walk."""
    rows = []
    for t, n, labels in LISTING_SIZES:
        argv = ["paths", "--t", str(t), "--n", str(n)] + (["--labels"] if labels else [])
        rows.append(timed(
            "paths_listing", {"t": t, "n": n, "labels": labels,
                              "trees": counting.total_trees(t, n)},
            lambda: cli_text(argv),
            lambda text: text == "".join(reference_listing(t, n)[
                "labels" if labels else "bare"]),
            f"{' '.join(argv)} differs from the recursive reference listing",
            lambda text: {"bytes": len(text)}))
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
    exit 0, and the process rows, each of PROCESS_REPEAT runs checked by
    exit code and stdout digest: whole ``table`` and ``triangle`` commands
    against their renderings in ``tests/references.py``, digested a line at
    a time from per-composition counts and per-cell binomials, ``paths --probe``
    against the report made in-process, and the PINNED_COMMANDS, started on
    the first CPU this process may run on, against the command run
    in-process.  Every command runs once untimed first, which fills a
    bytecode cache in a temporary directory, so the timed runs read
    compiled modules as an installed package would."""
    commands = [(args, STARTUP_REPEAT, None, None) for args in STARTUP_COMMANDS]
    for fmt, t, n, m in PROCESS_TABLES:
        want = lines_digest(old_rule_lines(fmt, t, n, m, lambda: each_composition(t, n, m)))
        commands.append((["-m", "arbor.cli", *table_argv(fmt, t, n, m)], PROCESS_REPEAT,
                         want, None))
    for fmt, t, slot, size, check in PROCESS_TRIANGLES:
        argv = ["triangle", "--t", str(t), "--rows", str(size), "--marginal", str(slot),
                "--format", fmt] + (["--self-check"] if check else [])
        want = [f"self-check: all {t} slot triangles agree"] if check else []
        want = lines_digest(chain(want, old_triangle_lines(fmt, t, slot, size)))
        commands.append((["-m", "arbor.cli", *argv], PROCESS_REPEAT, want, None))
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
        for args, repeat, want, pinned in commands:
            runs = launched(args, env, repeat + 1, pinned)
            if any((run.exit_code, run.sha if want else None) != (0, want)
                   for run in runs):
                sys.exit(f"python {' '.join(args)} failed or printed other text")
            runs = runs[1:]
            rows.append(show({
                "layer": "startup" if want is None else "process",
                "command": "python " + " ".join(args), "repeat": repeat,
                **({} if pinned is None else {"pinned_cpu": pinned}),
                "best_s": round(min(run.wall for run in runs), 5),
                "peak_rss_mb": [round(f(run.rss_kb for run in runs) / 1024, 2)
                                for f in (min, max)]}))
    return rows


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def lines_digest(lines):
    """The digest of the lines, each ended by a newline, taken one line at a
    time, so that no reference text of the largest tables is held."""
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode() + b"\n")
    return sha.hexdigest()


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()


def kernel_rows():
    """The census, joint census and probe rows."""
    rows = [show(engine_row("census", treebank.census, t, n)[0]) for t, n in SIZES]
    for t, n in JOINT_SIZES:
        row, (edges, _) = engine_row("joint_census", treebank.joint_census, t, n)
        if edges != treebank.census(t, n):
            sys.exit(f"joint_census t={t} n={n}: edge table differs from census")
        rows.append(show(row))
    for t, n, m in WORKER_SIZES:
        group, census = ((t, n), treebank.census) if m is None else (
            (t, m, n), treebank.forest_census)
        one_s, one = best(lambda: census(*group, engine="compiled", budget=10**12))
        two_s, two = best(lambda: census(*group, workers=2, engine="compiled",
                                         budget=10**12))
        if not one == two == counting.count_table(t, n, m):
            sys.exit(f"{census.__name__}{group}: 1 and 2 workers give different "
                     "tables or differ from the closed form")
        rows.append(show({"layer": "workers", "t": t, "n": n, **(
            {"trees": counting.total_trees(t, n),
             "root_splits": counting.binomial(n + t - 2, t - 1)} if m is None else
            {"m": m, "forests": counting.total_forests(t, m, n),
             "node_splits": counting.binomial(n - 1, m - 1)}),
            "one_s": round(one_s, 5), "two_s": round(two_s, 5),
            "two_over_one": round(two_s / one_s, 2)}))
    for t, n in PROBE_SIZES:
        probe_s, _ = best(lambda: paths.residue_distribution_probe(t, n, budget=10**12))
        rows.append(show({"layer": "probe", "t": t, "n": n,
                          "trees": counting.total_trees(t, n),
                          "auto_s": round(probe_s, 5)}))
    return rows


def main():
    os.environ.pop("ARBOR_BUDGET", None)  # every row runs at the default budget
    if hasattr(sys, "set_int_max_str_digits"):  # as arbor.cli does: some
        sys.set_int_max_str_digits(0)           # counts run past 4,300 digits
    if treebank.HAVE_SPEEDUPS:
        rows = kernel_rows()
    else:
        print("arbor._speedups is not built: timing the series, compositions, "
              "closed-form, listing, start-up and process rows only", file=sys.stderr)
        rows = []
    rows += (series_rows() + composition_rows() + closed_form_rows()
             + listing_rows() + process_rows())
    runs = json.loads(OUT.read_text()) if OUT.is_file() else []
    runs.append({
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "tools", "tests")),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "have_speedups": treebank.HAVE_SPEEDUPS,
        "repeat": REPEAT,
        "min_seconds": MIN_SECONDS,
        "tables_equal": True,
        "rows": rows,
    })
    OUT.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
