"""Census kernel timings, compiled against pure, appended to BENCH_census.json.

Times, in-process, ``treebank.census`` and ``treebank.joint_census`` (the
census with the residue vector of every tree's Lukasiewicz path) with each
engine at a fixed set of sizes, and ``paths.residue_distribution_probe``
with the default engine.  Each timing calls the function at least 3 times
and until 0.2 s have elapsed, and reports the best call.  It checks that
both engines give equal tables and that the joint table's edge marginal is
the census, and appends one row set to ``BENCH_census.json`` at the
repository root.  The stamp carries the git SHA, ``"dirty": true`` when
``src`` or ``tools`` differ from that commit, the Python version and the
CPU count.  The compiled kernel must be importable, for example after
``python setup.py build_ext --inplace``:

    PYTHONPATH=src python tools/bench_census.py

The pure engine needs about two minutes for the census sizes.  A checkout
whose ``treebank`` has no ``joint_census`` gets census and probe rows only.
"""
import json
import os
import platform
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from arbor import counting, paths, treebank

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_census.json"
SIZES = [(3, 11), (2, 15), (4, 8), (3, 9)]
JOINT_SIZES = [(3, 9), (3, 10)]
PROBE_SIZES = [(3, 9)]
REPEAT = 3
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


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()


def main():
    if not treebank.HAVE_SPEEDUPS:
        sys.exit("arbor._speedups is not built; run `python setup.py build_ext --inplace`")
    rows = []
    for t, n in SIZES:
        row, _ = engine_row("census", treebank.census, t, n)
        rows.append(row)
        print(json.dumps(row), flush=True)
    if hasattr(treebank, "joint_census"):
        for t, n in JOINT_SIZES:
            row, joint = engine_row("joint_census", treebank.joint_census, t, n)
            edges = Counter()
            for (profile, _), count in joint.items():
                edges[profile] += count
            if edges != treebank.census(t, n):
                sys.exit(f"joint_census t={t} n={n}: edge marginal differs from census")
            rows.append(row)
            print(json.dumps(row), flush=True)
    for t, n in PROBE_SIZES:
        probe_s, _ = best(lambda: paths.residue_distribution_probe(t, n, budget=10**12))
        rows.append({"layer": "probe", "t": t, "n": n,
                     "trees": counting.total_trees(t, n), "auto_s": round(probe_s, 5)})
        print(json.dumps(rows[-1]), flush=True)
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
