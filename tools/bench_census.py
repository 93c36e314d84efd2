"""Census kernel timings, compiled against pure, appended to BENCH_census.json.

Times ``treebank.census`` in-process, best of 3, with each engine at a fixed
set of sizes, checks that both engines give equal tables, and appends one
row set stamped with the git SHA, the Python version and the CPU count to
``BENCH_census.json`` at the repository root.  The compiled kernel must be
importable, for example after ``python setup.py build_ext --inplace``:

    PYTHONPATH=src python tools/bench_census.py

The pure engine needs about two minutes for the four sizes.
"""
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from arbor import counting, treebank

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_census.json"
SIZES = [(3, 11), (2, 15), (4, 8), (3, 9)]
REPEAT = 3


def best(t, n, engine):
    """(best seconds, table) of REPEAT censuses with one engine."""
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        table = treebank.census(t, n, engine=engine, budget=10**12)
        times.append(time.perf_counter() - t0)
    return min(times), table


def main():
    if not treebank.HAVE_SPEEDUPS:
        sys.exit("arbor._speedups is not built; run `python setup.py build_ext --inplace`")
    rows = []
    for t, n in SIZES:
        compiled_s, compiled = best(t, n, "compiled")
        pure_s, pure = best(t, n, "pure")
        if compiled != pure:
            sys.exit(f"census t={t} n={n}: compiled and pure tables differ")
        rows.append({
            "t": t, "n": n, "trees": counting.total_trees(t, n),
            "compiled_s": round(compiled_s, 5), "pure_s": round(pure_s, 5),
            "pure_over_compiled": round(pure_s / compiled_s, 1),
        })
        print(json.dumps(rows[-1]), flush=True)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    runs = json.loads(OUT.read_text()) if OUT.is_file() else []
    runs.append({
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "repeat": REPEAT,
        "tables_equal": True,
        "rows": rows,
    })
    OUT.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
