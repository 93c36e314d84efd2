"""Compare what ``python -m arbor.cli`` prints in this tree and at a parent
commit, argv by argv, over grids held as data:

    python tools/parity.py c4ec795                  # every grid
    python tools/parity.py c4ec795 commands edges   # the named grids

The parent is ``git archive`` of the commit unpacked into a temporary
directory; nothing is fetched.  When this tree has a built census kernel in
``src/arbor``, the parent's is built there too, so both run the same engine.
Each argv runs in both trees as ``python -m arbor.cli`` under the same
environment (``ARBOR_BUDGET`` as its grid sets it, ``PYTHONPATH`` the tree's
``src``), its stdout digested as it comes.  Per grid the tool prints the
number of argvs by this tree's exit code and, for the first argv whose exit
code, stdout or stderr differ, both sides' exit code, stdout length and
SHA-256, and stderr.  It exits 1 if any argv differs.
"""
import hashlib
import os
import subprocess
import sys
import sysconfig
import tempfile
from collections import Counter
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EDGE = "edge"
# A grid is a list of families.  A family gives the command and, per flag,
# its values: None leaves the flag out, True gives it bare, and "budget" is
# ARBOR_BUDGET (None leaves it unset).  Its argvs are the product of those
# values.  EDGE in place of a flag's values takes, for each argv of the other
# values, the largest value this tree admits (any exit but 2) and the one
# past it, found by bisection.
GRIDS = {
    "tiny": [
        {"command": "count", "--t": [3], "--n": [3], "--composition": ["1,1,0", "1,0"]},
        {"command": "table", "--t": [3], "--n": [3], "--format": ["csv"],
         "budget": [None, 3]},
        {"command": "verify", "--t": [2], "--max-n": [3], "--mode": ["brute"],
         "--budget": [None, 2]},
        {"command": "paths", "--t": [2], "--n": [EDGE], "budget": [20]},
    ],
    "commands": [  # every command, help and refusal at small sizes
        {"command": "-h"},
        {"command": "nonsense"},
        *({"command": c, "-h": [True]}
          for c in ("count", "table", "triangle", "verify", "paths")),
        {"command": "count", "--t": [1, 2, 3], "--n": [0, 1, 4],
         "--composition": ["0", "3", "0,0", "2,1", "1,1,1", "x"], "--forest": [None, 1, 2]},
        {"command": "table", "--t": [1, 2, 3, 6], "--n": [0, 1, 5], "--forest": [None, 2],
         "--format": ["csv", "pretty", "json"], "budget": [None, 1, 50]},
        {"command": "triangle", "--t": [2, 3], "--rows": [0, 6], "--marginal": [0, 1, 3],
         "--format": ["pretty", "bfile"], "--b-offset": [None, 2],
         "--self-check": [None, True], "budget": [None, 10]},
        {"command": "verify", "--t": [1, 2, 3], "--max-n": [0, 4],
         "--mode": ["brute", "series", "lagrange", "all"], "--forest": [None, 2],
         "--budget": [None, 1, 100], "--workers": [1, 2]},
        {"command": "verify", "--t": [3], "--max-n": [5], "--engine": ["pure", "compiled"],
         "--dump-series": [None, True]},
        {"command": "paths", "--t": [1, 2, 3], "--n": [0, 3], "--probe": [None, True],
         "--labels": [None, True], "--dump": [None, True], "--offset": [None, "1,0"],
         "--budget": [None, 1, 50]},
    ],
    "edges": [  # each budget edge and one past it
        {"command": "table", "--t": [1, 2, 3, 4, 6], "--n": [EDGE],
         "--format": ["csv", "pretty"], "budget": [1, 50, 5000]},
        {"command": "table", "--t": [2, 3, 6], "--n": [EDGE], "--forest": [1],
         "--format": ["csv", "pretty"], "budget": [1, 50, 5000]},
        {"command": "triangle", "--t": [2, 3], "--rows": [EDGE], "--marginal": [1],
         "--format": ["pretty", "bfile"], "budget": [1, 50, 5000]},
        {"command": "verify", "--t": [1, 2, 3, 4], "--max-n": [EDGE],
         "--mode": ["brute", "series", "lagrange", "all"], "--budget": [50, 5000]},
        {"command": "paths", "--t": [1, 2, 3], "--n": [EDGE], "--labels": [None, True],
         "--budget": [50, 5000]},
        {"command": "paths", "--t": [1, 2, 3], "--n": [EDGE], "--probe": [True],
         "--budget": [50, 5000]},
    ],
    # each table's edge, trees and every forest size, up to the default
    # budget, whose edges print up to 615 MB
    "tables": [
        {"command": "table", "--t": [t], "--n": [EDGE], "--forest": [None, *range(1, t)],
         "--format": ["csv", "pretty"], "budget": [1, 50, 5000, 100000, None]}
        for t in (1, 2, 3, 4, 5, 6, 8, 16)],
}


def launch(tree, argv, budget):
    """(exit code, stdout length, stdout SHA-256, stderr) of ``python -m
    arbor.cli <argv>`` in ``tree``.  stdout is digested as it is read, so
    no output is held, however long."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("ARBOR_BUDGET", None)
    if budget is not None:
        env["ARBOR_BUDGET"] = str(budget)
    sha, size = hashlib.sha256(), 0
    with tempfile.TemporaryFile() as err, subprocess.Popen(
            [sys.executable, "-m", "arbor.cli", *argv], cwd=tree, env=env,
            stdout=subprocess.PIPE, stderr=err) as proc:
        while chunk := proc.stdout.read(1 << 16):
            sha.update(chunk)
            size += len(chunk)
        code = proc.wait(timeout=600)
        err.seek(0)
        return code, size, sha.hexdigest(), err.read()


def words(command, flags):
    """The argv of ``command`` with ``flags``: None leaves a flag out, True
    gives it bare."""
    argv = [command]
    for flag, value in flags.items():
        argv += [] if value is None else [flag] if value is True else [flag, str(value)]
    return argv


def edge(tree, command, flags, flag, budget):
    """The largest value of ``flag`` that ``tree`` admits (any exit but 2)
    and the one past it, found by doubling and then bisection."""
    def admitted(value):
        return launch(tree, words(command, {**flags, flag: value}), budget)[0] != 2

    low, high = 0, 1  # the largest value known admitted, the least known refused
    while admitted(high):
        low, high = high, 2 * high
        # a one-row t = 1 table admits n up to 640M at the default budget
        if high > 1 << 30:
            raise SystemExit(f"{' '.join(words(command, flags))}: no edge below 2**30")
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if admitted(mid) else (low, mid)
    return low, high


def argvs(grid, tree):
    """The (argv, budget) pairs of ``grid``, its edges found in ``tree``."""
    for family in grid:
        command = family["command"]
        axes = {key: values for key, values in family.items() if key != "command"}
        for values in product(*axes.values()):
            flags = dict(zip(axes, values))
            budget = flags.pop("budget", None)
            edges = [flag for flag, value in flags.items() if value == EDGE]
            if not edges:
                yield words(command, flags), budget
                continue
            [flag] = edges
            for value in edge(tree, command, flags, flag, budget):
                yield words(command, {**flags, flag: value}), budget


def compare(cases, parent, change):
    """(exit codes counted, argvs that differ, the first of them as (argv,
    budget, parent's outcome, change's outcome) or None)."""
    codes, differ, first = Counter(), 0, None
    for argv, budget in cases:
        old, new = launch(parent, argv, budget), launch(change, argv, budget)
        codes[new[0]] += 1
        if old != new:
            differ += 1
            first = first or (argv, budget, old, new)
    return codes, differ, first


def report(name, codes, differ, first):
    """The lines that describe one grid's comparison."""
    lines = [f"{name}: {sum(codes.values())} argvs, exit codes "
             + ", ".join(f"{code}: {k}" for code, k in sorted(codes.items()))
             + f"; {differ} differ"]
    if first:
        argv, budget, *sides = first
        lines.append(f"first difference: ARBOR_BUDGET={budget} arbor {' '.join(argv)}")
        for side, (code, size, sha, err) in zip(("parent", "change"), sides):
            lines.append(f"  {side}: exit {code}, stdout {size} bytes sha256 {sha}, "
                         f"stderr {err!r}")
    return lines


def checkout(commit, dest):
    """Unpack ``git archive <commit>`` into ``dest``; build its census kernel
    in place when this tree has one built."""
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {commit} failed")
    if (ROOT / "src" / "arbor" / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))).is_file():
        subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"], cwd=dest,
                       capture_output=True, check=True)


def main(args):
    if not args or any(name not in GRIDS for name in args[1:]):
        raise SystemExit(f"usage: parity.py COMMIT [{' | '.join(GRIDS)} ...]")
    same = True
    with tempfile.TemporaryDirectory() as parent:
        checkout(args[0], Path(parent))
        for name in args[1:] or GRIDS:
            result = compare(list(argvs(GRIDS[name], ROOT)), Path(parent), ROOT)
            print("\n".join(report(name, *result)), flush=True)
            same = same and not result[1]
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
