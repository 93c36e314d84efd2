"""Command-line front end: exact counts, tables, triangles, cross-verification.

Exit codes: 0 success, 1 constraint violation or a closed output pipe,
2 budget exceeded, 3 verification failure (a cross-check or a check of
the closed form itself).
"""
from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from itertools import chain, islice, permutations
from math import factorial
from typing import Optional

# treebank, series and paths are imported by the commands that run them, so
# count, table and triangle load neither the census kernel nor the series ring
from arbor import counting
from arbor.errors import BudgetExceededError, ConstraintError, check_budget

EXIT_OK = 0
EXIT_CONSTRAINT = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConstraintError(f"{what} {text!r} is not a comma-separated "
                              "list of integers") from None


def cmd_count(args) -> int:
    # count_trees and count_forests check the arity, the shape, then the parts
    comp = _parse_ints(args.composition, "composition")
    if args.forest is not None:
        print(counting.count_forests(args.t, args.forest, args.n, comp))
    else:
        print(counting.count_trees(args.t, args.n, comp))
    return EXIT_OK


def _check_counts(action: str, count: int, noun: str, bits: int) -> None:
    """Refuse up front a table or triangle of more rows or cells than the
    budget allows, or whose counts would fill more 64-bit words than it
    allows.  No count of n-node trees in t slots reaches 2**(t*n), so with
    ``bits`` the sum of t*n over the counts, they fill at most
    ``count + ceil(bits / 64)`` words."""
    check_budget(action, [(count, f"enumerate %d {noun}"),
                          (count - (-bits // 64), "compute %d 64-bit words of counts")])


def cmd_table(args) -> int:
    write = sys.stdout.write
    for chunk in _table_chunks(args.format, args.t, args.n, args.forest):
        write(chunk)
    return EXIT_OK


def _table_chunks(fmt: str, t: int, n: int, m: Optional[int] = None) -> list[str]:
    """The table as CSV or in right-aligned columns, in pieces of up to 4,096
    lines that join into the whole output, each line ending in a newline,
    once the shape and the budget pass.  Each row is written from a block of
    ``count_rows`` as its parts' text plus its count cell.  The rows must
    sum to the closed-form total, checked before the pieces are returned, so
    a failing table prints nothing of itself.

    No count exceeds the total and no part exceeds the free edge count, or
    one more in a forest's root slots, and both are reached, so the pretty
    columns are as wide as the longer of the two."""
    _, roots, free = counting.shape(t, n, m)
    # one row per weak composition of the free edge count into t parts
    rows = counting.binomial(free + t - 1, t - 1)
    forest = "" if m is None else f"m={m}, "
    _check_counts(f"table(t={t}, {forest}n={n})", rows, "rows", rows * t * n)
    total = counting.group_total(t, n, m)
    names = [f"a{i + 1}" for i in range(t)]
    if fmt == "csv":
        head, part, cell = ",".join(names) + ",count", "%d,", ""
        foot = "total," + "," * (t - 1) + str(total)
    else:
        width = max(len(str(total)), len(str(free + (1 if roots else 0))))
        head = " ".join(x.rjust(width) for x in names) + "  " + "count".rjust(width + 4)
        part, cell = f"%{width}d ", f">{width + 5}"
        foot = "total" + str(total).rjust(len(head) - len("total"))
    lines, chunks, rows_sum = [head + "\n"], [], 0
    for prefix, tails, p, quotients in counting.count_rows(
            t, n, m, write=lambda *parts: part * len(parts) % parts):
        for tail, q in zip(tails, quotients):
            count = p * q
            rows_sum += count
            lines.append(f"{prefix}{tail}{count:{cell}}\n")
        if len(lines) >= 4096:  # one string per chunk holds less than one per row
            chunks.append("".join(lines))
            lines.clear()
    if rows_sum != total:
        raise ArithmeticError("table rows do not sum to the closed-form total")
    lines.append(foot + "\n")
    chunks.append("".join(lines))
    return chunks


def _triangle_rows(t: int, slot: int, rows: int) -> list[list[int]]:
    return [counting.marginal_row(t, n, slot) for n in range(1, rows + 1)]


def _triangle_failure(t: int, slot: int, triangle: list[list[int]]) -> Optional[str]:
    """The FAIL line of ``--self-check``, or None when it passes.  Row n of
    the triangle must sum to total_trees(t, n) (Vandermonde's identity), and
    the triangle of every other slot must equal it, so every row of every
    slot's triangle sums to the total.  Each other slot's rows are computed
    once and compared as they come, so one triangle is held."""
    for n, row in enumerate(triangle, start=1):
        if sum(row) != counting.total_trees(t, n):
            return f"FAIL slot {slot} row n={n} does not sum to total_trees(t={t}, n={n})"
    for other in range(1, t + 1):
        if other != slot and any(counting.marginal_row(t, n, other) != row
                                 for n, row in enumerate(triangle, start=1)):
            return f"FAIL slot {other} triangle differs from slot {slot}"
    return None


def cmd_triangle(args) -> int:
    t, slot = args.t, args.marginal
    counting.check_arity(t)
    if args.rows < 1:
        raise ConstraintError(f"--rows must be >= 1, got {args.rows}")
    if not 1 <= slot <= t:
        raise ConstraintError(f"marginal slot {slot} outside 1..{t}")
    # --self-check computes the triangle once per slot; row n has n cells
    copies, rows = (t if args.self_check else 1), args.rows
    _check_counts(f"triangle(t={t}, rows={rows})", copies * rows * (rows + 1) // 2,
                  "cells", copies * t * rows * (rows + 1) * (2 * rows + 1) // 6)
    # the whole triangle before any output, so a failing check prints only
    # its FAIL line
    triangle = _triangle_rows(t, slot, rows)
    if args.self_check:
        failure = _triangle_failure(t, slot, triangle)
        if failure:
            print(failure)
            return EXIT_VERIFY
        print(f"self-check: all {t} slot triangles agree")
    write = sys.stdout.write
    if args.format == "bfile":
        cells = enumerate(chain.from_iterable(triangle), start=args.b_offset)
        while batch := list(islice(cells, 4096)):
            write("".join([f"{i} {v}\n" for i, v in batch]))
    else:
        for n, row in enumerate(triangle, start=1):
            write(f"n={n} (edges={n - 1}): {' '.join(map(str, row))}\n")
    return EXIT_OK


# A case yields (where, got, want) tables for the trees when ms is empty, else
# for the forests of each m in ms.  got comes from the treebank or series
# oracle, the closed form enters only as want; the sum identity and symmetry
# cases test the closed form itself.

def _groups(args, ms):
    for m in ms or (None,):
        for n in range(m or 1, args.max_n + 1):
            yield n, m, f"t={args.t}{f' m={m}' if m else ''} n={n}"


def _census(args, ms):
    from arbor import treebank
    options = dict(budget=args.budget, workers=args.workers, engine=args.engine)
    for n, m, where in _groups(args, ms):
        got = (treebank.census(args.t, n, **options) if m is None
               else treebank.forest_census(args.t, m, n, **options))
        yield where, got, counting.count_table(args.t, n, m)


def _series(args, ms):
    """The coefficients of the solved g and of x * prod (1 + yi*g) against the
    closed form: both agree with it when g does and the residual is zero.
    The solved g is kept on ``args`` for ``--dump-series``."""
    from arbor import series
    g = args.solved = series.solve_G(args.t, args.max_n)
    pairs: dict = {}  # n -> {a: [coefficient in g, coefficient in rhs]}
    for side, s in enumerate((g, series.residual(g))):
        for n, a, c in s.terms():
            pairs.setdefault(n, {}).setdefault(a, [0, 0])[side] = c
    for n, _, where in _groups(args, ()):
        want = {a: [c, c] for a, c in counting.count_table(args.t, n).items()}
        yield where, pairs.get(n, {}), want


def _inversion(args, ms):
    """Each (n, m) group read whole from its one expanded product, so the
    compositions come from the product and the counts from inversion."""
    from arbor import series
    for n, m, where in _groups(args, ms):
        yield where, series.lagrange_table(args.t, n, m), counting.count_table(args.t, n, m)


def _sums(args, ms):
    for m in ms or (None,):
        ns = range(m or 1, args.max_n + 1)
        yield (f"t={args.t}{f' m={m}' if m else ''}",
               {n: sum(counting.count_table(args.t, n, m).values()) for n in ns},
               {n: counting.group_total(args.t, n, m) for n in ns})


def _symmetry(args, ms):
    """Each count against the count of its sorted composition.  The counts
    are invariant under every slot permutation if and only if that holds
    for every row, so one look per row stands for its t! checks.  When a
    row breaks it, the first composition whose permutations hold two
    counts is scanned over the slot orders, in the order of
    ``itertools.permutations``, up to the first order that changes its
    count, which names the same composition and order as comparing every
    composition with all t! of its permutations would."""
    t = args.t
    for n, _, where in _groups(args, ()):
        rows = counting.count_table(t, n)
        canon = {a: rows[tuple(sorted(a))] for a in rows}
        if canon == rows:
            yield where, canon, rows
            continue
        broken = {tuple(sorted(a)) for a in rows if canon[a] != rows[a]}
        a = next(a for a in rows if tuple(sorted(a)) in broken)
        got = {}
        for p in permutations(range(t)):
            got[p] = rows[tuple(a[i] for i in p)]
            if got[p] != rows[a]:
                break
        yield f"{where} a={a}", got, dict.fromkeys(got, rows[a])
        return


# An entry's series ring steps and nodes, summed over its forest sizes m, in
# O(t) binomials whatever --max-n.  Trees are priced as the forests of m = 1:
# both place n = m..max-n nodes and read g-degrees 0..max-n - m.

def _nodes(args, m):
    return 0, args.max_n * (args.max_n + 1) // 2 - m * (m - 1) // 2


def _solve_steps(args, m):
    from arbor import series
    return series.solve_steps(args.t, args.max_n), 0


def _inversion_steps(args, m):
    from arbor import series
    return series.inversion_steps_through(args.t, args.max_n - m), 0


def _free(args, m):
    return 0, 0


# Every check in run order: its name, the --mode that runs it besides "all",
# its entries ("trees", "each m" for one per forest size, "all m" for one
# over all sizes), its case, the cost of one entry, what a table key is (for
# the FAIL line) and its PASS text, with the fields t, n (the maximum), m,
# count (the keys compared) and orders (count times t!).
_Check = namedtuple("_Check", "name mode scope case cost label passed")
CHECKS = (
    _Check("tree census", "brute", "trees", _census, _nodes, "a",
           "tree census == closed form (t={t}, n<={n}, {count} compositions)"),
    _Check("forest census", "brute", "each m", _census, _nodes, "a",
           "forest census == closed form (t={t}, m={m}, n<={n}, "
           "{count} compositions)"),
    _Check("series", "series", "trees", _series, _solve_steps, "a",
           "series solution == closed form, residual zero "
           "(t={t}, n<={n}, {count} coefficients)"),
    _Check("inversion", "lagrange", "trees", _inversion, _inversion_steps, "a",
           "direct inversion == closed form (t={t}, n<={n}, {count} compositions)"),
    _Check("forest inversion", "lagrange", "each m", _inversion, _inversion_steps, "a",
           "forest inversion == closed form (t={t}, m={m}, n<={n}, "
           "{count} compositions)"),
    _Check("tree sum identity", "all", "trees", _sums, _free, "n",
           "tree counts sum to the closed-form total (t={t}, n<={n})"),
    _Check("forest sum identity", "all", "all m", _sums, _free, "n",
           "forest counts sum to the closed-form total "
           "(t={t}, m in {{{m}}}, n<={n})"),
    _Check("symmetry", "all", "trees", _symmetry, _free, "perm",
           "counts invariant under slot permutations (t={t}, n<={n}, "
           "{orders} checks)"),
)


def _compare(check: _Check, args, ms: tuple) -> bool:
    """Run one table entry: key sets first, then values; one PASS or FAIL line.
    The first failing table ends the entry; later entries still run."""
    count = 0
    for where, got, want in check.case(args, ms):
        if got != want:
            stray = got.keys() ^ want.keys()
            key = min(stray) if stray else next(k for k in want if got[k] != want[k])
            what = "key set differs" if stray else "mismatch"
            print(f"FAIL {check.name} {what} at {where} {check.label}={key}")
            return False
        count += len(want)
    print("PASS " + check.passed.format(t=args.t, n=args.max_n,
                                        m=",".join(map(str, ms)), count=count,
                                        orders=count * factorial(args.t)))
    return True


def _verify_entries(args) -> list:
    """Every (check, forest sizes) entry that ``--mode`` runs, in run order,
    once their costs together pass the budget, the ring steps first: at t=1
    each census holds one tree, so its own bound cannot stop the nodes of
    them all.  ``--mode brute`` loads no series ring."""
    ms = range(1, min(args.t, args.max_n + 1)) if args.forest is None else [args.forest]
    scopes = {"trees": [()], "each m": [(m,) for m in ms],
              "all m": [tuple(ms)] if ms else []}
    entries = [(check, group) for check in CHECKS if args.mode in (check.mode, "all")
               for group in scopes[check.scope]]
    steps, nodes = map(sum, zip(*[check.cost(args, m) for check, group in entries
                                  for m in group or (1,)]))
    check_budget(f"verify(t={args.t}, max-n={args.max_n}, mode={args.mode})", [
        (steps, "take %d series ring steps"), (nodes, "place %d nodes")], args.budget)
    return entries


def cmd_verify(args) -> int:
    t, max_n = args.t, args.max_n
    counting.check_arity(t)
    if max_n < 1:
        raise ConstraintError(f"--max-n must be >= 1, got {max_n}")
    if args.workers < 1:
        raise ConstraintError(f"--workers must be >= 1, got {args.workers}")
    if args.forest is not None:
        if not 1 <= args.forest < t:
            raise ConstraintError(
                f"--forest must satisfy 1 <= m < t, got m={args.forest} t={t}")
        if args.forest > max_n:
            raise ConstraintError(
                f"--forest must satisfy m <= max-n, got m={args.forest} max-n={max_n}")
    results = []
    for check, group in _verify_entries(args):
        results.append(_compare(check, args, group))
        if results[-1] and check.case is _series and args.dump_series:
            print("series dump:", *args.solved.dump_lines(), sep="\n")
    passed = sum(results)
    print(f"summary: {passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_VERIFY


def _check_paths_flags(args) -> None:
    """Refuse a flag the chosen ``paths`` output cannot use."""
    if args.offset is not None and not args.probe:
        raise ConstraintError("--offset applies only to --probe")
    if args.probe and args.dump:
        raise ConstraintError("--dump does not apply to --probe")
    if args.labels and (args.probe or args.dump):
        raise ConstraintError(
            f"--labels does not apply to {'--probe' if args.probe else '--dump'}")


def cmd_paths(args) -> int:
    from arbor import paths
    _check_paths_flags(args)
    t, n = args.t, args.n
    if args.probe:
        offset = None if args.offset is None else _parse_ints(args.offset, "offset")
        report = paths.residue_distribution_probe(t, n, offset=offset,
                                                  budget=args.budget)
        print(report.to_csv())
        print(report.verdict_line())
        return EXIT_OK
    trees = counting.total_trees(t, n)  # checks the shape first
    chars = trees * paths.listing_line_length(t, n, labels=args.labels, dump=args.dump)
    check_budget(f"listing t={t} n={n}", [
        (trees, "enumerate %d trees"), (n, "place %d nodes"),
        (-(-chars // 8), "write %d 64-bit words of text")], args.budget)
    paths.write_listing(t, n, sys.stdout.write, labels=args.labels, dump=args.dump)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConstraintError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arbor",
        description="Exact counts and enumeration of t-ary trees by edge type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, nodes=True):
        p.add_argument("--t", type=int, required=True, help="arity (child slots per node)")
        if nodes:
            p.add_argument("--n", type=int, required=True, help="node count")

    p = sub.add_parser("count", help="exact count for one composition")
    add_common(p)
    p.add_argument("--composition", required=True,
                   help="comma-separated edge counts a1,...,at")
    p.add_argument("--forest", type=int, metavar="M",
                   help="count ordered M-tuples of trees instead")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="full composition table for (t, n)")
    add_common(p)
    p.add_argument("--forest", type=int, metavar="M")
    p.add_argument("--format", choices=("pretty", "csv"), default="pretty")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("triangle", help="marginal-count triangle (b-file or rows)")
    add_common(p, nodes=False)
    p.add_argument("--rows", type=int, required=True, help="number of rows")
    p.add_argument("--marginal", type=int, required=True, metavar="SLOT",
                   help="slot whose edge count indexes the columns")
    p.add_argument("--format", choices=("pretty", "bfile"), default="pretty")
    p.add_argument("--b-offset", type=int, default=0,
                   help="starting linear index for b-file output")
    p.add_argument("--self-check", action="store_true",
                   help="assert the triangle is identical for every slot")
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("verify", help="run the cross-verification suites")
    add_common(p, nodes=False)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--mode", choices=("brute", "series", "lagrange", "all"),
                   default="all")
    p.add_argument("--forest", type=int, metavar="M",
                   help="restrict forest checks to this M")
    p.add_argument("--budget", type=int, help="enumeration budget override")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--engine", choices=("auto", "compiled", "pure"), default="auto")
    p.add_argument("--dump-series", action="store_true",
                   help="print the solved series as n;a1,...,at;coef lines")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("paths", help="list trees with their lattice paths")
    add_common(p)
    p.add_argument("--probe", action="store_true",
                   help="emit the residue-class distribution report")
    p.add_argument("--offset", help="affine offset for the probe, a1,...,at")
    p.add_argument("--labels", action="store_true",
                   help="include child-slot labels in path text")
    p.add_argument("--dump", action="store_true",
                   help="print canonical tree serializations only")
    p.add_argument("--budget", type=int, help="enumeration budget override")
    p.set_defaults(func=cmd_paths)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7
        # the budget already bounds the counts; let any of them print
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader left early (``arbor ... | head``): send the output still
        # buffered to devnull so the flush at exit cannot fail again
        # (the SIGPIPE recipe of the Python docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CONSTRAINT
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ArithmeticError as exc:
        # a check of the closed form failed: a product it divides is not a
        # multiple of n, or a table's rows miss its total
        print(f"FAIL {exc}")
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
