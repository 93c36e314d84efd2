"""Command-line front end: exact counts, tables, triangles, cross-verification.

Exit codes: 0 success, 1 constraint violation or a closed output pipe,
2 budget exceeded, 3 verification failure (a cross-check or a check of
the closed form itself).
"""
from __future__ import annotations

import gc
import os
import sys
from collections import namedtuple
from itertools import chain, permutations
from math import factorial
from types import SimpleNamespace
from typing import Iterator, Optional

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


#: The most characters a table or triangle hands to one write, unless one
#: line alone is longer: each write is the most whole lines that fit.
PIECE = 1 << 16


def _write_pieces(write, texts) -> None:
    """Write ``texts``, each of whole lines, in pieces of PIECE characters or
    less: each piece the most whole lines that fit, or one line that is
    longer than PIECE alone.  At most one piece is held."""
    held, size = [], 0
    for text in texts:
        while size + len(text) > PIECE:
            cut = text.rfind("\n", 0, PIECE - size) + 1 or (0 if size else text.find("\n") + 1)
            held.append(text[:cut])
            write("".join(held))
            held, size, text = [], 0, text[cut:]
        held.append(text)
        size += len(text)
    if size:
        write("".join(held))


def cmd_table(args) -> int:
    _write_pieces(sys.stdout.write, _table_texts(args.format, args.t, args.n, args.forest))
    return EXIT_OK


def _table_texts(fmt: str, t: int, n: int, m: Optional[int] = None) -> Iterator[str]:
    """The table as CSV or in right-aligned columns, as texts of whole lines
    that join into the whole output, once the shape, the budget and the
    check pass: the rows must sum to the closed-form total, so a failing
    table prints nothing of itself.  The output is never held whole:
    below t = 6 the blocks of ``count_rows`` are held until they are
    written, and from t = 6 on one text per (t - 3)-part prefix pair
    (``_grouped_rows``).

    No count exceeds the total and no part exceeds the free edge count, or
    one more in a forest's root slots, and both are reached, so the pretty
    columns are as wide as the longer of the two, and no line of either
    format is longer than a pretty line."""
    _, roots, free = counting.shape(t, n, m)
    # one row per weak composition of the free edge count into t parts
    rows = counting.binomial(free + t - 1, t - 1)
    forest = "" if m is None else f"m={m}, "
    _check_counts(f"table(t={t}, {forest}n={n})", rows, "rows", rows * t * n)
    total = counting.group_total(t, n, m)
    names = [f"a{i + 1}" for i in range(t)]
    width = max(len(str(total)), len(str(free + (1 if roots else 0))))
    if fmt == "csv":
        head, part, cell = ",".join(names) + ",count", "%d,", ""
        foot = "total," + "," * (t - 1) + str(total)
    else:
        head = " ".join(x.rjust(width) for x in names) + "  " + "count".rjust(width + 4)
        part, cell = f"%{width}d ", f">{width + 5}"
        foot = "total" + str(total).rjust(len(head) - len("total"))

    def write(*parts):
        return part * len(parts) % parts

    if t >= 6:
        rows_sum, body = _grouped_rows(t, n, m, write, cell)
    else:
        # a text of this many rows fits a piece, as no line is longer than
        # a pretty line
        rows_sum, body = _block_rows(t, n, m, write, cell,
                                     max(1, PIECE // (t * (width + 1) + width + 6)))
    if rows_sum != total:
        raise ArithmeticError("table rows do not sum to the closed-form total")
    return chain((head + "\n",), body, (foot + "\n",))


def _block_rows(t: int, n: int, m: Optional[int], write, cell: str, lines: int):
    """(sum of the counts, texts of the rows) of a table below t = 6.  The
    blocks of ``count_rows`` are held, not their text: each block's sum is
    p times the sum of its quotient list, taken once per list, as blocks
    share them.  Each text is up to ``lines`` rows of one block, so a block
    of many rows (t = 2 has one) is never written whole."""
    blocks = list(counting.count_rows(t, n, m, write=write))
    sums: dict = {}  # id of a quotient list -> its sum; blocks hold the lists
    rows_sum = 0
    for _, _, p, quotients in blocks:
        if id(quotients) not in sums:
            sums[id(quotients)] = sum(quotients)
        rows_sum += p * sums[id(quotients)]
    return rows_sum, (
        "".join([f"{prefix}{tail}{p * q:{cell}}\n"
                 for tail, q in zip(tails[lo:lo + lines], quotients[lo:lo + lines])])
        for prefix, tails, p, quotients in blocks for lo in range(0, len(tails), lines))


def _grouped_rows(t: int, n: int, m: Optional[int], write, cell: str):
    """(sum of the counts, texts of the rows) of a table from t = 6 on, from
    two walks of the (t - 3)-part prefixes of ``count_groups``.  The rows
    under a prefix less the prefix depend on its (remainder, product) pair
    alone, so the first walk writes them once per pair, each led by a NUL,
    which no row holds, where the prefix goes, and adds their sum under
    every prefix of the pair; a later prefix of a pair builds none of its
    blocks.  The second walk fills each prefix into its pair's text.  From
    t = 6 on a pair recurs under 5 prefixes or more (405 pairs over 2,024
    prefixes at (6, 22), 1,855 over 98,280 at (8, 30, 7)); below it under
    2 at most (420 over 820 at (5, 40), one each at t = 4), and the texts
    of the pairs would hold half the table or all of it."""
    groups, rows = counting.count_groups(t, n, m, write=write)
    texts: dict = {}  # pair -> its rows less the prefix, and their sum
    shared: dict = {}
    rows_sum = 0
    for _, left, product in groups():
        if (left, product) not in texts:
            texts[left, product] = _group_rows(rows(left, product), shared, cell)
        rows_sum += texts[left, product][1]
    return rows_sum, (texts[left, product][0].replace("\0", prefix)
                      for prefix, left, product in groups())


def _group_rows(blocks, shared: dict, cell: str) -> tuple[str, int]:
    """The rows of the blocks (part, tails, p, quotients) of one prefix pair,
    each led by a NUL and its part, and the sum of their counts.  A block's
    rows less its part depend on its own (remainder, product) pair, which
    its p and quotient list fix, so ``shared`` keeps each such text and sum
    once, as ``_shared_rows`` writes them."""
    parts, group_sum = [], 0
    for part, tails, p, quotients in blocks:
        key = p, id(quotients)  # the lists live as long as count_groups' rows
        if key not in shared:
            shared[key] = _shared_rows(tails, p, quotients, cell)
        text, block_sum = shared[key]
        parts.append(text.replace("\0", "\0" + part))
        group_sum += block_sum
    return "".join(parts), group_sum


def _shared_rows(tails: list, p: int, quotients: list[int], cell: str) -> tuple[str, int]:
    """The rows of a block less its prefix, each led by a NUL, and the sum
    of their counts."""
    counts = [p * q for q in quotients]
    text = "".join([f"\0{tail}{count:{cell}}\n" for tail, count in zip(tails, counts)])
    return text, sum(counts)


def _triangle_rows(t: int, slot: int, rows: int) -> list[list[int]]:
    return [counting.marginal_row(t, n, slot) for n in range(1, rows + 1)]


def cmd_triangle(args) -> int:
    _write_pieces(sys.stdout.write, _triangle_texts(args.format, args.t, args.marginal,
                                                    args.rows, args.self_check, args.b_offset))
    return EXIT_OK


def _triangle_texts(fmt: str, t: int, slot: int, rows: int, self_check: bool,
                    offset: int) -> Iterator[str]:
    """The triangle of ``slot`` as b-file lines from index ``offset`` or as
    labelled rows, one text per row, once the shape, the budget and
    ``self_check`` pass; a failed check raises before any text is returned."""
    counting.check_arity(t)
    if rows < 1:
        raise ConstraintError(f"--rows must be >= 1, got {rows}")
    if not 1 <= slot <= t:
        raise ConstraintError(f"marginal slot {slot} outside 1..{t}")
    # --self-check computes the triangle once per slot; row n has n cells
    copies = t if self_check else 1
    _check_counts(f"triangle(t={t}, rows={rows})", copies * rows * (rows + 1) // 2,
                  "cells", copies * t * rows * (rows + 1) * (2 * rows + 1) // 6)
    triangle = _triangle_rows(t, slot, rows)
    if self_check:
        # row n sums to total_trees(t, n) (Vandermonde's identity) and equals
        # row n of every other slot, whose rows are compared as they come,
        # so one triangle is held
        for n, row in enumerate(triangle, start=1):
            if sum(row) != counting.total_trees(t, n):
                raise ArithmeticError(
                    f"slot {slot} row n={n} does not sum to total_trees(t={t}, n={n})")
        for other in range(1, t + 1):
            if other != slot and any(counting.marginal_row(t, n, other) != row
                                     for n, row in enumerate(triangle, start=1)):
                raise ArithmeticError(f"slot {other} triangle differs from slot {slot}")
    if fmt == "bfile":  # row n (from 0) starts n (n + 1) / 2 cells in
        starts = (offset + n * (n + 1) // 2 for n in range(rows))
        texts = ("".join([f"{i} {v}\n" for i, v in enumerate(row, start)])
                 for row, start in zip(triangle, starts))
    else:
        texts = (f"n={n} (edges={n - 1}): {' '.join(map(str, row))}\n"
                 for n, row in enumerate(triangle, start=1))
    return chain([f"self-check: all {t} slot triangles agree\n"] if self_check else [],
                 texts)


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
    The first failing table or ArithmeticError ends it; later entries run."""
    count = 0
    try:
        for where, got, want in check.case(args, ms):
            if got != want:
                stray = got.keys() ^ want.keys()
                key = min(stray) if stray else next(k for k in want if got[k] != want[k])
                what = "key set differs" if stray else "mismatch"
                print(f"FAIL {check.name} {what} at {where} {check.label}={key}")
                return False
            count += len(want)
    except ArithmeticError as exc:
        print(f"FAIL {check.name} {exc}")
        return False
    print("PASS " + check.passed.format(t=args.t, n=args.max_n,
                                        m=",".join(map(str, ms)), count=count,
                                        orders=count * factorial(args.t)))
    return True


def _verify_entries(args) -> list:
    """Every (check, forest sizes) entry that ``--mode`` runs, in run order,
    once their costs together pass the budget, the ring steps first: at t=1
    each census holds one tree, so its own bound cannot stop the nodes of
    them all.  Each census's own guard then runs in run order, so none walks
    before one is refused.  An ArithmeticError of a guard, a fault of the
    closed form, is left to its census, which calls the same guard before it
    walks, so it ends only that entry, as a FAIL line naming the check.
    ``--mode brute`` loads no series ring."""
    ms = range(1, min(args.t, args.max_n + 1)) if args.forest is None else [args.forest]
    scopes = {"trees": [()], "each m": [(m,) for m in ms],
              "all m": [tuple(ms)] if ms else []}
    entries = [(check, group) for check in CHECKS if args.mode in (check.mode, "all")
               for group in scopes[check.scope]]
    steps, nodes = map(sum, zip(*[check.cost(args, m) for check, group in entries
                                  for m in group or (1,)]))
    check_budget(f"verify(t={args.t}, max-n={args.max_n}, mode={args.mode})", [
        (steps, "take %d series ring steps"), (nodes, "place %d nodes")], args.budget)
    for check, group in entries:
        if check.case is _census:
            from arbor import treebank
            for n, m, _ in _groups(args, group):
                try:
                    treebank.check_census_budget(args.t, n, m, args.budget)
                except ArithmeticError:
                    pass
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
    action = f"listing t={t} n={n}"
    check_budget(action, [(trees, "enumerate %d trees"), (n, "place %d nodes")],
                 args.budget)
    # every line of one listing has the length of its first, and the bounds
    # above keep that line small wherever the text bound can refuse
    lines = paths.listing_lines(t, n, labels=args.labels, dump=args.dump)
    first = next(lines, "")
    check_budget(action, [(-(-trees * len(first) // 8),
                           "write %d 64-bit words of text")], args.budget)
    write = sys.stdout.write
    for line in chain((first,), lines):
        write(line)
    return EXIT_OK


# The argv of every command, in help order: the command's help text and
# handler, and per option its flag, type (bool for a flag that takes no
# value), default, choices, required, metavar and help.
_Option = namedtuple("_Option", "flag type default choices required metavar help",
                     defaults=(None, None, False, None, None))
_T = _Option("--t", int, required=True, help="arity (child slots per node)")
_N = _Option("--n", int, required=True, help="node count")
_M = _Option("--forest", int, metavar="M")
_BUDGET = _Option("--budget", int, help="enumeration budget override")
COMMANDS = {
    "count": ("exact count for one composition", cmd_count, (
        _T, _N, _Option("--composition", str, required=True,
                        help="comma-separated edge counts a1,...,at"),
        _M._replace(help="count ordered M-tuples of trees instead"))),
    "table": ("full composition table for (t, n)", cmd_table, (
        _T, _N, _M, _Option("--format", str, "pretty", ("pretty", "csv")))),
    "triangle": ("marginal-count triangle (b-file or rows)", cmd_triangle, (
        _T, _Option("--rows", int, required=True, help="number of rows"),
        _Option("--marginal", int, required=True, metavar="SLOT",
                help="slot whose edge count indexes the columns"),
        _Option("--format", str, "pretty", ("pretty", "bfile")),
        _Option("--b-offset", int, 0, help="starting linear index for b-file output"),
        _Option("--self-check", bool, help="assert the triangle is identical for every slot"))),
    "verify": ("run the cross-verification suites", cmd_verify, (
        _T, _Option("--max-n", int, required=True),
        _Option("--mode", str, "all", ("brute", "series", "lagrange", "all")),
        _M._replace(help="restrict forest checks to this M"), _BUDGET,
        _Option("--workers", int, 1),
        _Option("--engine", str, "auto", ("auto", "compiled", "pure")),
        _Option("--dump-series", bool,
                help="print the solved series as n;a1,...,at;coef lines"))),
    "paths": ("list trees with their lattice paths", cmd_paths, (
        _T, _N, _Option("--probe", bool, help="emit the residue-class distribution report"),
        _Option("--offset", str, help="affine offset for the probe, a1,...,at"),
        _Option("--labels", bool, help="include child-slot labels in path text"),
        _Option("--dump", bool, help="print canonical tree serializations only"),
        _BUDGET)),
}


def _parse_table(argv: list) -> Optional[SimpleNamespace]:
    """What ``build_parser().parse_args(argv)`` returns, read from COMMANDS
    alone, when argv is a command name and then only whole flags of that
    command, each value flag followed by a value with no leading ``-`` that
    converts and is among its choices, with every required flag given; None
    for any other argv, which argparse then answers (help) or refuses."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options = COMMANDS[argv[0]]
    flags = {option.flag: option for option in options}
    given, tokens = {}, iter(argv[1:])
    for flag in tokens:
        option = flags.get(flag)
        if option is None:
            return None
        if option.type is bool:
            given[flag] = True
            continue
        text = next(tokens, "-")
        if text.startswith("-"):
            return None
        try:
            given[flag] = option.type(text)
        except ValueError:
            return None
        if option.choices is not None and given[flag] not in option.choices:
            return None
    if any(option.required and option.flag not in given for option in options):
        return None
    return SimpleNamespace(command=argv[0], func=func, **{
        option.flag[2:].replace("-", "_"): given.get(
            option.flag, False if option.type is bool else option.default)
        for option in options})


def build_parser():
    """The argparse parser of COMMANDS, which prints help and refuses an argv
    as a ConstraintError."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ConstraintError(message)

    parser = Parser(prog="arbor",
                    description="Exact counts and enumeration of t-ary trees by edge type.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for o in options:
            if o.type is bool:
                p.add_argument(o.flag, action="store_true", help=o.help)
            else:
                p.add_argument(o.flag, type=o.type, default=o.default, choices=o.choices,
                               required=o.required, metavar=o.metavar, help=o.help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    # the budget already bounds the counts, so let any of them print, and
    # give an in-process caller its digit limit back (no limit before 3.10.7)
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits:
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # argparse is imported only to print help or refuse an argv
        args = _parse_table(argv) or build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader left early (``arbor ... | head``): send the output still
        # buffered to devnull so the flush at exit cannot fail again
        # (the SIGPIPE recipe of the Python docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CONSTRAINT
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ArithmeticError as exc:
        # a check of the closed form failed: a product it divides is not a
        # multiple of n, a table's rows miss its total, or a triangle fails
        # its self-check
        print(f"FAIL {exc}")
        return EXIT_VERIFY
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def run() -> None:
    """The program entry of ``arbor`` and ``python -m arbor.cli``: freeze the
    start-up heap, then exit with ``main``'s code.  ``main`` freezes nothing,
    so the tests and the benchmark's tracer can call it in-process."""
    # At exit CPython collects once more over every object start-up left
    # (about 11,500: site, the standard library, arbor), nearly all of them
    # live: 2.9 ms of a no-work count.  Frozen objects are never walked
    # again: that count went from 52.8 to 46.9 ms and the benchmark commands
    # ran 5.4-9.6 ms faster (medians of 15 fresh processes, 2 vCPUs, Python
    # 3.11.7).
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
