"""Command-line front end: exact counts, tables, triangles, cross-verification.

Exit codes: 0 success, 1 constraint violation, 2 budget exceeded,
3 verification failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from arbor import counting, paths, series, treebank
from arbor.errors import BudgetExceededError, ConstraintError

EXIT_OK = 0
EXIT_CONSTRAINT = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3


@dataclass
class CountTable:
    """Composition-count rows for one (t, n) in lexicographic order."""

    arity: int
    nodes: int
    forest_m: Optional[int]
    rows: list[tuple[counting.EdgeComposition, int]]
    total: int

    @classmethod
    def for_trees(cls, t: int, n: int) -> "CountTable":
        rows = [
            (a, counting.count_trees(t, n, a))
            for a in counting.compositions(t, n - 1)
        ]
        total = counting.total_trees(t, n)
        if total != sum(c for _, c in rows):
            raise ArithmeticError("table rows do not sum to the tree total")
        return cls(t, n, None, rows, total)

    @classmethod
    def for_forests(cls, t: int, m: int, n: int) -> "CountTable":
        rows = [
            (a, counting.count_forests(t, m, n, a))
            for a in counting.compositions(t, n, m=m)
        ]
        total = counting.total_forests(t, m, n)
        if total != sum(c for _, c in rows):
            raise ArithmeticError("table rows do not sum to the forest total")
        return cls(t, n, m, rows, total)

    def to_csv(self) -> str:
        lines = [",".join(f"a{i + 1}" for i in range(self.arity)) + ",count"]
        for comp, count in self.rows:
            lines.append(",".join(str(x) for x in comp) + f",{count}")
        lines.append("total," + "," * (self.arity - 1) + str(self.total))
        return "\n".join(lines)

    def to_pretty(self) -> str:
        width = max(
            [len(str(self.total))]
            + [len(str(x)) for comp, c in self.rows for x in comp + (c,)]
        )
        head = " ".join(f"a{i + 1}".rjust(width) for i in range(self.arity))
        lines = [head + "  " + "count".rjust(width + 4)]
        for comp, count in self.rows:
            row = " ".join(str(x).rjust(width) for x in comp)
            lines.append(row + "  " + str(count).rjust(width + 4))
        label = "total"
        pad = len(lines[0]) - len(label) - len(str(self.total))
        lines.append(label + " " * max(pad, 2) + str(self.total))
        return "\n".join(lines)


def _parse_composition(text: str, t: int) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConstraintError(f"composition {text!r} is not a comma-separated "
                              "list of integers") from None
    if len(parts) != t:
        raise ConstraintError(
            f"composition {text!r} has {len(parts)} parts, arity is {t}"
        )
    return parts


def cmd_count(args) -> int:
    comp = _parse_composition(args.composition, args.t)
    if args.forest is not None:
        print(counting.count_forests(args.t, args.forest, args.n, comp))
    else:
        print(counting.count_trees(args.t, args.n, comp))
    return EXIT_OK


def cmd_table(args) -> int:
    if args.forest is not None:
        counting.check_forest_shape(args.t, args.forest, args.n)
        table = CountTable.for_forests(args.t, args.forest, args.n)
    else:
        counting.check_tree_shape(args.t, args.n)
        table = CountTable.for_trees(args.t, args.n)
    print(table.to_csv() if args.format == "csv" else table.to_pretty())
    return EXIT_OK


def _triangle_rows(t: int, slot: int, rows: int) -> list[list[int]]:
    return [
        [counting.marginal_count(t, n, {slot: k}) for k in range(n)]
        for n in range(1, rows + 1)
    ]


def cmd_triangle(args) -> int:
    t, slot = args.t, args.marginal
    if not 1 <= slot <= t:
        raise ConstraintError(f"marginal slot {slot} outside 1..{t}")
    triangle = _triangle_rows(t, slot, args.rows)
    if args.self_check:
        for other in range(1, t + 1):
            if _triangle_rows(t, other, args.rows) != triangle:
                print(f"FAIL slot {other} triangle differs from slot {slot}")
                return EXIT_VERIFY
        print(f"self-check: all {t} slot triangles agree")
    if args.format == "bfile":
        index = args.b_offset
        for row in triangle:
            for value in row:
                print(f"{index} {value}")
                index += 1
    else:
        for n, row in enumerate(triangle, start=1):
            values = " ".join(str(v) for v in row)
            print(f"n={n} (edges={n - 1}): {values}")
    return EXIT_OK


def _verify_trees_brute(t, max_n, budget, workers, engine, report):
    checked = 0
    for n in range(1, max_n + 1):
        table = treebank.census(t, n, budget=budget, workers=workers, engine=engine)
        comps = list(counting.compositions(t, n - 1))
        if set(table) != set(comps):
            report(False, f"tree census key set differs at t={t} n={n}")
            return
        for a in comps:
            checked += 1
            if table[a] != counting.count_trees(t, n, a):
                report(False, f"tree census mismatch at t={t} n={n} a={a}")
                return
    report(True, f"tree census == closed form (t={t}, n<={max_n}, "
                 f"{checked} compositions)")


def _verify_forests_brute(t, ms, max_n, budget, workers, engine, report):
    for m in ms:
        checked = 0
        for n in range(m, max_n + 1):
            table = treebank.forest_census(
                t, m, n, budget=budget, workers=workers, engine=engine
            )
            comps = list(counting.compositions(t, n, m=m))
            if set(table) != set(comps):
                report(False, f"forest census key set differs at t={t} m={m} n={n}")
                return
            for a in comps:
                checked += 1
                if table[a] != counting.count_forests(t, m, n, a):
                    report(False, f"forest census mismatch at t={t} m={m} n={n} a={a}")
                    return
        report(True, f"forest census == closed form (t={t}, m={m}, n<={max_n}, "
                     f"{checked} compositions)")


def _verify_series(t, max_n, dump, report):
    g = series.solve_G(t, max_n)
    for n, a, _ in g.terms():
        if sum(a) != n - 1:
            report(False, f"homogeneity violated at term ({n}, {a})")
            return
    checked = 0
    for n in range(1, max_n + 1):
        for a in counting.compositions(t, n - 1):
            checked += 1
            if g.coefficient(n, a) != counting.count_trees(t, n, a):
                report(False, f"series coefficient mismatch at n={n} a={a}")
                return
    one = series.MultiSeries.one(t, max_n)
    x = series.MultiSeries.x(t, max_n)
    p = x
    for slot in range(1, t + 1):
        p = p * (one + g.times_y(slot))
    if p != g:
        report(False, "fixed-point residual is nonzero")
        return
    report(True, f"series solution == closed form, residual zero "
                 f"(t={t}, n<={max_n}, {checked} coefficients)")
    if dump:
        print("series dump:")
        for line in g.dump_lines():
            print(line)


def _verify_lagrange(t, ms, max_n, report):
    checked = 0
    for n in range(1, max_n + 1):
        for a in counting.compositions(t, n - 1):
            checked += 1
            if series.lagrange_extract(t, n, a) != counting.count_trees(t, n, a):
                report(False, f"inversion mismatch at t={t} n={n} a={a}")
                return
    report(True, f"direct inversion == closed form (t={t}, n<={max_n}, "
                 f"{checked} compositions)")
    for m in ms:
        checked = 0
        for n in range(m, max_n + 1):
            for a in counting.compositions(t, n, m=m):
                checked += 1
                if series.lagrange_extract_forest(t, m, n, a) != \
                        counting.count_forests(t, m, n, a):
                    report(False, f"forest inversion mismatch at "
                                  f"t={t} m={m} n={n} a={a}")
                    return
        report(True, f"forest inversion == closed form (t={t}, m={m}, "
                     f"n<={max_n}, {checked} compositions)")


def _verify_identities(t, ms, max_n, report):
    for n in range(1, max_n + 1):
        s = sum(counting.count_trees(t, n, a)
                for a in counting.compositions(t, n - 1))
        if s != counting.total_trees(t, n):
            report(False, f"tree sum identity fails at t={t} n={n}")
            return
    report(True, f"tree counts sum to the closed-form total (t={t}, n<={max_n})")
    for m in ms:
        for n in range(m, max_n + 1):
            s = sum(counting.count_forests(t, m, n, a)
                    for a in counting.compositions(t, n, m=m))
            if s != counting.total_forests(t, m, n):
                report(False, f"forest sum identity fails at t={t} m={m} n={n}")
                return
    if ms:
        report(True, f"forest counts sum to the closed-form total "
                     f"(t={t}, m in {{{','.join(map(str, ms))}}}, n<={max_n})")


def _verify_symmetry(t, max_n, report):
    checked = 0
    for n in range(1, max_n + 1):
        for a in counting.compositions(t, n - 1):
            base = counting.count_trees(t, n, a)
            for perm in permutations(a):
                checked += 1
                if counting.count_trees(t, n, perm) != base:
                    report(False, f"symmetry broken at t={t} n={n} "
                                  f"a={a} perm={perm}")
                    return
    report(True, f"counts invariant under slot permutations "
                 f"(t={t}, n<={max_n}, {checked} checks)")


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
                f"--forest must satisfy 1 <= m < t, got m={args.forest} t={t}"
            )
        ms = [args.forest]
    else:
        ms = [m for m in range(1, t) if m <= max_n]
    results = []

    def report(ok: bool, message: str) -> None:
        results.append(ok)
        print(("PASS " if ok else "FAIL ") + message)

    if args.mode in ("brute", "all"):
        _verify_trees_brute(t, max_n, args.budget, args.workers, args.engine, report)
        _verify_forests_brute(
            t, ms, max_n, args.budget, args.workers, args.engine, report
        )
    if args.mode in ("series", "all"):
        _verify_series(t, max_n, args.dump_series, report)
    if args.mode in ("lagrange", "all"):
        _verify_lagrange(t, ms, max_n, report)
    if args.mode == "all":
        _verify_identities(t, ms, max_n, report)
        _verify_symmetry(t, max_n, report)

    passed = sum(results)
    print(f"summary: {passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_VERIFY


def cmd_paths(args) -> int:
    t, n = args.t, args.n
    if args.probe:
        offset = None
        if args.offset is not None:
            offset = _parse_composition(args.offset, t)
        report = paths.residue_distribution_probe(t, n, offset=offset,
                                                  budget=args.budget)
        print(report.to_csv())
        print(report.verdict_line())
        return EXIT_OK
    counting.check_tree_shape(t, n)
    treebank.check_budget(
        f"listing t={t} n={n}", counting.total_trees(t, n), "trees", args.budget
    )
    for tree in treebank.enumerate_trees(t, n):
        text = treebank.serialize_tree(tree)
        if args.dump:
            print(text)
        else:
            path = paths.tree_to_path(tree)
            print(f"{text} | {paths.format_path(path, with_labels=args.labels)}")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
