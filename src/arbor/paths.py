"""Lattice-path view of t-ary trees and the residue-class statistic probe.

A tree maps to its preorder walk over the completed form (every empty child
slot materialized as an external leaf): each node emits a rise of t-1, each
external leaf a fall of 1.  The walk stays non-negative and first reaches -1
at the very end.  Each step also carries the child-slot index it occupies
under its parent; the root step is unlabeled.  Read back, the path is a
preorder word (Raney's bijection): :func:`path_to_tree` builds the tree
through :func:`treebank.read_preorder`, the reader ``parse_tree`` uses.

The probe builds no tree objects and no paths: its two distributions come
from the two tables of ``treebank.joint_census``, one walk of the census
kernel that also counts each tree's non-root nodes by the starting height
of their step mod t; n minus that class vector is the residue vector.  The
listing builds no trees or paths either: :func:`write_listing` writes each
line from the preorder text of the listing walk.  :func:`tree_to_path`,
:func:`format_path` and :func:`residue_stats` stay as the object-level API
and the tests' reference.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from arbor import counting, treebank
from arbor.errors import ConstraintError, MalformedPathError


class Step(NamedTuple):
    rise: int
    label: Optional[int] = None


class LatticePath(NamedTuple):
    """Sequence of rise/fall steps with optional child-slot labels; its
    length is its step count."""

    steps: tuple[Step, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def heights(self) -> list[int]:
        """Running height after each step, starting from 0."""
        out = []
        h = 0
        for step in self.steps:
            h += step.rise
            out.append(h)
        return out


def tree_to_path(tree: treebank.TAryTree) -> LatticePath:
    """Preorder encoding of a tree; inverse of :func:`path_to_tree`."""
    up = tree.arity - 1
    steps: list[Step] = []
    stack = [(tree, None)]
    while stack:
        node, label = stack.pop()
        if node is None:
            steps.append(Step(-1, label))
        else:
            steps.append(Step(up, label))
            kids = node.children
            for i in range(len(kids), 0, -1):
                stack.append((kids[i - 1], i))
    return LatticePath(tuple(steps))


def path_to_tree(path: LatticePath, t: int) -> treebank.TAryTree:
    """Rebuild the unique tree whose encoding step-matches ``path``.

    The rises are read as a preorder word by :func:`treebank.read_preorder`,
    the reader of :func:`treebank.parse_tree`: a rise of t-1 is a node, a
    fall of 1 an empty slot.  Labels are ignored (children are consumed in
    slot order).  Malformed
    input raises :class:`MalformedPathError` carrying the offending index:
    a missing root symbol, a premature close, a bad rise value, steps after
    the tree is complete, or a path that ends before the tree closes.
    """
    counting.check_arity(t)
    up = t - 1
    rises = [step.rise for step in path.steps]
    tree, fault, index = treebank.read_preorder(rises, t, up, -1)
    if fault is None:
        return tree
    if index == 0:
        message = f"expected a node step of rise {up} at index 0"
    elif fault == "after":
        message = f"step at index {index} follows a completed tree"
    elif fault == "end":
        message = f"path ends at index {index} before the tree closes"
    else:
        message = f"step rise {rises[index]} at index {index} is neither {up} nor -1"
    raise MalformedPathError(message, index=index)


def residue_stats(path: LatticePath, t: int) -> tuple[int, ...]:
    """Count fall steps by their starting height modulo t."""
    counting.check_arity(t)
    counts = [0] * t
    h = 0
    for step in path.steps:
        if step.rise == -1:
            counts[h % t] += 1
        h += step.rise
    return tuple(counts)


def format_path(path: LatticePath, with_labels: bool = False) -> str:
    """Text form ``+2,-1,-1,-1``; labels append as ``:slot`` when requested."""
    parts = []
    for step in path.steps:
        text = "%+d" % step.rise
        if with_labels and step.label is not None:
            text += f":{step.label}"
        parts.append(text)
    return ",".join(parts)


def parse_path(text: str) -> LatticePath:
    """Inverse of :func:`format_path` (labels optional per step)."""
    steps = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ConstraintError(f"empty step in path text {text!r}")
        rise_text, _, label_text = token.partition(":")
        try:
            rise = int(rise_text)
            label = int(label_text) if label_text else None
        except ValueError:
            raise ConstraintError(f"bad step token {token!r}") from None
        steps.append(Step(rise, label))
    return LatticePath(tuple(steps))


def write_listing(
    t: int, n: int, write: Callable[[str], object], labels: bool = False,
    dump: bool = False,
) -> None:
    """Write the ``paths`` listing of every n-node t-ary tree, one line per
    :func:`treebank.enumerate_trees` tree, each through its own ``write``
    call: ``serialize_tree(tree) + " | " + format_path(tree_to_path(tree),
    with_labels=labels)``, or the serialization alone with ``dump``.

    The step text is the preorder text of :func:`treebank.tree_texts`, made
    from the root's rise and per-slot step tokens, each led by its comma,
    so no tree, step or path objects are built; a translation symbol by
    symbol reads each step back as its ``o`` or ``.``.
    """
    rise = "%+d" % (t - 1)
    slots = [f":{slot}" if labels else "" for slot in range(1, t + 1)]
    rises = [f",{rise}{label}" for label in slots]
    falls = [f",-1{label}" for label in slots]
    symbols = str.maketrans("+-", "o.", "0123456789:,")
    for text in treebank.tree_texts(t, n, rise, rises, falls):
        serial = text.translate(symbols)
        write(f"{serial}\n" if dump else f"{serial} | {text}\n")


def listing_line_length(t: int, n: int, labels: bool = False, dump: bool = False) -> int:
    """The length of every line :func:`write_listing` writes for the n-node
    t-ary trees.  The serialization has n ``o`` and (t-1)n+1 ``.``; a
    ``dump`` line is that and its newline.  Otherwise ``" | "`` and the step
    text follow: tn+1 steps joined by tn commas, the root's and n-1 other
    rises written ``%+d`` of t-1 and (t-1)n+1 falls ``-1``.  ``labels``
    adds ``:s`` to the n steps out of each slot s."""
    serial = t * n + 1
    if dump:
        return serial + 1
    steps = n * len("%+d" % (t - 1)) + 2 * ((t - 1) * n + 1) + t * n
    if labels:
        steps += n * sum(1 + len(str(s)) for s in range(1, t + 1))
    return serial + len(" | ") + steps + 1


def cyclic_shift(vector: Sequence[int], s: int) -> tuple[int, ...]:
    t = len(vector)
    return tuple(vector[(i + s) % t] for i in range(t))


class ProbeReport(NamedTuple):
    """Side-by-side distributions with a descriptive (never asserted) verdict.

    ``edge_distribution`` is the edge-type census; ``residue_distribution``
    counts raw residue vectors of the corresponding paths.  After subtracting
    ``offset`` from each residue vector, the residue multiset is compared to
    the edge multiset under every cyclic shift of the coordinates; the best
    shift and its overlap are reported.  ``verdict`` is "equal" when some
    shift matches the multisets exactly, else "not-equal" with a minimal
    witness (vector, edge count, residue count under the best shift).
    """

    arity: int
    nodes: int
    edge_distribution: dict
    residue_distribution: dict
    offset: tuple[int, ...]
    shift_matches: tuple[int, ...]
    best_shift: int
    verdict: str
    witness: Optional[tuple]

    def to_csv(self) -> str:
        header = "kind," + ",".join(f"a{i + 1}" for i in range(self.arity)) + ",count"
        lines = [header]
        for comp in sorted(self.edge_distribution):
            row = ",".join(str(x) for x in comp)
            lines.append(f"edge,{row},{self.edge_distribution[comp]}")
        for vec in sorted(self.residue_distribution):
            row = ",".join(str(x) for x in vec)
            lines.append(f"residue,{row},{self.residue_distribution[vec]}")
        return "\n".join(lines)

    def verdict_line(self) -> str:
        total = sum(self.edge_distribution.values())
        line = (
            f"verdict: {self.verdict} (best_shift={self.best_shift}, "
            f"matched={self.shift_matches[self.best_shift]}/{total}, "
            f"offset={','.join(str(x) for x in self.offset)})"
        )
        if self.witness is not None:
            vec, edge_count, residue_count = self.witness
            line += (
                f" witness={','.join(str(x) for x in vec)}"
                f" edge={edge_count} residue={residue_count}"
            )
        return line


def residue_distribution_probe(
    t: int,
    n: int,
    offset: Optional[Sequence[int]] = None,
    budget: Optional[int] = None,
) -> ProbeReport:
    """Compare edge-type counts with residue-class counts over all n-node trees.

    Both distributions come from the tables of one
    :func:`treebank.joint_census` walk: the edge table as it is, and each
    residue vector as n minus a class vector.

    The identification of residue classes with edge types is deliberately not
    baked in: raw residue vectors (minus a configurable affine offset,
    default zero) are compared under all t cyclic shifts and the best match
    is reported.  The report is descriptive; it asserts nothing about which
    verdict is correct.
    """
    counting.check_arity(t)
    off = tuple(offset) if offset is not None else (0,) * t
    if len(off) != t:
        raise ConstraintError(f"offset has {len(off)} parts, arity is {t}")
    edge_table, class_table = treebank.joint_census(t, n, budget=budget)
    residue_table = {tuple(n - c for c in vec): count
                     for vec, count in class_table.items()}
    # the offset and the shifts are one-to-one on vectors: no key merges
    normalized = {tuple(v - o for v, o in zip(vec, off)): count
                  for vec, count in residue_table.items()}
    # each shift's overlap with the edge multiset, then one table, the best's
    get = edge_table.get
    matches = tuple(sum(min(count, get(cyclic_shift(vec, s), 0))
                        for vec, count in normalized.items()) for s in range(t))
    best = max(range(t), key=lambda s: (matches[s], -s))
    shifted = {cyclic_shift(vec, best): count for vec, count in normalized.items()}
    verdict, witness = "equal", None
    if shifted != edge_table:
        verdict = "not-equal"
        witness = next((key, get(key, 0), shifted.get(key, 0))
                       for key in sorted(edge_table.keys() | shifted.keys())
                       if get(key, 0) != shifted.get(key, 0))
    return ProbeReport(
        arity=t,
        nodes=n,
        edge_distribution=edge_table,
        residue_distribution=residue_table,
        offset=off,
        shift_matches=matches,
        best_shift=best,
        verdict=verdict,
        witness=witness,
    )
