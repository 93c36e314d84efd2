"""The three oracles stay independent: the census (``treebank``, with its
lattice-path view ``paths``) and the series (``series``) take from the
closed form (``counting``) and from each other only the names listed here,
each with its reason, and the closed form imports no oracle.  A check
between two oracles proves nothing when one reads the other's results, and
both sides would still agree; so a new name fails here until it is listed
with a reason."""
import ast
from pathlib import Path

import arbor

SRC = Path(__file__).resolve().parent.parent / "src" / "arbor"
ORACLES = ("counting", "paths", "series", "treebank")

INPUT_RULE = "input rule: the arity, group shape and composition checks written once"
BUDGET = "budget: the closed-form size of the work, priced before it starts"
PARTITION = "work partition: how many splits there are and how to balance them"
JOBS = "job enumeration: the root or node splits the census walks, not their counts"
CENSUS_VIEW = ("census view: paths is the census's lattice-path side; its probe "
               "compares two tables of one census walk and checks no other oracle")

ALLOWED = {
    "treebank": {
        "counting.EdgeComposition": INPUT_RULE,
        "counting.check_arity": INPUT_RULE,
        "counting.shape": INPUT_RULE,
        "counting.group_total": BUDGET,
        "counting.binomial": PARTITION,
        "counting.total_trees": PARTITION,
        "counting.compositions": JOBS,
    },
    "series": {
        "counting.check_arity": INPUT_RULE,
        "counting.check_parts": INPUT_RULE,
        "counting.shape": INPUT_RULE,
        "counting.binomial": BUDGET,
    },
    "paths": {
        "counting.check_arity": INPUT_RULE,
        "treebank.TAryTree": CENSUS_VIEW,
        "treebank.joint_census": CENSUS_VIEW,
        "treebank.read_preorder": CENSUS_VIEW,
        "treebank.tree_texts": CENSUS_VIEW,
    },
}


def reached(path):
    """What a dotted path from ``arbor`` reaches: ``oracle.name``,
    ``oracle.*`` for an oracle module, ``arbor.*`` for the package itself,
    or None for anything else (``arbor.errors``, the compiled kernel)."""
    parts = path.split(".")[1:]
    if not parts:
        return "arbor.*"
    if parts[0] in arbor._HOME:  # a name the package re-exports
        parts[:0] = [arbor._HOME[parts[0]]]
    if parts[0] not in ORACLES:
        return None
    return f"{parts[0]}.{parts[1] if len(parts) > 1 else '*'}"


def imports(tree):
    """(aliases, names) of a module's imports from the package: each local
    name bound to the package or an oracle module, with the dotted path it
    binds, and what each import of a name from an oracle reaches."""
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "arbor":
                    aliases[alias.asname or "arbor"] = alias.name if alias.asname else "arbor"
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:  # relative: within the package
                source = f"arbor.{source}".rstrip(".")
            if source.split(".")[0] != "arbor":
                continue
            for alias in node.names:
                path = source if alias.name == "*" else f"{source}.{alias.name}"
                if alias.name != "*" and (reached(path) or "").endswith(".*"):
                    aliases[alias.asname or alias.name] = path
                else:
                    names.add(reached(path))
    return aliases, names


def borrowed(module):
    """Every ``oracle.name`` that ``src/arbor/<module>.py`` takes from
    another oracle, through any import form or alias; ``oracle.*`` when it
    uses a whole module, so that no name can hide behind ``getattr``."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    aliases, names = imports(tree)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in aliases:
            path = aliases[node.id]
            # climb attribute reads until they reach a name, not a module
            while (reached(path) or "").endswith(".*") and isinstance(
                    parents[node], ast.Attribute):
                node = parents[node]
                path += f".{node.attr}"
            names.add(reached(path))
    return {name for name in names if name and not name.startswith(f"{module}.")}


def test_oracles_borrow_only_the_listed_names():
    # the list is exact: a name no longer used leaves it too
    assert {module: borrowed(module) for module in ALLOWED} == {
        module: set(names) for module, names in ALLOWED.items()}


def test_closed_form_imports_no_oracle():
    aliases, names = imports(ast.parse((SRC / "counting.py").read_text()))
    assert {reached(path) for path in aliases.values()} | names <= {None}
    assert borrowed("counting") == set()
