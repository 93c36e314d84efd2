"""Exact enumeration of t-ary trees and ordered forests refined by edge type.

Three independent computations of every count: closed-form products of
binomials (``counting``), brute-force enumeration (``treebank``), and
generating-series extraction (``series``); plus the lattice-path view
(``paths``) and a command-line front end (``cli``).

The names below are loaded from their module on first use, so a command
loads only the layers it runs: ``table`` never imports the census kernel.
"""
from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "counting": ("EdgeComposition", "binomial", "compositions", "count_forests",
                 "count_trees", "marginal_count", "total_forests", "total_trees"),
    "errors": ("BudgetExceededError", "ConstraintError", "MalformedPathError"),
    "paths": ("LatticePath", "Step", "path_to_tree", "residue_distribution_probe",
              "residue_stats", "tree_to_path"),
    "series": ("MultiSeries", "lagrange_extract", "lagrange_extract_forest",
               "lagrange_table", "solve_G"),
    "treebank": ("HAVE_SPEEDUPS", "Forest", "TAryTree", "census", "edge_profile",
                 "enumerate_forests", "enumerate_trees", "forest_census",
                 "forest_profile", "parse_tree", "serialize_tree"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOMES:  # a layer itself, as ``arbor.treebank``
        return import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES) | set(_HOME))
