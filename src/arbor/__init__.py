"""Exact enumeration of t-ary trees and ordered forests refined by edge type.

Three independent computations of every count: closed-form products of
binomials (``counting``), brute-force enumeration (``treebank``), and
generating-series extraction (``series``); plus the lattice-path view
(``paths``) and a command-line front end (``cli``).
"""

from arbor.counting import (
    EdgeComposition,
    binomial,
    compositions,
    count_forests,
    count_trees,
    marginal_count,
    total_forests,
    total_trees,
)
from arbor.errors import BudgetExceededError, ConstraintError, MalformedPathError
from arbor.paths import (
    LatticePath,
    Step,
    path_to_tree,
    residue_distribution_probe,
    residue_stats,
    tree_to_path,
)
from arbor.series import (
    MultiSeries,
    lagrange_extract,
    lagrange_extract_forest,
    lagrange_table,
    lagrange_table_forest,
    solve_G,
)
from arbor.treebank import (
    HAVE_SPEEDUPS,
    Forest,
    TAryTree,
    census,
    edge_profile,
    enumerate_forests,
    enumerate_trees,
    forest_census,
    forest_profile,
    parse_tree,
    serialize_tree,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ConstraintError",
    "EdgeComposition",
    "Forest",
    "HAVE_SPEEDUPS",
    "LatticePath",
    "MalformedPathError",
    "MultiSeries",
    "Step",
    "TAryTree",
    "binomial",
    "census",
    "compositions",
    "count_forests",
    "count_trees",
    "edge_profile",
    "enumerate_forests",
    "enumerate_trees",
    "forest_census",
    "forest_profile",
    "lagrange_extract",
    "lagrange_extract_forest",
    "lagrange_table",
    "lagrange_table_forest",
    "marginal_count",
    "parse_tree",
    "path_to_tree",
    "residue_distribution_probe",
    "residue_stats",
    "serialize_tree",
    "solve_G",
    "total_forests",
    "total_trees",
    "tree_to_path",
]
