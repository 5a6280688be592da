"""Exact solver for robust recoverable spanning trees and matroid bases.

Given a connected graph (or matroid) where every element carries a
first-stage cost C and a second-stage cost interval [c, c+d], find a pair
of spanning trees (bases) X and Y sharing enough elements — at least
(size − k) for a recovery budget k — minimizing C(X) + (c+d)(Y).

The solver optimizes one exact LP with integer data over both stage
polytopes coupled by an overlap budget and reads both trees off its
optimal vertex, which is 0/1 because the relaxation is a face of a
matroid intersection polytope.  With no overlap owed, each tree is
completed greedily instead.  Every arithmetic step is exact, and the
optimum always equals the LP bound.
"""

from .errors import (
    InfeasibleModel,
    InputError,
    InternalError,
    ParseError,
    RRSTError,
    TooLarge,
    ValidationError,
)
from .gen import builtin_small_suite, connected_graphs_up_to_iso, generate_instance
from .instance import (
    CostColumns,
    Instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    loads_instance,
    serialize_instance,
)
from .matroids import GraphicMatroid, Matroid, PartitionMatroid, UniformMatroid
from .multigraph import MultiGraph
from .oracle import BruteResult, brute_force
from .rational import Rat, parse_exact, rat, rat_str
from .solver import Solution, serialize_solution, solution_to_dict, solve, verify_solution

# the benchmark's names for the one reader, solve and verify, kept until
# its next revision
loads_matroid_instance = loads_instance
solve_rrst = solve_rrmb = solve
verify_tree_solution = verify_basis_solution = verify_solution

__all__ = [
    "RRSTError",
    "InputError",
    "ParseError",
    "ValidationError",
    "TooLarge",
    "InternalError",
    "InfeasibleModel",
    "CostColumns",
    "Instance",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "loads_instance",
    "serialize_instance",
    "Matroid",
    "GraphicMatroid",
    "UniformMatroid",
    "PartitionMatroid",
    "MultiGraph",
    "BruteResult",
    "brute_force",
    "Rat",
    "rat",
    "rat_str",
    "parse_exact",
    "Solution",
    "solve",
    "solution_to_dict",
    "serialize_solution",
    "verify_solution",
    "generate_instance",
    "builtin_small_suite",
    "connected_graphs_up_to_iso",
    "__version__",
]

__version__ = "0.1.0"
