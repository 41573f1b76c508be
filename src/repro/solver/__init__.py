"""Pure-constraint decision procedure (the offline stand-in for Z3)."""

from .core import FM_ATOM_BUDGET, GLOBAL_STATS, SolverStats, check_sat
from .partition import canonical_key, split_components, syntactic_unsat
from .terms import (
    NULL,
    Atom,
    LinAtom,
    LinExpr,
    RefAtom,
    Var,
    eq,
    le,
    lt,
    ne,
    ref_eq,
    ref_ne,
)
from .unionfind import UnionFind

__all__ = [
    "FM_ATOM_BUDGET",
    "GLOBAL_STATS",
    "SolverStats",
    "check_sat",
    "canonical_key",
    "split_components",
    "syntactic_unsat",
    "NULL",
    "Atom",
    "LinAtom",
    "LinExpr",
    "RefAtom",
    "Var",
    "eq",
    "le",
    "lt",
    "ne",
    "ref_eq",
    "ref_ne",
    "UnionFind",
]
