"""Laboratory for two-way DFAs and the one-way liveness language."""

from .matrix import BoolMatrix, add, identity, is_idempotent, multiply, zero
from .owl import (
    OwlString,
    OwlSymbol,
    connectivity,
    is_live,
    nfa_live,
    representative,
)
from .tdfa import Tdfa, build_accept_all, build_broken_solver, build_subset_solver, decide
from .sequence import ConnectivitySequence, build_sequence, verify_sequence

__version__ = "0.1.0"

__all__ = [
    "BoolMatrix",
    "ConnectivitySequence",
    "OwlString",
    "OwlSymbol",
    "Tdfa",
    "add",
    "build_accept_all",
    "build_broken_solver",
    "build_sequence",
    "build_subset_solver",
    "connectivity",
    "decide",
    "identity",
    "is_idempotent",
    "is_live",
    "multiply",
    "nfa_live",
    "representative",
    "verify_sequence",
    "zero",
]
