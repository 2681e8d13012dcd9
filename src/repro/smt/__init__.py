"""Pure-Python SMT substrate (z3py stand-in).

Decides exactly the fragment IsoPredict's encodings assert: Boolean
structure over Boolean variables, finite-domain (enum) equalities, and
one-sided order atoms ``x < y`` over integer commit-order positions,
decided by a difference-logic theory. See ``docs/architecture.md`` for how
the layers fit together.
"""
from .ast import (
    And,
    Bool,
    EnumSort,
    EnumVar,
    Expr,
    FALSE,
    Implies,
    Not,
    OneSidedLt,
    Or,
    TRUE,
)
from .errors import ModelUnavailable, Result, SmtError, SortError
from .sat import SatSolver, luby
from .difference import DifferenceTheory
from .solver import Model, Solver

__all__ = [
    "And",
    "Bool",
    "DifferenceTheory",
    "EnumSort",
    "EnumVar",
    "Expr",
    "FALSE",
    "Implies",
    "Model",
    "ModelUnavailable",
    "Not",
    "OneSidedLt",
    "Or",
    "Result",
    "SatSolver",
    "SmtError",
    "Solver",
    "SortError",
    "TRUE",
    "luby",
]
