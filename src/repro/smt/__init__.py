"""Pure-Python SMT substrate (z3py stand-in).

Decides the fragment IsoPredict's encodings live in: Boolean structure over
Boolean variables, finite-domain (enum) equalities, and integer
difference-logic atoms. See DESIGN.md §2 for the substitution rationale.
"""
from .ast import (
    And,
    AtMostOne,
    Bool,
    BoolVal,
    Distinct,
    EnumSort,
    EnumVar,
    ExactlyOne,
    Expr,
    FALSE,
    Iff,
    Implies,
    Int,
    IntTerm,
    Not,
    OneSidedLt,
    Or,
    TRUE,
)
from .errors import BudgetExceeded, ModelUnavailable, Result, SmtError, SortError
from .sat import SatSolver, luby
from .difference import DifferenceTheory
from .solver import Model, Solver
from .backends import (
    BackendSpec,
    BackendUnavailable,
    DimacsProcessBackend,
    InProcessBackend,
    SolverBackend,
    make_backend,
)

__all__ = [
    "And",
    "AtMostOne",
    "BackendSpec",
    "BackendUnavailable",
    "Bool",
    "BoolVal",
    "BudgetExceeded",
    "DimacsProcessBackend",
    "InProcessBackend",
    "SolverBackend",
    "make_backend",
    "DifferenceTheory",
    "Distinct",
    "EnumSort",
    "EnumVar",
    "ExactlyOne",
    "Expr",
    "FALSE",
    "Iff",
    "Implies",
    "Int",
    "IntTerm",
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
