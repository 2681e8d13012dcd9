"""Result kinds and exceptions for the SMT substrate."""
from __future__ import annotations

import enum


class Result(enum.Enum):
    """Outcome of a solver query, mirroring SMT-LIB check-sat answers."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:  # pragma: no cover - convenience only
        raise TypeError(
            "Result is tri-valued; compare against Result.SAT explicitly"
        )


class SmtError(Exception):
    """Base class for all solver errors."""


class SortError(SmtError):
    """An expression was built from operands of incompatible sorts."""


class ModelUnavailable(SmtError):
    """A model was requested but the last query did not return SAT."""
