"""Pluggable solver backends for the SMT substrate.

See :mod:`repro.smt.backends.base` for the :class:`SolverBackend`
protocol and spec grammar. :func:`make_backend` is the one constructor
the :class:`repro.smt.solver.Solver` facade calls::

    Solver()                                  # in-process CDCL (default)
    Solver(backend="dimacs")                  # auto-detected external solver
    Solver(backend="dimacs:minisat")
    Solver(backend=lambda theory: ...)        # custom factory (tests)
"""
from __future__ import annotations

from typing import Callable, Union

from .base import (
    BackendSpec,
    BackendUnavailable,
    KNOWN_BACKENDS,
    SolverBackend,
)
from .dimacs_proc import DimacsProcessBackend, find_external_solver
from .inprocess import InProcessBackend

__all__ = [
    "BackendSpec",
    "BackendUnavailable",
    "DimacsProcessBackend",
    "InProcessBackend",
    "KNOWN_BACKENDS",
    "SolverBackend",
    "find_external_solver",
    "make_backend",
]

#: Anything `make_backend` accepts as a selection.
BackendLike = Union[str, BackendSpec, Callable, None]


def make_backend(spec: BackendLike, theory=None) -> SolverBackend:
    """Construct a fresh backend from a spec (string / BackendSpec / factory).

    Backends are stateful single-solver objects: every :class:`Solver`
    gets its own instance, which is why selections travel as specs (or
    factories) rather than instances through the analysis layers.
    """
    if spec is None:
        return InProcessBackend(theory=theory)
    if callable(spec) and not isinstance(spec, (str, BackendSpec)):
        return spec(theory)
    parsed = BackendSpec.parse(spec)
    if parsed.kind == "dimacs":
        return DimacsProcessBackend(
            theory=theory, binary=parsed.option("binary")
        )
    return InProcessBackend(theory=theory)
