"""The default backend: the repository's own CDCL core, in this process.

This is a zero-overhead adapter — the compiler-facing hot-path methods
(``new_var``, ``add_clause_trusted``, …) are bound directly to the wrapped
:class:`~repro.smt.sat.SatSolver`'s bound methods, so compiling through the
backend seam costs nothing over the pre-seam code path, and the search
trajectory is byte-for-byte the historical one.
"""
from __future__ import annotations

from typing import Optional

from ..errors import Result
from ..sat import SatSolver

__all__ = ["InProcessBackend"]


class InProcessBackend:
    """Wraps one :class:`SatSolver` (optionally DPLL(T)-coupled) in-process."""

    name = "inprocess"
    supports_push = True  # incremental clause addition reuses learned state

    def __init__(self, theory=None):
        self._theory = theory
        self._sat = SatSolver(theory=theory)
        # direct bindings: the compiler calls these per clause/variable
        self.new_var = self._sat.new_var
        self.add_clause = self._sat.add_clause
        self.add_clause_trusted = self._sat.add_clause_trusted
        self.model_value = self._sat.model_value

    @property
    def sat(self) -> SatSolver:
        """The underlying CDCL core (introspection / tests)."""
        return self._sat

    @property
    def num_vars(self) -> int:
        return self._sat.num_vars

    @property
    def num_clauses(self) -> int:
        return self._sat.num_clauses

    @property
    def stats(self) -> dict:
        return self._sat.stats

    def solve(
        self,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> Result:
        return self._sat.solve(
            max_conflicts=max_conflicts, max_seconds=max_seconds
        )

    def assignment(self) -> list[int]:
        return self._sat._assign[:]

    def int_values(self) -> dict[str, int]:
        theory = self._theory
        if theory is None:
            return {}
        return {name: theory.value(name) for name in theory._var_ids}

    def close(self) -> None:
        pass
