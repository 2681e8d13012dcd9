"""Public solver façade: assert expressions, check satisfiability, get models.

This is the z3py stand-in used throughout the repository::

    from repro.smt import Solver, Bool, Implies, OneSidedLt, Result

    s = Solver()
    p = Bool("p")
    s.add(Implies(p, OneSidedLt("x", "y")))
    s.add(p)
    assert s.check() is Result.SAT
    assert s.model().int_value("x") < s.model().int_value("y")
"""
from __future__ import annotations

from typing import Optional

from ..obs import span as obs_span
from .ast import Expr, EnumVar
from .cnf import CnfCompiler
from .difference import DifferenceTheory
from .errors import ModelUnavailable, Result
from .sat import SatSolver

__all__ = ["Solver", "Model"]


class Model:
    """A satisfying assignment snapshot.

    Captured after a SAT answer, because the underlying SAT core reuses its
    trail for later queries — but captured *lazily*: the constructor takes
    one C-level copy of the SAT assignment array plus the (small) theory
    valuation, and every Boolean / enum query evaluates on demand against
    that copy through the compiler's registries. Nothing walks the full
    ``_lit_cache`` up front, which used to dominate model-extraction time
    during blocking-clause enumeration.

    The compiler registries are append-only and shared with later queries
    on the same solver; variables allocated *after* this snapshot index
    past the copied assignment and report the same "never compiled"
    defaults the eager snapshot gave.
    """

    def __init__(self, solver: "Solver"):
        self._compiler = solver._compiler
        self._assign = solver._sat._assign[:]  # one flat int copy
        self._known = len(self._assign)  # vars allocated at snapshot time
        theory = solver._theory
        self._ints = {name: theory.value(name) for name in theory._var_ids}

    def _var_value(self, var: int) -> Optional[bool]:
        """Snapshot value of a SAT variable; None if unknown here."""
        if var >= self._known:
            return None
        v = self._assign[var]
        if v < 0:
            return None
        return bool(v)

    def bool_value(self, name: str, default: bool = False) -> bool:
        var = self._compiler._bool_vars.get(name)
        if var is None or var >= self._known:
            return default  # name unknown when this model was captured
        # unassigned cannot happen after SAT; False mirrors the eager
        # snapshot's bool(None) in that degenerate case
        return self._assign[var] == 1

    def enum_value(self, enum_var: EnumVar) -> object:
        table = self._compiler._enum_vars.get(enum_var)
        if table is None:
            return enum_var.candidates[0]
        post_snapshot = True
        for idx, sat_var in table.items():
            value = self._var_value(sat_var)
            if value:
                return enum_var.sort.values[idx]
            if sat_var < self._known:
                post_snapshot = False
        if post_snapshot:
            # registered after this model was captured: unconstrained here
            return enum_var.candidates[0]
        raise AssertionError(f"no value assigned for {enum_var!r}")

    def int_value(self, name: str) -> int:
        return self._ints.get(name, 0)

    def _compiled_value(self, e: Expr) -> Optional[bool]:
        lit = self._compiler._lit_cache.get(e)
        if lit is None:
            return None
        value = self._var_value(abs(lit))
        if value is None:
            return None
        return value if lit > 0 else not value

    def evaluate(self, e: Expr) -> bool:
        """Semantically evaluate ``e`` bottom-up under this model.

        Boolean structure is recomputed from variable values, not read
        from compiled gates, which makes this the reference oracle in the
        test suite. A compiled order atom reads its SAT literal: assigned
        false it imposes no order, so the potentials may order its
        variables either way. An order atom that was never compiled
        reads the potentials.
        """
        kind = e.kind
        if kind == "true":
            return True
        if kind == "false":
            return False
        if kind == "var":
            return self.bool_value(e.args[0])
        if kind == "not":
            return not self.evaluate(e.args[0])
        if kind == "and":
            return all(self.evaluate(a) for a in e.args)
        if kind == "or":
            return any(self.evaluate(a) for a in e.args)
        if kind == "enum_eq":
            enum_var, idx = e.args
            return self.enum_value(enum_var) == enum_var.sort.values[idx]
        if kind == "lt":
            value = self._compiled_value(e)
            if value is not None:
                return value
            x, y = e.args
            return self.int_value(x) < self.int_value(y)
        raise AssertionError(f"unknown expression kind {kind!r}")


class Solver:
    """An incremental SMT solver for the Bool + Enum + one-sided order fragment.

    One in-process CDCL(T) core (:class:`~repro.smt.sat.SatSolver` coupled
    to a :class:`~repro.smt.difference.DifferenceTheory`) decides every
    query. Clauses added between ``check`` calls extend the live core, so
    learned clauses and theory state carry over from one query to the next.
    """

    def __init__(self) -> None:
        self._theory = DifferenceTheory()
        self._sat = SatSolver(theory=self._theory)
        self._compiler = CnfCompiler(self._sat, self._theory)
        self._model: Optional[Model] = None
        self._last_result: Optional[Result] = None
        self.check_seconds = 0.0

    # ------------------------------------------------------------------
    def add(self, *exprs: Expr) -> None:
        """Assert one or more Boolean expressions."""
        self._model = None
        for e in exprs:
            self._compiler.assert_expr(e)

    def check(
        self,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> Result:
        """Decide the asserted constraints; captures a model when SAT."""
        with obs_span("stage.solve") as solve_span:
            result = self._sat.solve(
                max_conflicts=max_conflicts, max_seconds=max_seconds
            )
            solve_span.set(result=result.value)
        self.check_seconds += solve_span.duration
        self._last_result = result
        if result is Result.SAT:
            self._model = Model(self)
        else:
            self._model = None
        return result

    def model(self) -> Model:
        if self._model is None:
            raise ModelUnavailable(
                f"no model available (last result: {self._last_result})"
            )
        return self._model

    # ------------------------------------------------------------------
    # Introspection used by benchmarks and tests
    # ------------------------------------------------------------------
    @property
    def num_literals(self) -> int:
        """Total literal instances emitted (paper's ``# Literals`` metric)."""
        return self._compiler.num_literals

    @property
    def num_clauses(self) -> int:
        return self._sat.num_clauses

    @property
    def num_vars(self) -> int:
        return self._sat.num_vars

    @property
    def stats(self) -> dict:
        merged = dict(self._sat.stats)
        merged.update({f"dl_{k}": v for k, v in self._theory.stats.items()})
        return merged
