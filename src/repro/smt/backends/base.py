"""The solver-backend seam: protocol, spec parsing, and shared plumbing.

A *backend* is what actually decides the clause set the Tseitin compiler
emits. :class:`repro.smt.solver.Solver` compiles expressions exactly as
before, but every compiled clause now lands in a
:class:`SolverBackend` — the in-process CDCL core by default, or an
external DIMACS solver subprocess.

The protocol is deliberately the surface the compiler and the model layer
already consumed from :class:`~repro.smt.sat.SatSolver`:

* **problem construction** — ``new_var`` / ``add_clause`` /
  ``add_clause_trusted`` (the compiler's bulk path);
* **deciding** — ``solve(max_conflicts, max_seconds)``;
* **models** — ``assignment()`` (a flat 0/1/-1 array indexed by variable)
  plus ``int_values()`` (the difference-logic valuation), which is all
  :class:`repro.smt.solver.Model` needs;
* **incrementality** — clauses may always be added between ``solve``
  calls. ``supports_push`` says whether doing so *reuses* solver state
  (learned clauses, trail) or whether each solve transparently re-submits
  the accumulated clause set from scratch. Callers never need to branch
  on it for correctness — only for cost models.

Backends are selected by *spec*: a string like ``"inprocess"``,
``"dimacs"`` or ``"dimacs:minisat"``, a parsed :class:`BackendSpec`, or a
callable ``theory -> backend`` factory (used by tests to inject custom
configurations such as a stub external solver).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol, runtime_checkable

from ..errors import Result, SmtError

__all__ = [
    "BackendSpec",
    "BackendUnavailable",
    "KNOWN_BACKENDS",
    "SolverBackend",
]

#: Backend kinds a spec string may name.
KNOWN_BACKENDS = ("inprocess", "dimacs")


class BackendUnavailable(SmtError):
    """The requested backend cannot run in this environment.

    Raised eagerly at construction (e.g. no external DIMACS solver binary
    on ``PATH``) so callers — the CLI in particular — can report a clean
    actionable message instead of failing mid-solve.
    """


@runtime_checkable
class SolverBackend(Protocol):
    """What the compiler and model layers require from a solver backend."""

    name: str
    supports_push: bool
    stats: dict

    # -- problem construction (the CnfCompiler surface) -----------------
    def new_var(self) -> int:
        """Allocate a fresh variable, returning its (positive) index."""

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause of signed external literals; False when trivially unsat."""

    def add_clause_trusted(self, lits: list[int]) -> bool:
        """``add_clause`` for callers guaranteeing clean input."""

    @property
    def num_vars(self) -> int: ...

    @property
    def num_clauses(self) -> int: ...

    # -- deciding --------------------------------------------------------
    def solve(
        self,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> Result:
        """Decide the accumulated clauses within optional budgets."""

    # -- models ----------------------------------------------------------
    def assignment(self) -> list[int]:
        """Post-SAT snapshot: per-variable 0/1 values, -1 unassigned.

        Index 0 is unused (variables are numbered from 1). The returned
        list is a fresh copy the caller may keep.
        """

    def int_values(self) -> dict[str, int]:
        """Post-SAT difference-logic valuation, by integer-variable name."""

    def model_value(self, var: int) -> Optional[bool]:
        """Value of ``var`` in the most recent satisfying assignment."""

    def close(self) -> None:
        """Release external resources (processes, temp files)."""


@dataclass(frozen=True)
class BackendSpec:
    """A parsed, hashable backend selection.

    ``options`` is a tuple of sorted ``(key, value)`` pairs so specs can
    key caches (the analysis session's per-configuration solver LRU) and
    round-trip through campaign JSONL unchanged.
    """

    kind: str = "inprocess"
    options: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in KNOWN_BACKENDS:
            raise ValueError(
                f"unknown solver backend {self.kind!r}; "
                f"expected one of {KNOWN_BACKENDS}"
            )

    def option(self, key: str, default=None):
        for k, v in self.options:
            if k == key:
                return v
        return default

    @classmethod
    def parse(cls, text: "str | BackendSpec") -> "BackendSpec":
        """Parse a spec string.

        Grammar::

            inprocess
            dimacs[:<binary-name-or-path>]
        """
        if isinstance(text, BackendSpec):
            return text
        parts = [p.strip() for p in str(text).strip().split(":")]
        kind = parts[0].lower()
        rest = parts[1:]
        if kind == "inprocess":
            if rest:
                raise ValueError("inprocess takes no options")
            return cls("inprocess")
        if kind == "dimacs":
            if len(rest) > 1:
                raise ValueError(
                    f"bad dimacs spec {text!r}; expected dimacs[:<binary>]"
                )
            options = (("binary", rest[0]),) if rest else ()
            return cls("dimacs", options)
        raise ValueError(
            f"unknown solver backend {kind!r}; "
            f"expected one of {KNOWN_BACKENDS}"
        )

    def __str__(self) -> str:
        binary = self.option("binary")
        return f"{self.kind}:{binary}" if binary else self.kind
