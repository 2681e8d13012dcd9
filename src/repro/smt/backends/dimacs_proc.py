"""Bridge to any external DIMACS SAT solver via subprocess.

DIMACS CNF is the interchange boundary: every ``solve`` writes the
accumulated clause set to a temp file, invokes the external solver, and
parses the standard competition output (``s SATISFIABLE`` / ``v`` model
lines) or MiniSat's result-file convention. Known solvers are
auto-detected on ``PATH`` (:data:`KNOWN_SOLVERS`); when none is
installed construction raises
:class:`~repro.smt.backends.base.BackendUnavailable` with an actionable
message rather than failing mid-analysis.

Difference-logic atoms have no DIMACS counterpart, so the Boolean skeleton
alone is only a *relaxation*. The backend restores full DPLL(T) semantics
with lazy theory refinement: each satisfying skeleton assignment is
checked against the in-process :class:`~repro.smt.difference.DifferenceTheory`;
a theory conflict becomes a learned lemma clause (the negated explanation)
and the external solver re-runs. UNSAT answers need no refinement — the
skeleton being unsatisfiable already implies the full problem is.
"""
from __future__ import annotations

import shutil
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Iterable, Optional, Sequence

from ...faults import RetryPolicy, count_retry, fault_point, is_transient_fault
from ...obs import span as obs_span
from ..errors import Result, SmtError
from .base import BackendUnavailable

__all__ = ["DimacsProcessBackend", "KNOWN_SOLVERS", "find_external_solver"]

#: External solvers probed on PATH, in preference order, with their output
#: convention: "stdout" = competition-style ``s``/``v`` lines on stdout,
#: "file" = MiniSat's ``solver input.cnf result.out`` result file.
KNOWN_SOLVERS = (
    ("kissat", "stdout"),
    ("cryptominisat5", "stdout"),
    ("cryptominisat", "stdout"),
    ("minisat", "file"),
)


def find_external_solver() -> Optional[tuple[str, str, str]]:
    """First known solver on PATH, as ``(name, resolved_path, style)``."""
    for name, style in KNOWN_SOLVERS:
        path = shutil.which(name)
        if path:
            return name, path, style
    return None


def _style_for(name: str) -> str:
    base = Path(name).name.lower()
    if "minisat" in base and "crypto" not in base:
        return "file"
    return "stdout"


class DimacsProcessBackend:
    """Decide the clause set with an external DIMACS solver subprocess.

    The clause set is kept as plain lists and re-submitted whole on every
    ``solve``, which is also what makes incremental blocking-clause
    enumeration work without a push/pop interface (``supports_push`` is
    False: correctness is unaffected, each solve just starts cold).

    Selection, most specific wins:

    * ``command=[...]`` — run exactly this argv with the CNF path appended
      (competition-style output expected). This is how the test suite
      injects its stub solver script, so CI needs no solver installed.
    * ``binary="minisat"`` — a known solver name or an explicit path.
    * neither — auto-detect via :func:`find_external_solver`.

    ``max_conflicts`` budgets are not forwarded (no portable DIMACS
    spelling); wall-clock budgets kill the subprocess and report UNKNOWN.
    """

    supports_push = False

    def __init__(
        self,
        theory=None,
        command: Optional[Sequence[str]] = None,
        binary: Optional[str] = None,
        max_refinements: int = 10_000,
    ):
        self._theory = theory
        self._nvars = 0
        self._clauses: list[list[int]] = []
        self._ok = True
        self._assignment: Optional[list[int]] = None
        self._max_refinements = max_refinements
        self._lemmas: list[list[int]] = []  # persistent theory lemmas
        self._asserted = 0  # theory assertions currently held by us
        if command is not None:
            self._command = [str(c) for c in command]
            self.name = f"dimacs:{Path(self._command[0]).name}"
            self._style = "stdout"
        elif binary is not None:
            path = shutil.which(binary) or binary
            if not Path(path).exists():
                raise BackendUnavailable(
                    f"external DIMACS solver {binary!r} not found on PATH"
                )
            self._command = [path]
            self.name = f"dimacs:{Path(binary).name}"
            self._style = _style_for(binary)
        else:
            found = find_external_solver()
            if found is None:
                names = ", ".join(name for name, _ in KNOWN_SOLVERS)
                raise BackendUnavailable(
                    "no external DIMACS solver found on PATH "
                    f"(looked for: {names}); install one or use "
                    "--solver inprocess"
                )
            name, path, style = found
            self._command = [path]
            self.name = f"dimacs:{name}"
            self._style = style
        self.stats = {
            "external_solves": 0,
            "theory_refinements": 0,
            "subprocess_retries": 0,
        }

    # -- problem construction -------------------------------------------
    def new_var(self) -> int:
        self._nvars += 1
        return self._nvars

    def add_clause(self, lits: Iterable[int]) -> bool:
        self._assignment = None
        nvars = self._nvars
        seen: set[int] = set()
        clause: list[int] = []
        for lit in lits:
            if lit == 0 or lit > nvars or lit < -nvars:
                raise ValueError(f"literal {lit} out of range")
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            clause.append(lit)
        if not clause:
            self._ok = False
            return False
        self._clauses.append(clause)
        return True

    def add_clause_trusted(self, lits: list[int]) -> bool:
        self._assignment = None
        if not lits:
            self._ok = False
            return False
        self._clauses.append(list(lits))
        return True

    @property
    def num_vars(self) -> int:
        return self._nvars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    # -- models ----------------------------------------------------------
    def assignment(self) -> list[int]:
        if self._assignment is None:
            raise SmtError(f"{self.name}: no satisfying assignment available")
        return list(self._assignment)

    def model_value(self, var: int) -> Optional[bool]:
        if self._assignment is None or var >= len(self._assignment):
            return None
        value = self._assignment[var]
        if value < 0:
            return None
        return bool(value)

    def int_values(self) -> dict[str, int]:
        theory = self._theory
        if theory is None:
            return {}
        return {name: theory.value(name) for name in theory._var_ids}

    # ------------------------------------------------------------------
    def _release_theory(self) -> None:
        if self._theory is not None and self._asserted:
            self._theory.pop_to(0)
            self._asserted = 0

    def solve(
        self,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> Result:
        self._assignment = None
        self._release_theory()
        if not self._ok:
            return Result.UNSAT
        deadline = (
            time.monotonic() + max_seconds if max_seconds is not None else None
        )
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return Result.UNKNOWN
            result, assign = self._run_external(remaining)
            if result is not Result.SAT:
                return result
            conflict = self._check_theory(assign)
            if conflict is None:
                self._assignment = assign
                return Result.SAT
            # negate the explanation: at least one of these theory literals
            # must flip. Lemmas are genuine consequences of the formula's
            # atoms, so they persist across solve calls.
            self.stats["theory_refinements"] += 1
            self._lemmas.append([-lit for lit in conflict])
            if self.stats["theory_refinements"] >= self._max_refinements:
                return Result.UNKNOWN

    # ------------------------------------------------------------------
    def _check_theory(self, assign: list[int]) -> Optional[list[int]]:
        """Assert the model's true theory atoms; return a conflict or None.

        A false atom asserts nothing, so it is not handed over. On success
        the assertions are *kept* so ``int_values`` can read the repaired
        potential function; the next ``solve`` releases them.
        """
        theory = self._theory
        if theory is None or not theory._atoms:
            return None
        for sat_var in sorted(theory._atoms):
            if sat_var >= len(assign) or assign[sat_var] != 1:
                continue
            self._asserted += 1
            conflict = theory.assert_literal(sat_var)
            if conflict is not None:
                theory.pop_to(0)
                self._asserted = 0
                return conflict
        return None

    # ------------------------------------------------------------------
    def _run_external(
        self, timeout: Optional[float]
    ) -> tuple[Result, Optional[list[int]]]:
        self.stats["external_solves"] += 1
        clauses = self._clauses + self._lemmas
        lines = [f"p cnf {self._nvars} {len(clauses)}"]
        lines.extend(
            " ".join(str(l) for l in clause) + " 0" for clause in clauses
        )
        text = "\n".join(lines) + "\n"
        with tempfile.TemporaryDirectory(prefix="isopredict-dimacs-") as tmp:
            cnf = Path(tmp) / "problem.cnf"
            cnf.write_text(text)
            cmd = list(self._command) + [str(cnf)]
            out_path = None
            if self._style == "file":
                out_path = Path(tmp) / "result.out"
                cmd.append(str(out_path))
            policy = RetryPolicy.from_env()
            attempt = 0
            while True:
                try:
                    fault_point("solver.dimacs.exec", solver=self.name)
                    with obs_span(
                        "solver.dimacs.exec",
                        solver=self.name,
                        attempt=attempt,
                        clauses=len(clauses),
                    ):
                        proc = subprocess.run(
                            cmd,
                            capture_output=True,
                            text=True,
                            timeout=timeout,
                        )
                    break
                except subprocess.TimeoutExpired:
                    # the child is already killed; a timeout can be
                    # machine load rather than a hard instance, so spend
                    # the retry budget before reporting UNKNOWN
                    if attempt >= policy.max_retries:
                        return Result.UNKNOWN, None
                except FileNotFoundError as exc:
                    raise BackendUnavailable(
                        f"external solver vanished: {self._command[0]!r}"
                    ) from exc
                except OSError as exc:
                    if (
                        attempt >= policy.max_retries
                        or not is_transient_fault(exc)
                    ):
                        raise
                self.stats["subprocess_retries"] += 1
                count_retry(f"solver.dimacs.exec|{self.name}")
                time.sleep(policy.delay(attempt, key=self.name))
                attempt += 1
            if out_path is not None:
                if not out_path.exists():
                    raise SmtError(
                        f"{self.name}: no result file "
                        f"(exit {proc.returncode}): {proc.stderr[-500:]}"
                    )
                return self._parse_minisat(out_path.read_text())
            return self._parse_stdout(proc)

    def _parse_stdout(
        self, proc: subprocess.CompletedProcess
    ) -> tuple[Result, Optional[list[int]]]:
        status: Optional[Result] = None
        lits: list[int] = []
        for line in proc.stdout.splitlines():
            line = line.strip()
            if line.startswith("s "):
                verdict = line[2:].strip().upper()
                if verdict == "SATISFIABLE":
                    status = Result.SAT
                elif verdict == "UNSATISFIABLE":
                    status = Result.UNSAT
                else:
                    status = Result.UNKNOWN
            elif line.startswith("v "):
                lits.extend(int(tok) for tok in line[2:].split())
        if status is None:
            # fall back on competition exit codes (10 SAT / 20 UNSAT)
            if proc.returncode == 10:
                status = Result.SAT
            elif proc.returncode == 20:
                status = Result.UNSAT
            else:
                raise SmtError(
                    f"{self.name}: unparseable output "
                    f"(exit {proc.returncode}): "
                    f"{(proc.stdout or proc.stderr)[-500:]}"
                )
        if status is not Result.SAT:
            return status, None
        return Result.SAT, self._assignment_from(lits)

    def _parse_minisat(
        self, text: str
    ) -> tuple[Result, Optional[list[int]]]:
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if not lines:
            raise SmtError(f"{self.name}: empty result file")
        verdict = lines[0].upper()
        if verdict.startswith("UNSAT"):
            return Result.UNSAT, None
        if not verdict.startswith("SAT"):
            return Result.UNKNOWN, None
        lits = [
            int(tok) for line in lines[1:] for tok in line.split()
        ]
        return Result.SAT, self._assignment_from(lits)

    def _assignment_from(self, lits: list[int]) -> list[int]:
        assign = [-1] * (self._nvars + 1)
        for lit in lits:
            if lit == 0:
                continue
            var = abs(lit)
            if var <= self._nvars:
                assign[var] = 1 if lit > 0 else 0
        return assign

    def close(self) -> None:
        self._release_theory()
