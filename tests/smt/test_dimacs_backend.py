"""DimacsProcessBackend: subprocess bridge, stub solver, availability.

The stub solver script (``tests/smt/stub_solver.py``) is a real external
process speaking the SAT-competition DIMACS protocol, so these tests
exercise the full bridge — CNF export, process invocation, output parsing,
lazy theory refinement — without any solver installed. The final test
runs against a *real* external solver and **skips** (never silently
passes) when none is on PATH.
"""
import stat
import sys
from pathlib import Path

import pytest

from repro.gallery import deposit_unserializable, fig8a_smallbank_observed
from repro.isolation import IsolationLevel
from repro.predict import IsoPredict, PredictionStrategy
from repro.smt import Bool, Not, OneSidedLt, Or, Result, Solver
from repro.smt.backends import (
    BackendUnavailable,
    DimacsProcessBackend,
    find_external_solver,
)
from repro.smt.backends import dimacs_proc

STUB = str(Path(__file__).parent / "stub_solver.py")


def stub_backend(theory=None, **kwargs):
    return DimacsProcessBackend(
        theory=theory, command=[sys.executable, STUB], **kwargs
    )


class TestStubBridge:
    def test_sat_with_model(self):
        backend = stub_backend()
        for _ in range(2):
            backend.new_var()
        backend.add_clause([1, 2])
        backend.add_clause([-1])
        assert backend.solve() is Result.SAT
        assert backend.model_value(2) is True
        assert backend.model_value(1) is False
        assert backend.stats["external_solves"] == 1

    def test_unsat(self):
        backend = stub_backend()
        backend.new_var()
        backend.add_clause([1])
        backend.add_clause([-1])
        assert backend.solve() is Result.UNSAT

    def test_theory_refinement_loop(self):
        s = Solver(backend=stub_backend)
        s.add(OneSidedLt("x", "y"))
        s.add(OneSidedLt("y", "x"))
        assert s.check() is Result.UNSAT
        # the skeleton alone is satisfiable: reaching UNSAT requires at
        # least one lazily learned theory lemma
        assert s.backend.stats["theory_refinements"] >= 1
        assert s.backend.stats["external_solves"] >= 2

    def test_prediction_verdicts_match_inprocess(self):
        for history in (deposit_unserializable(), fig8a_smallbank_observed()):
            reference = IsoPredict(
                IsolationLevel.CAUSAL, PredictionStrategy.APPROX_STRICT
            ).predict(history)
            bridged = IsoPredict(
                IsolationLevel.CAUSAL,
                PredictionStrategy.APPROX_STRICT,
                solver=stub_backend,
            ).predict(history)
            assert bridged.status is reference.status

    def test_incremental_resubmission(self):
        """Backends without push transparently re-submit on each solve."""
        s = Solver(backend=stub_backend)
        p, q = Bool("p"), Bool("q")
        s.add(Or(p, q))
        assert s.check() is Result.SAT
        s.add(Not(p))
        assert s.check() is Result.SAT
        assert s.model().bool_value("q") is True
        s.add(Not(q))
        assert s.check() is Result.UNSAT
        assert not s.backend.supports_push
        assert s.backend.stats["external_solves"] == 3


class TestMinisatStyle:
    def test_result_file_convention(self, tmp_path):
        """A minisat-style binary (result file, SAT/UNSAT header) parses."""
        script = tmp_path / "fake-minisat"
        script.write_text(
            "#!/bin/sh\n"
            # ignore the input; claim SAT with a fixed model
            'echo "SAT" > "$2"\n'
            'echo "1 -2 0" >> "$2"\n'
            "exit 10\n"
        )
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        backend = DimacsProcessBackend(binary=str(script))
        assert backend._style == "file"
        for _ in range(2):
            backend.new_var()
        backend.add_clause([1, -2])
        assert backend.solve() is Result.SAT
        assert backend.model_value(1) is True
        assert backend.model_value(2) is False


class TestAvailability:
    def test_unknown_binary_raises(self):
        with pytest.raises(BackendUnavailable, match="not found on PATH"):
            DimacsProcessBackend(binary="no-such-solver-xyz")

    def test_autodetect_none_raises_with_names(self, monkeypatch):
        monkeypatch.setattr(
            dimacs_proc.shutil, "which", lambda name: None
        )
        with pytest.raises(BackendUnavailable) as excinfo:
            DimacsProcessBackend()
        message = str(excinfo.value)
        for name in ("minisat", "cryptominisat", "kissat"):
            assert name in message

    def test_solver_facade_surfaces_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            dimacs_proc.shutil, "which", lambda name: None
        )
        with pytest.raises(BackendUnavailable):
            Solver(backend="dimacs")


@pytest.mark.skipif(
    find_external_solver() is None,
    reason="no external DIMACS solver (minisat/cryptominisat/kissat) on "
    "PATH — install one to exercise the real subprocess bridge",
)
class TestRealExternalSolver:
    """Runs only where a real solver is installed (CI's minisat leg)."""

    def test_real_solver_agrees_with_inprocess(self):
        history = deposit_unserializable()
        reference = IsoPredict(
            IsolationLevel.CAUSAL, PredictionStrategy.APPROX_STRICT
        ).predict(history)
        external = IsoPredict(
            IsolationLevel.CAUSAL,
            PredictionStrategy.APPROX_STRICT,
            solver="dimacs",
        ).predict(history)
        assert external.status is reference.status

    def test_real_solver_basic_verdicts(self):
        s = Solver(backend="dimacs")
        p = Bool("p")
        s.add(Or(p, Not(p)))
        assert s.check() is Result.SAT
        s.add(p)
        s.add(Not(p))
        assert s.check() is Result.UNSAT
