"""Solver-layer faults: subprocess retries and graceful degradation.

``BackendUnavailable`` mid-run (the solver binary vanished, the external
process can no longer start) must not change any verdict: the clause
store is the complete solver state, so the facade replays it into the
in-process core and the query re-runs — counted, never silent.
"""
import sys
from pathlib import Path

import pytest

from repro.faults import (
    fault_counters,
    install_plan,
    reset_fault_state,
)
from repro.faults.retry import MAX_RETRIES_ENV
from repro.gallery import deposit_unserializable
from repro.isolation import IsolationLevel
from repro.predict import IsoPredict, PredictionStrategy
from repro.smt import Bool, Not, OneSidedLt, Or, Result, Solver
from repro.smt.backends import DimacsProcessBackend, InProcessBackend

STUB = str(Path(__file__).parent.parent / "smt" / "stub_solver.py")


def stub_backend(theory=None, **kwargs):
    return DimacsProcessBackend(
        theory=theory, command=[sys.executable, STUB], **kwargs
    )


class TestSubprocessRetries:
    def test_transient_exec_fault_is_retried_then_solves(
        self, fast_retries
    ):
        reset_fault_state()
        install_plan("solver.dimacs.exec:io@0*2")
        backend = stub_backend()
        for _ in range(2):
            backend.new_var()
        backend.add_clause([1, 2])
        backend.add_clause([-1])
        assert backend.solve() is Result.SAT
        assert backend.model_value(2) is True
        assert backend.stats["subprocess_retries"] == 2
        counters = fault_counters()
        assert counters["injected"] == {"solver.dimacs.exec:io": 2}
        assert counters["retries"][f"solver.dimacs.exec|{backend.name}"] == 2

    def test_hung_subprocess_spends_budget_then_unknown(
        self, monkeypatch, fast_retries
    ):
        monkeypatch.setenv(MAX_RETRIES_ENV, "1")
        backend = DimacsProcessBackend(
            command=[sys.executable, "-c", "import time; time.sleep(30)"]
        )
        backend.new_var()
        backend.add_clause([1])
        assert backend.solve(max_seconds=0.3) is Result.UNKNOWN
        assert backend.stats["subprocess_retries"] == 1


class TestGracefulDegradation:
    def test_vanishing_backend_degrades_and_preserves_sat(self):
        s = Solver(backend=stub_backend)
        p, q = Bool("p"), Bool("q")
        s.add(Or(p, q))
        s.add(Not(p))
        assert s.check() is Result.SAT  # hit 0 of solver.solve
        reset_fault_state()
        install_plan("solver.solve:missing@0")
        assert s.check() is Result.SAT  # hit 0 fires -> degrade -> re-solve
        assert isinstance(s.backend, InProcessBackend)
        assert s.model().bool_value("q") is True
        assert s.stats["downgrades"] == 1
        assert fault_counters()["downgrades"] == {
            f"solver.inprocess|dimacs:{Path(sys.executable).name}": 1
        }
        # the degraded solver keeps working incrementally
        s.add(Not(q))
        assert s.check() is Result.UNSAT

    def test_degradation_preserves_unsat_state(self):
        s = Solver(backend=stub_backend)
        p = Bool("p")
        s.add(p)
        s.add(Not(p))
        assert s.check() is Result.UNSAT
        reset_fault_state()
        install_plan("solver.solve:missing@0")
        assert s.check() is Result.UNSAT  # degraded mid-run, same verdict
        assert s.stats["downgrades"] == 1

    def test_degradation_replays_theory_lemmas(self):
        s = Solver(backend=stub_backend)
        s.add(OneSidedLt("x", "y"))
        s.add(OneSidedLt("y", "x"))
        assert s.check() is Result.UNSAT  # learned >= 1 theory lemma
        reset_fault_state()
        install_plan("solver.solve:missing@0")
        assert s.check() is Result.UNSAT
        assert isinstance(s.backend, InProcessBackend)

    def test_prediction_verdict_survives_mid_run_degradation(self):
        history = deposit_unserializable()
        reference = IsoPredict(
            IsolationLevel.CAUSAL, PredictionStrategy.APPROX_STRICT
        ).predict(history)
        reset_fault_state()
        install_plan("solver.solve:missing@0")
        degraded = IsoPredict(
            IsolationLevel.CAUSAL,
            PredictionStrategy.APPROX_STRICT,
            solver=stub_backend,
        ).predict(history)
        assert degraded.status is reference.status
        assert sum(fault_counters()["downgrades"].values()) == 1

    def test_unfixable_backend_reraises(self):
        """A backend with no clause store cannot degrade: propagate."""
        s = Solver()  # in-process: no replayable _clauses attribute
        p = Bool("p")
        s.add(p)
        reset_fault_state()
        install_plan("solver.solve:missing@0")
        from repro.smt.backends import BackendUnavailable

        with pytest.raises(BackendUnavailable):
            s.check()
