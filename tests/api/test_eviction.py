"""Analysis solver-cache lifecycle: close() frees what a session holds.

A session keeps one incremental solver per (isolation, boundary) walk it
has queried, at most six. These tests prove the explicit release actually
frees that solver state (via weakref + gc, not just dict length), and
that a closed analysis leaves no terms behind.
"""
import gc
import weakref

from repro.api import Analysis
from repro.bench_apps import TPCC, Smallbank, WorkloadConfig, record_observed
from repro.serve import StreamingAnalysis, WindowConfig, segment_history
from repro.smt import Expr
from repro.sources import BenchAppSource

def _session():
    return Analysis(
        BenchAppSource(Smallbank, WorkloadConfig.tiny(), 2)
    ).using(max_seconds=30.0)


def _enum_refs(session):
    return [weakref.ref(e) for e in session._enumerations.values()]


class TestClose:
    def test_close_releases_solver_state(self):
        session = _session()
        session.predict()
        refs = _enum_refs(session)
        assert refs, "predict() must have cached an enumeration"
        solver_refs = [
            weakref.ref(r()._solver) for r in refs if r()._solver is not None
        ]
        session.close()
        gc.collect()
        assert all(r() is None for r in refs)
        assert all(r() is None for r in solver_refs)

    def test_close_keeps_the_session_usable(self):
        session = _session()
        first = session.predict(k=1)
        session.close()
        again = session.predict(k=1)
        assert again.status is first.status
        assert len(again) == len(first)

    def test_context_manager_closes(self):
        with _session() as session:
            session.predict()
            assert session._enumerations
        assert not session._enumerations


def _live_exprs() -> dict[int, Expr]:
    """Every live term by id (holding them keeps their ids from reuse)."""
    gc.collect()
    return {id(o): o for o in gc.get_objects() if isinstance(o, Expr)}


def _built_since(before: dict[int, Expr]) -> int:
    return len(_live_exprs().keys() - before.keys())


class TestExpressionLifetime:
    """A closed analysis frees every term its encoding built.

    No term means anything outside its own encoding, so nothing may keep
    one alive once the solver that compiled it is released.
    """

    def test_closed_sessions_leave_no_terms(self):
        before = _live_exprs()
        for seed in range(6):
            with Analysis(
                BenchAppSource(TPCC, WorkloadConfig.tiny(), seed)
            ).under("causal").using(max_seconds=30.0) as session:
                session.predict(k=2)
                assert _built_since(before), "the live solver holds terms"
            assert _built_since(before) == 0, f"session {seed} leaked terms"

    def test_window_walk_leaves_no_terms(self):
        history = record_observed(Smallbank(WorkloadConfig.small()), 1).history
        config = WindowConfig(size=4, stride=2)
        windows = segment_history(history, config)
        assert len(windows) >= 4
        before = _live_exprs()
        report = StreamingAnalysis(
            history, window=config, isolation="causal", k=1
        ).run()
        assert report.metrics.windows == len(windows)
        assert _built_since(before) == 0
