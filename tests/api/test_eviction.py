"""Analysis solver-cache lifecycle: close() and LRU eviction.

PR 2 left a known gap: a session kept one incremental solver per swept
(isolation, strategy) configuration forever, so memory grew without bound
under configuration sweeps. These tests prove the cap and the explicit
release actually free the solver state (via weakref + gc, not just dict
length).
"""
import gc
import weakref

import pytest

from repro.api import Analysis
from repro.bench_apps import TPCC, Smallbank, WorkloadConfig, record_observed
from repro.serve import WindowConfig, WindowFamily, segment_history
from repro.smt import Expr
from repro.sources import BenchAppSource

STRATEGIES = ("approx-relaxed", "approx-strict", "exact-relaxed",
              "exact-strict")
LEVELS = ("causal", "rc", "ra")


def _session(**kwargs):
    return Analysis(
        BenchAppSource(Smallbank, WorkloadConfig.tiny(), 2), **kwargs
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


class TestLruEviction:
    def test_cache_never_exceeds_cap(self):
        session = _session(max_cached_configs=3)
        for level in LEVELS:
            for strategy in STRATEGIES[:2]:
                session.under(level).using(strategy).predict(k=1)
                assert len(session._enumerations) <= 3

    def test_evicted_solver_memory_is_released(self):
        session = _session(max_cached_configs=1)
        session.under("causal").using("approx-relaxed").predict(k=1)
        (victim,) = _enum_refs(session)
        session.under("rc").using("approx-relaxed").predict(k=1)
        gc.collect()
        assert victim() is None, "evicted enumeration must be collectable"

    def test_recently_used_config_survives(self):
        session = _session(max_cached_configs=2)
        session.under("causal").predict(k=1)
        causal_enum = session._enumerations[
            next(iter(session._enumerations))
        ]
        session.under("rc").predict(k=1)
        # touch causal again, then add a third config: rc is now the LRU
        session.under("causal").predict(k=1)
        session.under("ra").predict(k=1)
        assert causal_enum in session._enumerations.values()
        assert len(session._enumerations) == 2

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            _session(max_cached_configs=0)


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
        app = Smallbank(WorkloadConfig.small())
        windows = segment_history(
            record_observed(app, 1).history, WindowConfig(size=4, stride=2)
        )
        assert len(windows) >= 4
        before = _live_exprs()
        family = WindowFamily("causal")
        for window in windows:
            family.analyze(window, k=1)
        family.release()
        assert family.windows == len(windows)
        assert _built_since(before) == 0
