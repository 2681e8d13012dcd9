"""RetryPolicy: deterministic jitter, classification, budget semantics."""
import sqlite3

import pytest

from repro.faults import (
    InjectedCorruption,
    InjectedIOError,
    WorkerCrash,
    RetryPolicy,
    fault_counters,
    is_transient_fault,
)
from repro.faults.retry import MAX_RETRIES_ENV, RETRY_BACKOFF_ENV


class TestClassification:
    @pytest.mark.parametrize(
        "exc",
        [
            InjectedIOError("x"),
            WorkerCrash("x"),
            TimeoutError(),
            BlockingIOError(),
            InterruptedError(),
            sqlite3.OperationalError("database is locked"),
            sqlite3.OperationalError("database is busy"),
        ],
    )
    def test_transient(self, exc):
        assert is_transient_fault(exc)

    @pytest.mark.parametrize(
        "exc",
        [
            ValueError("bad input"),
            InjectedCorruption("torn doc"),
            sqlite3.OperationalError("no such table: executions"),
            KeyboardInterrupt(),
        ],
    )
    def test_fatal(self, exc):
        assert not is_transient_fault(exc)

    def test_transient_attribute_is_honoured(self):
        class Flaky(RuntimeError):
            transient = True

        assert is_transient_fault(Flaky())


class TestDelay:
    def test_deterministic_per_key_and_attempt(self):
        policy = RetryPolicy(backoff_seconds=0.1, jitter_seed=3)
        assert policy.delay(1, "k") == policy.delay(1, "k")
        assert policy.delay(1, "k") != policy.delay(1, "other")
        twin = RetryPolicy(backoff_seconds=0.1, jitter_seed=3)
        assert twin.delay(2, "k") == policy.delay(2, "k")

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(
            backoff_seconds=0.1, max_backoff_seconds=0.4, jitter_seed=0
        )
        # jittered into [0.5, 1.0) of the doubling base, capped at 0.4
        for attempt in range(6):
            base = min(0.4, 0.1 * 2**attempt)
            d = policy.delay(attempt, "k")
            assert base * 0.5 <= d < base

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-0.1)


class TestFromEnv:
    def test_reads_env(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV, "5")
        monkeypatch.setenv(RETRY_BACKOFF_ENV, "0.25")
        policy = RetryPolicy.from_env(jitter_seed=9)
        assert policy.max_retries == 5
        assert policy.backoff_seconds == 0.25
        assert policy.jitter_seed == 9

    def test_export_round_trips(self, monkeypatch):
        policy = RetryPolicy(max_retries=4, backoff_seconds=0.125)
        for key, value in policy.export_env().items():
            monkeypatch.setenv(key, value)
        assert RetryPolicy.from_env() == policy

    def test_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV, "5")
        assert RetryPolicy.from_env(max_retries=1).max_retries == 1


class TestCall:
    def test_retries_transient_until_success(self):
        attempts = []
        sleeps = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise InjectedIOError("not yet")
            return "done"

        policy = RetryPolicy(max_retries=3, backoff_seconds=0.01)
        out = policy.call(flaky, key="seam", sleep=sleeps.append)
        assert out == "done"
        assert len(attempts) == 3 and len(sleeps) == 2
        assert fault_counters()["retries"] == {"seam": 2}

    def test_fatal_raises_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("bad")

        with pytest.raises(ValueError):
            RetryPolicy(max_retries=5).call(broken, sleep=lambda s: None)
        assert len(calls) == 1

    def test_budget_exhaustion_reraises_original(self):
        def always():
            raise WorkerCrash("persistent")

        policy = RetryPolicy(max_retries=2, backoff_seconds=0.0)
        with pytest.raises(WorkerCrash, match="persistent"):
            policy.call(always, key="k", sleep=lambda s: None)
        assert fault_counters()["retries"] == {"k": 2}

    def test_on_retry_observes_attempts(self):
        seen = []

        def flaky():
            if len(seen) < 1:
                raise InjectedIOError("once")
            return True

        RetryPolicy(max_retries=1).call(
            flaky,
            sleep=lambda s: None,
            on_retry=lambda attempt, exc: seen.append((attempt, str(exc))),
        )
        assert seen == [(0, "once")]
