"""fault_point: deterministic firing, exception kinds, counter witness."""
import sqlite3

import pytest

from repro.faults import (
    InjectedCorruption,
    InjectedIOError,
    WorkerCrash,
    diff_fault_counters,
    fault_counters,
    fault_point,
    install_plan,
)


class TestFiring:
    def test_no_plan_is_a_silent_counter_bump(self):
        for _ in range(5):
            fault_point("campaign.round")
        assert fault_counters() == {"injected": {}, "retries": {}}

    def test_occurrence_window_is_exact(self):
        install_plan("p:io@2*2")
        fired = []
        for hit in range(6):
            try:
                fault_point("p")
                fired.append(False)
            except InjectedIOError:
                fired.append(True)
        assert fired == [False, False, True, True, False, False]
        assert fault_counters()["injected"] == {"p:io": 2}

    def test_kinds_raise_their_exception_types(self):
        install_plan("a:io;b:busy;c:corrupt;d:crash")
        with pytest.raises(InjectedIOError):
            fault_point("a")
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            fault_point("b")
        with pytest.raises(InjectedCorruption):
            fault_point("c")
        with pytest.raises(WorkerCrash):
            fault_point("d")

    def test_context_rides_on_the_message(self):
        install_plan("p:crash")
        with pytest.raises(WorkerCrash, match=r"round_id=r1"):
            fault_point("p", round_id="r1")

    def test_hang_sleeps_for_spec_seconds(self):
        install_plan("p:hang~0.01")
        import time

        start = time.monotonic()
        fault_point("p")  # does not raise
        assert time.monotonic() - start >= 0.01
        assert fault_counters()["injected"] == {"p:hang": 1}

    def test_replay_is_byte_identical(self):
        """Same plan + same hit sequence -> same firings, twice over."""
        from repro.faults import reset_fault_state

        def run():
            reset_fault_state()
            install_plan("p:io@1;q:busy*2")
            log = []
            for point in ("p", "q", "p", "q", "q", "p"):
                try:
                    fault_point(point)
                    log.append((point, None))
                except Exception as exc:
                    log.append((point, type(exc).__name__))
            return log, fault_counters()

        assert run() == run()


class TestCounters:
    def test_diff_drops_empty_groups(self):
        before = fault_counters()
        assert diff_fault_counters(before, fault_counters()) == {}

    def test_diff_reports_only_deltas(self):
        install_plan("p:io*2")
        with pytest.raises(InjectedIOError):
            fault_point("p")
        before = fault_counters()
        with pytest.raises(InjectedIOError):
            fault_point("p")
        fault_point("p")
        assert diff_fault_counters(before, fault_counters()) == {
            "injected": {"p:io": 1}
        }
