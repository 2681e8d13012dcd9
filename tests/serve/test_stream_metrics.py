"""StreamMetrics: the delta convention, sealed rates, registry mirror.

Regression suite for the PR 8 inconsistency: ``observe_source`` used to
overwrite fields with the source's *cumulative* totals while every other
``observe_*`` accumulated deltas — so two sources clobbered each other
and re-reports double-counted downstream. Now the diff happens at the
observation boundary and the object seals on :meth:`finish`.
"""
import json

import pytest

from repro.obs import (
    get_registry,
    reset_registry,
    reset_telemetry,
    telemetry_session,
)
from repro.serve import StreamingAnalysis
from repro.serve.metrics import StreamMetrics
from repro.sources import FuzzSource


@pytest.fixture(autouse=True)
def clean_obs():
    reset_telemetry()
    reset_registry()
    yield
    reset_telemetry()
    reset_registry()


class TestSourceDeltas:
    def test_cumulative_totals_are_diffed(self):
        m = StreamMetrics()
        m.observe_source({"corrupt_lines": 2, "rotations": 1})
        m.observe_source({"corrupt_lines": 5, "rotations": 1})
        assert m.corrupt_lines == 5
        assert m.rotations == 1

    def test_re_reporting_the_same_totals_is_a_no_op(self):
        m = StreamMetrics()
        for _ in range(3):
            m.observe_source({"truncations": 4})
        assert m.truncations == 4

    def test_a_source_restart_cannot_go_negative(self):
        m = StreamMetrics()
        m.observe_source({"poll_errors": 3})
        m.observe_source({"poll_errors": 1})  # rotated/restarted source
        assert m.poll_errors == 3

    def test_consistent_with_the_fault_delta_feed(self):
        """Both hazard feeds accumulate: totals only ever grow."""
        m = StreamMetrics()
        m.observe_source({"corrupt_lines": 1})
        m.observe_faults({"injected": {"p:io": 2}})
        m.observe_source({"corrupt_lines": 2})
        m.observe_faults({"injected": {"p:io": 1}})
        assert m.corrupt_lines == 2
        assert m.faults_injected == 3


class TestSealedRates:
    def test_finish_freezes_elapsed_and_rates(self):
        m = StreamMetrics()
        m.observe_findings(admitted=4, duplicates=0)
        m.finish()
        first = (m.elapsed_seconds, m.findings_per_sec)
        second = (m.to_stats()["elapsed_seconds"], m.findings_per_sec)
        assert first == second

    def test_finish_is_idempotent(self):
        m = StreamMetrics()
        m.finish()
        sealed = m.elapsed_seconds
        m.finish()
        assert m.elapsed_seconds == sealed

    def test_fixed_clock_session_zeroes_elapsed(self, tmp_path):
        with telemetry_session(str(tmp_path / "t.jsonl"), command="w",
                               clock="fixed"):
            m = StreamMetrics()
            m.observe_findings(admitted=2, duplicates=0)
            m.finish()
            assert m.elapsed_seconds == 0.0
            assert m.findings_per_sec == 0.0


class TestFixedClockStream:
    """Window walls are ``watch.window`` spans and lags read the telemetry
    clock, so the fixed clock freezes everything a stream times."""

    @staticmethod
    def watch(path):
        with telemetry_session(str(path), command="watch", clock="fixed"):
            report = StreamingAnalysis(
                FuzzSource(shape_seed=3), window=8, k=1, max_runs=2
            ).run()
        return path.read_bytes(), report.metrics.summary()

    def test_same_seed_sessions_are_byte_identical(self, tmp_path):
        first = self.watch(tmp_path / "a.jsonl")
        assert self.watch(tmp_path / "b.jsonl") == first
        trace, summary = first
        assert summary["windows"] > 1 and summary["findings"] > 0
        timed = {
            key: value for key, value in summary.items()
            if "_seconds" in key or key.endswith("_per_sec")
        }
        assert len(timed) == 7 and set(timed.values()) == {0.0}, timed
        events = [json.loads(line) for line in trace.splitlines()]
        assert {e["dur"] for e in events if e["event"] == "span"} == {0.0}
        (metrics,) = [e["metrics"] for e in events
                      if e["event"] == "metrics"]
        for name in ("stream_window_seconds", "stream_lag_seconds"):
            (cell,) = metrics[name]["values"].values()
            assert cell["count"] > 0 and cell["sum"] == 0.0, name


class TestRegistryMirror:
    def test_observations_mirror_into_the_registry(self, tmp_path):
        with telemetry_session(str(tmp_path / "t.jsonl"), command="w"):
            m = StreamMetrics()
            m.observe_run(transactions=7)
            m.observe_window(0.25, {"solve_seconds": 0.2,
                                    "conflicts": 3})
            m.observe_findings(admitted=2, duplicates=1)
            m.observe_source({"corrupt_lines": 2})
            m.observe_faults({"retries": {"p": 1}})
            reg = get_registry()
            assert reg.counter("stream_runs").value() == 1
            assert reg.counter("stream_transactions").value() == 7
            assert reg.counter("stream_windows").value() == 1
            assert reg.counter("stream_findings").value() == 2
            assert reg.counter("stream_duplicates").value() == 1
            assert reg.counter("stream_corrupt_lines").value() == 2
            assert reg.counter("stream_fault_retries").value() == 1
            assert reg.histogram("stream_window_seconds").value()[
                "count"
            ] == 1

    def test_no_registry_writes_while_disabled(self):
        m = StreamMetrics()
        m.observe_run(transactions=3)
        m.observe_source({"corrupt_lines": 1})
        assert get_registry().snapshot() == {}
        assert m.runs == 1 and m.corrupt_lines == 1

    def test_stats_shape_is_unchanged(self):
        m = StreamMetrics()
        m.observe_window(0.1, {"solve_seconds": 0.05, "conflicts": 2})
        stats = m.to_stats()
        assert stats["solve_seconds"] == pytest.approx(0.05)
        assert stats["conflicts"] == 2
        assert "findings_per_sec" in stats
