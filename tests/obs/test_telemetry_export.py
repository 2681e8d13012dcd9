"""Sessions + merge: one final trace file, valid, deterministic."""
import json

from repro.obs import (
    enabled,
    get_registry,
    load_events,
    observe_analysis_stats,
    span,
    telemetry_session,
    validate_events,
)
from repro.obs.export import flush_process_metrics


def run_session(path, clock=None):
    with telemetry_session(str(path), command="test", clock=clock):
        with span("stage.encode", unser=True):
            pass
        with span("stage.solve", backend="inprocess") as s:
            s.set(result="sat")
        get_registry().counter("worker_rounds").inc(key="sat")


class TestSession:
    def test_none_path_is_a_no_op(self):
        with telemetry_session(None, command="x"):
            assert not enabled()

    def test_session_produces_one_valid_file(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        run_session(sink)
        events = load_events(str(sink))
        assert validate_events(events) == []
        names = [e["name"] for e in events if e.get("event") == "span"]
        assert "cli.test" in names
        assert "stage.solve" in names

    def test_root_span_is_closed_not_abandoned(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        run_session(sink)
        root = next(
            e for e in load_events(str(sink))
            if e.get("name") == "cli.test"
        )
        assert "unclosed" not in root["attrs"]

    def test_stage_spans_parent_under_the_root(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        run_session(sink)
        events = load_events(str(sink))
        spans = {e["name"]: e for e in events
                 if e.get("event") == "span"}
        root_id = spans["cli.test"]["span"]
        assert spans["stage.encode"]["parent"] == root_id
        assert spans["stage.solve"]["parent"] == root_id

    def test_metrics_event_holds_the_registry(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        run_session(sink)
        (metrics,) = [e for e in load_events(str(sink))
                      if e.get("event") == "metrics"]
        rounds = metrics["metrics"]["worker_rounds"]
        assert rounds["values"] == {"sat": 1}

    def test_error_is_marked_and_session_still_merges(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        try:
            with telemetry_session(str(sink), command="boom"):
                raise KeyError("nope")
        except KeyError:
            pass
        events = load_events(str(sink))
        assert validate_events(events) == []
        root = next(e for e in events if e.get("name") == "cli.boom")
        assert root["attrs"]["error"] == "KeyError"

    def test_session_exit_resets_global_state(self, tmp_path):
        run_session(tmp_path / "t.jsonl")
        assert not enabled()
        assert get_registry().snapshot() == {}

    def test_intermediate_files_are_cleaned_up(self, tmp_path):
        run_session(tmp_path / "t.jsonl")
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name != "t.jsonl"]
        assert leftovers == []


class TestDeterministicMerge:
    def test_two_fixed_clock_sessions_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_session(a, clock="fixed")
        run_session(b, clock="fixed")
        assert a.read_bytes() == b.read_bytes()

    def test_fixed_clock_meta_omits_environment_info(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        run_session(sink, clock="fixed")
        meta = load_events(str(sink))[0]
        assert meta["deterministic"] is True
        assert "python" not in meta and "argv" not in meta

    def test_own_sidecar_never_double_counts(self, tmp_path):
        """An inline (--jobs 1) run flushes a sidecar from the merging
        process itself; the live registry must supersede it."""
        sink = tmp_path / "t.jsonl"
        with telemetry_session(str(sink), command="test"):
            get_registry().counter("worker_rounds").inc(key="sat")
            flush_process_metrics()
            get_registry().counter("worker_rounds").inc(key="sat")
        (metrics,) = [e for e in load_events(str(sink))
                      if e.get("event") == "metrics"]
        assert metrics["metrics"]["worker_rounds"]["values"] == {
            "sat": 2
        }


class TestAnalysisStats:
    def test_counters_fold_into_the_registry(self, tmp_path):
        with telemetry_session(str(tmp_path / "t.jsonl"), command="t"):
            observe_analysis_stats(
                {"decisions": 10, "conflicts": 3, "encode_seconds": 0.5}
            )
            reg = get_registry()
            assert reg.counter("solver_decisions").value() == 10
            assert reg.counter("solver_conflicts").value() == 3
            assert reg.histogram("solver_seconds").value(
                "encode_seconds"
            )["count"] == 1

    def test_every_folded_name_is_a_real_stats_key(self, tmp_path):
        """The folded names and a real ``PredictionBatch.stats`` share one
        vocabulary, so learned-clause counts reach the registry."""
        from repro.api import Analysis
        from repro.obs.export import _STAT_COUNTERS
        from repro.sources import BenchAppSource

        batch = (
            Analysis(BenchAppSource("smallbank", seed=2))
            .under("causal")
            .predict(2)
        )
        assert [k for k in _STAT_COUNTERS if k not in batch.stats] == []
        with telemetry_session(str(tmp_path / "t.jsonl"), command="t"):
            observe_analysis_stats(batch.stats)
            reg = get_registry()
            assert batch.stats["learned"] > 0
            assert (
                reg.counter("solver_learned").value()
                == batch.stats["learned"]
            )

    def test_a_fixed_clock_analysis_folds_zero_seconds(self, tmp_path):
        """Stage seconds are span durations, so a real analysis under the
        fixed clock reports, and folds, zeros: the histogram stays
        deterministic without skipping anything."""
        from repro.api import Analysis
        from repro.sources import BenchAppSource

        with telemetry_session(str(tmp_path / "t.jsonl"), command="t",
                               clock="fixed"):
            batch = (
                Analysis(BenchAppSource("smallbank", seed=2))
                .under("causal")
                .predict(2)
            )
            observe_analysis_stats(batch.stats)
            reg = get_registry()
            assert reg.counter("solver_decisions").value() == (
                batch.stats["decisions"]
            )
            for stage in ("encode", "compile", "solve", "decode", "gen"):
                key = f"{stage}_seconds"
                assert batch.stats[key] == 0.0
                cell = reg.histogram("solver_seconds").value(key)
                assert cell["count"] == 1 and cell["sum"] == 0.0, key

    def test_disabled_telemetry_ignores_stats(self):
        observe_analysis_stats({"decisions": 10})
        assert get_registry().snapshot() == {}
