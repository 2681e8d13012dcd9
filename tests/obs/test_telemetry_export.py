"""Sessions + merge: one final trace file, valid, deterministic."""
import json

from repro.obs import (
    enabled,
    fold_events,
    load_events,
    span,
    tally,
    telemetry_session,
    validate_events,
)
from repro.perf import COUNTER_KEYS


def run_session(path, clock=None):
    with telemetry_session(str(path), command="test", clock=clock):
        with span("stage.encode", unser=True):
            pass
        with span("stage.solve", backend="inprocess") as s:
            s.set(result="sat")
        with span("campaign.round", round_id="r0") as s:
            s.set(status="sat")


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

    def test_metrics_event_folds_the_spans(self, tmp_path):
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


def _span(name, **attrs):
    return {"event": "span", "name": name, "attrs": attrs}


class TestFold:
    def test_counts_from_several_processes_add(self):
        """Each worker's counts travel in its own part file as span
        attrs; the fold over the merged events sums them."""
        metrics, _ = fold_events([
            _span("campaign.round", status="sat", solver={"clauses": 5}),
            _span("campaign.round", status="retry",
                  fault_retries={"campaign.round|r1": 1}),
            _span("campaign.round", status="unsat", solver={"clauses": 7}),
            _span("campaign.run", statuses={"sat": 1, "unsat": 1},
                  predicted=1, events={"torn_lines": 0}),
        ])
        assert metrics == {
            "campaign_predictions": {"kind": "counter",
                                     "values": {"": 1}},
            "campaign_rounds": {"kind": "counter",
                                "values": {"sat": 1, "unsat": 1}},
            "fault_retries": {"kind": "counter",
                              "values": {"campaign.round|r1": 1}},
            "solver_clauses": {"kind": "counter", "values": {"": 12}},
            "worker_rounds": {"kind": "counter",
                              "values": {"sat": 1, "unsat": 1}},
        }
        assert list(metrics) == sorted(metrics)

    def test_series_attrs_merge(self):
        def session(*walls):
            return _span("watch.session", metrics={
                "stream_windows": {"kind": "counter",
                                   "values": {"": len(walls)}},
                "stream_window_seconds": {"kind": "histogram", "values": {
                    "": {"count": len(walls), "sum": sum(walls),
                         "min": min(walls), "max": max(walls)},
                }},
            })

        metrics, _ = fold_events([session(1.0, 3.0), session(2.0)])
        assert metrics["stream_windows"]["values"] == {"": 3}
        assert metrics["stream_window_seconds"]["values"][""] == {
            "count": 3, "sum": 6.0, "min": 1.0, "max": 3.0,
        }

    def test_points_count_faults_and_decodes_count_candidates(self):
        metrics, candidates = fold_events([
            {"event": "point", "name": "fault.injected",
             "attrs": {"point": "seam", "kind": "io", "hit": 0}},
            _span("stage.decode", candidate=1, kind="refined"),
            _span("stage.decode", candidate=2, kind="cyclic"),
            _span("stage.decode", candidate=2, part="boundaries"),
            _span("fuzz.iteration", iteration=0, status="sat", novel=2),
            _span("fuzz.iteration", iteration=1, error="KeyError"),
        ])
        assert metrics["faults_injected"]["values"] == {"seam:io": 1}
        assert metrics["fuzz_iterations"]["values"] == {"": 1}
        assert metrics["fuzz_finds"]["values"] == {"": 2}
        assert candidates == {"refined": 1, "acyclic": 0, "cyclic": 1}

    def test_zero_counts_make_no_series(self):
        metrics, _ = fold_events([
            _span("campaign.run", statuses={}, predicted=0,
                  events={"worker_stalls": 0}),
            _span("fuzz.iteration", iteration=0, status="unsat", novel=0),
        ])
        assert metrics == {
            "fuzz_iterations": {"kind": "counter", "values": {"": 1}},
        }


class TestSolverTally:
    def test_counts_land_on_the_innermost_span(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        with telemetry_session(str(sink), command="t"):
            with span("campaign.round", round_id="r0"):
                tally("solver", {"decisions": 10, "conflicts": 0,
                                 "encode_seconds": 0.5}, COUNTER_KEYS)
                tally("solver", {"decisions": 2}, COUNTER_KEYS)
        events = load_events(str(sink))
        (round_span,) = [e for e in events
                         if e.get("name") == "campaign.round"]
        assert round_span["attrs"]["solver"] == {"decisions": 12}
        assert events[-1]["metrics"] == {
            "solver_decisions": {"kind": "counter", "values": {"": 12}},
        }

    def test_every_tallied_name_is_a_real_stats_key(self, tmp_path):
        """The tallied names and a real ``PredictionBatch.stats`` share
        one vocabulary, so learned-clause counts reach the trace."""
        from repro.api import Analysis
        from repro.sources import BenchAppSource

        batch = (
            Analysis(BenchAppSource("smallbank", seed=2))
            .under("causal")
            .predict(2)
        )
        assert [k for k in COUNTER_KEYS if k not in batch.stats] == []
        assert batch.stats["learned"] > 0
        sink = tmp_path / "t.jsonl"
        with telemetry_session(str(sink), command="t"):
            tally("solver", batch.stats, COUNTER_KEYS)
        metrics = load_events(str(sink))[-1]["metrics"]
        assert metrics["solver_learned"]["values"] == {
            "": batch.stats["learned"]
        }

    def test_disabled_telemetry_tallies_nothing(self):
        with span("campaign.round") as s:
            tally("solver", {"decisions": 10})
        assert not hasattr(s, "attrs")
