"""HistorySource implementations: bench, programs, trace files, fuzz."""
import json

import pytest

from repro.bench_apps import Smallbank, WorkloadConfig
from repro.gallery import deposit_observed
from repro.history import history_to_json, save_history
from repro.history.model import History
from repro.isolation import IsolationLevel, is_serializable
from repro.sources import (
    BenchAppSource,
    FuzzSource,
    HistorySource,
    HistoryValueSource,
    ProgramsSource,
    TraceFileSource,
    as_source,
    iter_runs,
)


class TestBenchAppSource:
    def test_record_is_deterministic(self):
        a = BenchAppSource(Smallbank, WorkloadConfig.tiny(), seed=1).record()
        b = BenchAppSource(Smallbank, WorkloadConfig.tiny(), seed=1).record()
        assert history_to_json(a.history) == history_to_json(b.history)

    def test_accepts_app_name(self):
        run = BenchAppSource("smallbank", WorkloadConfig.tiny()).record()
        assert is_serializable(run.history)
        assert run.meta["app"] == "smallbank"
        assert run.meta["source"] == "bench"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown app"):
            BenchAppSource("nope")

    def test_replay_handle_present_and_fresh(self):
        run = BenchAppSource(Smallbank, WorkloadConfig.tiny(), seed=1).record()
        assert run.can_validate
        p1, i1 = run.replay.make_programs()
        p2, i2 = run.replay.make_programs()
        assert p1 is not p2  # fresh app instance per replay (§7.1)
        assert set(p1) == set(p2)
        assert i1 == i2

    def test_outcome_kept_for_assertions(self):
        run = BenchAppSource(Smallbank, WorkloadConfig.tiny()).record()
        assert run.outcome is not None
        assert run.outcome.history is run.history


class TestProgramsSource:
    @staticmethod
    def _make_programs():
        def deposit(amount):
            def program(client, rng):
                balance = client.get("acct")
                client.put("acct", (balance or 0) + amount)
                client.commit()
                yield

            return program

        return {"s1": deposit(50), "s2": deposit(60)}

    def test_records_and_replays(self):
        source = ProgramsSource(
            self._make_programs, initial={"acct": 0}, seed=0
        )
        run = source.record()
        assert len(run.history) == 2
        assert run.can_validate
        assert run.meta["source"] == "programs"

    def test_replay_validates_a_prediction(self):
        from repro.predict import IsoPredict, PredictionStrategy

        source = ProgramsSource(
            self._make_programs, initial={"acct": 0}, seed=0
        )
        run = source.record()
        result = IsoPredict(
            IsolationLevel.CAUSAL, PredictionStrategy.APPROX_RELAXED
        ).predict(run.history)
        assert result.found
        report = run.replay.validate(
            result.predicted, IsolationLevel.CAUSAL, observed=run.history
        )
        assert report.validated


class TestTraceFileSource:
    def test_loads_saved_trace_without_app(self, tmp_path):
        path = tmp_path / "t.json"
        save_history(deposit_observed(), path, meta={"app": "deposit"})
        run = TraceFileSource(path).record()
        assert len(run.history) == 2
        assert run.meta["app"] == "deposit"
        assert run.meta["source"] == "trace"
        assert run.meta["trace_version"] == 1

    def test_no_replay_available(self, tmp_path):
        path = tmp_path / "t.json"
        save_history(deposit_observed(), path)
        run = TraceFileSource(path).record()
        assert not run.can_validate
        assert run.replay is None

    def test_version0_file_still_loads(self, tmp_path):
        data = history_to_json(deposit_observed())
        del data["version"], data["meta"]  # the original on-disk format
        path = tmp_path / "v0.json"
        path.write_text(json.dumps(data))
        run = TraceFileSource(path).record()
        assert len(run.history) == 2
        assert run.meta["trace_version"] == 0

    def test_jsonl_streams_every_document(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        doc = json.dumps(history_to_json(deposit_observed()))
        path.write_text(doc + "\n\n" + doc + "\n")
        runs = list(TraceFileSource(path).runs())
        assert len(runs) == 2
        assert all(len(r.history) == 2 for r in runs)

    def test_empty_jsonl_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no trace documents"):
            TraceFileSource(path).record()


class TestFuzzSource:
    def test_record_matches_random_app(self):
        from repro.bench_apps.base import record_observed
        from repro.fuzz import RandomApp

        run = FuzzSource(shape_seed=7, seed=3).record()
        direct = record_observed(RandomApp(7), 3)
        assert history_to_json(run.history) == history_to_json(
            direct.history
        )
        assert run.meta == {"source": "fuzz", "shape_seed": 7, "seed": 3}

    def test_stream_opens_fresh_scenarios(self):
        runs = list(FuzzSource(shape_seed=0, count=3).runs())
        assert len(runs) == 3
        assert [r.meta["shape_seed"] for r in runs] == [0, 1, 2]

    def test_stream_is_continuous_without_count(self):
        stream = FuzzSource(shape_seed=10).runs()
        seen = [next(stream).meta["shape_seed"] for _ in range(4)]
        assert seen == [10, 11, 12, 13]

    def test_fuzz_runs_are_validatable(self):
        run = FuzzSource(shape_seed=2).record()
        assert run.can_validate


class TestAsSource:
    def test_passthrough(self):
        source = FuzzSource(shape_seed=0)
        assert as_source(source) is source

    def test_app_class_coerces_to_bench(self):
        source = as_source(Smallbank)
        assert isinstance(source, BenchAppSource)
        assert source.app_cls is Smallbank

    def test_path_coerces_to_trace(self, tmp_path):
        path = tmp_path / "t.json"
        save_history(deposit_observed(), path)
        source = as_source(str(path))
        assert isinstance(source, TraceFileSource)

    def test_history_coerces_to_value_source(self):
        source = as_source(deposit_observed())
        assert isinstance(source, HistoryValueSource)
        run = source.record()
        assert isinstance(run.history, History)
        assert not run.can_validate

    def test_garbage_rejected(self):
        with pytest.raises(TypeError, match="cannot build a HistorySource"):
            as_source(42)

    def test_protocol_runtime_check(self):
        assert isinstance(FuzzSource(0), HistorySource)
        assert isinstance(BenchAppSource(Smallbank), HistorySource)
        assert not isinstance(object(), HistorySource)


class TestIterRuns:
    def test_single_record_source(self):
        runs = list(iter_runs(as_source(deposit_observed())))
        assert len(runs) == 1

    def test_streaming_source_uses_runs(self):
        runs = list(iter_runs(FuzzSource(shape_seed=0, count=2)))
        assert len(runs) == 2
