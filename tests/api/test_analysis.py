"""The fluent Analysis session: staging, caching, and validation limits."""
import pytest

from repro.api import Analysis, AnalysisResult, ReplayUnavailable
from repro.bench_apps import Smallbank, Voter, WorkloadConfig
from repro.history import save_history
from repro.isolation import IsolationLevel, is_serializable
from repro.predict import PredictionStrategy
from repro.smt import Result
from repro.sources import BenchAppSource, FuzzSource, TraceFileSource


def _session(seed=2, isolation="causal", strategy="approx-relaxed"):
    return (
        Analysis(BenchAppSource(Smallbank, WorkloadConfig.tiny(), seed))
        .under(isolation)
        .using(strategy, max_seconds=30.0)
    )


class TestStaging:
    def test_fluent_chain_returns_the_session(self):
        session = Analysis(BenchAppSource(Smallbank, WorkloadConfig.tiny()))
        assert session.under("causal") is session
        assert session.using("approx-strict") is session
        assert session.isolation is IsolationLevel.CAUSAL
        assert session.strategy == PredictionStrategy.APPROX_STRICT

    def test_accepts_parsed_enums(self):
        session = _session().under(IsolationLevel.READ_COMMITTED)
        session.using(PredictionStrategy.EXACT_STRICT)
        assert session.isolation is IsolationLevel.READ_COMMITTED
        assert session.strategy is PredictionStrategy.EXACT_STRICT

    def test_coerces_app_class_and_history(self):
        assert Analysis(Smallbank).source.name == "bench:smallbank"
        from repro.gallery import deposit_observed

        session = Analysis(deposit_observed())
        assert session.predict().found

    def test_max_seconds_none_means_unbounded(self):
        session = _session().using(max_seconds=None)
        assert session.max_seconds is None

    @pytest.mark.parametrize("key", ["solver", "max_candidate"])
    def test_using_rejects_unknown_knobs_at_the_call(self, key):
        session = _session()
        with pytest.raises(TypeError, match=repr(key)):
            session.using("exact-strict", **{key: 1})
        assert session.strategy == PredictionStrategy.APPROX_RELAXED
        session.using(max_candidates=8, max_conflicts=100, budget="30s")
        assert session._analyzer().max_candidates == 8


class TestRecordingCache:
    def test_source_records_exactly_once(self):
        calls = []
        inner = BenchAppSource(Smallbank, WorkloadConfig.tiny(), 2)

        class Counting:
            name = "counting"

            def record(self):
                calls.append(1)
                return inner.record()

        session = Analysis(Counting()).using(max_seconds=30.0)
        session.predict()
        session.predict(k=2)
        session.under("rc").predict()
        session.validate()
        assert len(calls) == 1

    def test_recorded_exposes_history(self):
        session = _session()
        assert is_serializable(session.history)
        assert session.recorded.history is session.history


class TestEncodingReuse:
    def test_k_sweep_extends_one_solver(self):
        session = _session()
        one = session.predict()
        assert len(one) == 1
        enum = next(iter(session._enumerations.values()))
        three = session.predict(k=3)
        assert len(three) == 3
        # still the same enumeration object: no re-encoding happened
        assert next(iter(session._enumerations.values())) is enum
        assert len(session._enumerations) == 1
        # the first prediction is stable across the sweep
        assert three.predictions[0] is one.predictions[0]

    def test_configurations_get_separate_solvers(self):
        session = _session()
        session.predict()
        session.under("rc").predict()
        assert len(session._enumerations) == 2

    def test_shrinking_k_reuses_cached_predictions(self):
        session = _session()
        three = session.predict(k=3)
        one = session.predict(k=1)
        assert one.predictions[0] is three.predictions[0]
        assert one.status is Result.SAT


class TestPredictions:
    def test_batch_matches_predict_many(self):
        from repro.predict import IsoPredict

        session = _session()
        batch = session.predict(k=2)
        direct = IsoPredict(
            IsolationLevel.CAUSAL,
            PredictionStrategy.APPROX_RELAXED,
            max_seconds=30.0,
        ).predict_many(session.history, k=2)
        assert len(batch) == len(direct)
        assert [p.boundaries for p in batch] == [
            p.boundaries for p in direct
        ]

    def test_unsat_round(self):
        session = (
            Analysis(BenchAppSource(Voter, WorkloadConfig.small(), 0))
            .under("causal")
            .using("approx-relaxed", max_seconds=30.0)
        )
        batch = session.predict()
        assert not batch.found
        assert batch.status is Result.UNSAT


class TestValidation:
    def test_validate_after_predict(self):
        session = _session()
        batch = session.predict()
        assert batch.found
        report = session.validate()
        assert report.validated
        assert not is_serializable(report.validating)

    def test_validate_without_predict_is_an_error(self):
        with pytest.raises(ValueError, match="call predict"):
            _session().validate()

    def test_trace_source_reports_replay_unavailable(self, tmp_path):
        path = tmp_path / "t.json"
        save_history(_session().history, path)
        session = Analysis(TraceFileSource(path)).using(max_seconds=30.0)
        assert session.predict().found
        with pytest.raises(ReplayUnavailable, match="no replayable"):
            session.validate()

    def test_validate_pins_the_batch_isolation(self):
        """Switching levels after predict() must not change what the last
        batch is validated against — it was predicted under its own level."""
        session = _session(isolation="causal")
        batch = session.predict()
        assert batch.found
        session.under("rc")  # caller moves on to sweep the next level
        report = session.validate()
        assert str(report.isolation) == "causal"

    def test_explicit_prediction_validates_without_recording(self):
        calls = []
        inner = BenchAppSource(Smallbank, WorkloadConfig.tiny(), 2)

        class Counting:
            name = "counting"

            def record(self):
                calls.append(1)
                return inner.record()

            def replay_handle(self):
                return inner.replay_handle()

        donor = _session()
        batch = donor.predict()
        assert batch.found
        session = Analysis(Counting()).under("causal")
        report = session.validate(
            prediction=batch.best.predicted, observed=donor.history
        )
        assert report.validated
        assert calls == []  # replay came from the handle, not a recording

    def test_fuzz_source_validates(self):
        session = (
            Analysis(FuzzSource(shape_seed=5))
            .under("rc")
            .using("approx-strict", max_seconds=30.0)
        )
        if session.predict().found:
            report = session.validate()
            assert report.validating is not None


class TestRun:
    def test_run_bundles_everything(self):
        result = _session().run(k=2)
        assert isinstance(result, AnalysisResult)
        assert result.batch.found
        assert result.validation is not None
        assert result.confirmed == result.validation.validated

    def test_run_exposes_the_recorded_run(self):
        result = _session().run()
        assert result.run.meta["app"] == "smallbank"
        assert result.run.outcome.app.name == "smallbank"
        assert result.run.outcome.store is not None
        assert result.run.history is result.run.outcome.history
        assert result.prediction.found
        assert result.prediction.predicted is result.batch.best.predicted
        assert result.validation is not None

    def test_validate_false_skips_replay(self):
        result = _session().run(validate=False)
        assert result.batch.found
        assert result.validation is None
        assert not result.confirmed

    def test_run_skips_validation_when_impossible(self, tmp_path):
        path = tmp_path / "t.json"
        save_history(_session().history, path)
        result = (
            Analysis(TraceFileSource(path))
            .using(max_seconds=30.0)
            .run()
        )
        assert result.batch.found
        assert result.validation is None
        assert not result.confirmed

    def test_empty_prediction_carries_batch_stats(self):
        result = (
            Analysis(BenchAppSource(Voter, WorkloadConfig.small(), 0))
            .using(max_seconds=30.0)
            .run()
        )
        assert result.prediction.status is Result.UNSAT
        assert result.prediction.stats.get("literals", 0) > 0


class TestSessionBackend:
    def test_session_backend_installs_on_source(self):
        from repro.bench_apps import Smallbank, WorkloadConfig
        from repro.sources import BenchAppSource

        source = BenchAppSource(Smallbank, WorkloadConfig.tiny(), seed=1)
        session = Analysis(source, backend="sharded:2")
        assert source.backend is session.backend
        assert session.recorded.meta["shards"] == 2

    def test_conflicting_backends_rejected(self, tmp_path):
        from repro.bench_apps import Smallbank, WorkloadConfig
        from repro.sources import BenchAppSource
        from repro.store import ShardedBackend, SqliteBackend

        source = BenchAppSource(
            Smallbank, WorkloadConfig.tiny(), seed=1,
            backend=SqliteBackend(tmp_path / "a.sqlite"),
        )
        with pytest.raises(ValueError, match="already carries"):
            Analysis(source, backend=ShardedBackend(shards=2))
        # the same backend object is not a conflict
        backend = ShardedBackend(shards=2)
        source2 = BenchAppSource(
            Smallbank, WorkloadConfig.tiny(), seed=1, backend=backend
        )
        Analysis(source2, backend=backend)

    def test_backend_on_sourceless_history_rejected(self):
        from repro.gallery import deposit_observed

        with pytest.raises(ValueError, match="does not execute"):
            Analysis(deposit_observed(), backend="sharded:2")
