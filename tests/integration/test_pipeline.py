"""End-to-end pipeline tests: record → predict → validate across apps."""
import pytest

from repro.api import Analysis
from repro.bench_apps import Smallbank, TPCC, Voter
from repro.isolation import (
    IsolationLevel,
    is_serializable,
    is_valid_under,
    pco_unserializable,
)
from repro.predict import PredictionStrategy
from repro.smt import Result
from repro.sources import BenchAppSource


def analyze(
    app_cls,
    seed=0,
    isolation=IsolationLevel.CAUSAL,
    strategy=PredictionStrategy.APPROX_RELAXED,
    validate=True,
):
    """One record → predict → (validate) round through the session API."""
    session = (
        Analysis(BenchAppSource(app_cls, seed=seed))
        .under(isolation)
        .using(strategy)
    )
    return session.run(validate=validate)


class TestPipelineBasics:
    def test_smallbank_causal_pipeline(self):
        confirmed = 0
        for seed in range(4):
            result = analyze(
                Smallbank,
                seed=seed,
                isolation=IsolationLevel.CAUSAL,
                strategy=PredictionStrategy.APPROX_RELAXED,
            )
            assert is_serializable(result.run.history)
            if result.prediction.found:
                predicted = result.prediction.predicted
                assert is_valid_under(predicted, IsolationLevel.CAUSAL)
                assert pco_unserializable(predicted)
                if result.confirmed:
                    confirmed += 1
                    assert not is_serializable(
                        result.validation.validating
                    )
        assert confirmed >= 1, "Smallbank routinely confirms predictions"

    def test_voter_causal_never_predicts(self):
        """§7.2: Voter's single writing transaction defeats prediction."""
        for seed in range(4):
            result = analyze(
                Voter, seed=seed, isolation=IsolationLevel.CAUSAL
            )
            assert result.prediction.status is Result.UNSAT

    def test_voter_rc_predicts(self):
        result = analyze(
            Voter,
            seed=0,
            isolation=IsolationLevel.READ_COMMITTED,
            strategy=PredictionStrategy.APPROX_STRICT,
        )
        assert result.prediction.found

    def test_validation_can_be_skipped(self):
        result = analyze(Smallbank, seed=0, validate=False)
        assert result.validation is None
        assert not result.confirmed

    def test_tpcc_causal_predicts(self):
        found = any(
            analyze(
                TPCC,
                seed=seed,
                isolation=IsolationLevel.CAUSAL,
                strategy=PredictionStrategy.APPROX_RELAXED,
            ).prediction.found
            for seed in range(3)
        )
        assert found


class TestValidationRate:
    """The paper's >99% headline: validated predictions dominate."""

    def test_most_predictions_validate(self):
        predicted = validated = 0
        for app_cls in (Smallbank, TPCC):
            for seed in range(3):
                result = analyze(
                    app_cls,
                    seed=seed,
                    isolation=IsolationLevel.READ_COMMITTED,
                    strategy=PredictionStrategy.APPROX_STRICT,
                )
                if result.prediction.found:
                    predicted += 1
                    if result.confirmed:
                        validated += 1
        assert predicted >= 2
        assert validated / predicted >= 0.5


class TestPredictedTraceRoundTrip:
    def test_predicted_history_survives_serialization(self, tmp_path):
        from repro.history import load_history, save_history

        result = analyze(Smallbank, seed=1, validate=False)
        if not result.prediction.found:
            pytest.skip("no prediction at this seed")
        path = tmp_path / "predicted.json"
        save_history(result.prediction.predicted, path)
        loaded = load_history(path)
        assert pco_unserializable(loaded) == pco_unserializable(
            result.prediction.predicted
        )
