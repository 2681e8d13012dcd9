"""Validation tests (§5): replay, divergence, and the Fig. 9 false positive."""
import pytest

from repro import gallery
from repro.isolation import IsolationLevel, is_serializable
from repro.predict import IsoPredict, PredictionStrategy
from repro.validate import validate_prediction

CAUSAL = IsolationLevel.CAUSAL


def deposit_program(amount):
    def program(client, rng):
        balance = client.get("acct")
        client.put("acct", (balance or 0) + amount)
        client.commit()
        yield

    return program


def withdraw_program(amount):
    def program(client, rng):
        balance = client.get("acct")
        if (balance or 0) < amount:
            client.rollback()
        else:
            client.put("acct", balance - amount)
            client.commit()
        yield

    return program


def chain(*programs):
    def program(client, rng):
        for p in programs:
            yield from p(client, rng)

    return program


class TestDepositValidation:
    PROGRAMS = {
        "s1": deposit_program(50),
        "s2": deposit_program(60),
    }

    def test_valid_prediction_validates(self):
        observed = gallery.deposit_observed()
        result = IsoPredict(
            CAUSAL, PredictionStrategy.APPROX_RELAXED
        ).predict(observed)
        report = validate_prediction(
            result.predicted,
            self.PROGRAMS,
            CAUSAL,
            observed=observed,
            initial={"acct": 0},
        )
        assert report.validated
        assert not is_serializable(report.validating)
        # the lost-update outcome: both transactions read balance 0
        values = {
            t.tid: t.reads[0].value
            for t in report.validating.transactions()
        }
        assert set(values.values()) == {0}

    def test_validating_execution_is_causal(self):
        observed = gallery.deposit_observed()
        result = IsoPredict(
            CAUSAL, PredictionStrategy.APPROX_RELAXED
        ).predict(observed)
        report = validate_prediction(
            result.predicted,
            self.PROGRAMS,
            CAUSAL,
            observed=observed,
            initial={"acct": 0},
        )
        from repro.isolation import is_causal

        assert is_causal(report.validating)


class TestFig9FalsePrediction:
    """The paper's divergence showcase: the relaxed prediction makes
    withdraw read balance 0, the withdraw aborts, and the validating
    execution is serializable — a false prediction caught by validation."""

    PROGRAMS = {
        "s1": chain(deposit_program(60), deposit_program(5)),
        "s2": withdraw_program(50),
    }

    def observed(self):
        from repro.bench_apps.base import record_observed  # noqa: F401
        from repro.store import DataStore, LatestWriterPolicy, SerialScheduler

        store = DataStore(initial={"acct": 0})
        sched = SerialScheduler(
            store,
            self.PROGRAMS,
            lambda s: LatestWriterPolicy(),
            seed=0,
            turn_order=["s1", "s2", "s1"],
        )
        return sched.run()

    def test_observed_matches_fig9a(self):
        h = self.observed()
        assert len(h) == 3
        assert is_serializable(h)

    def test_fig9c_prediction_fails_validation(self):
        """Validate the paper's exact Fig. 9c prediction: the withdraw
        reads balance 0, aborts (Fig. 9d), and the validating execution is
        serializable — validation rejects the false prediction."""
        observed = self.observed()
        predicted = gallery.fig9c_predicted()
        report = validate_prediction(
            predicted,
            self.PROGRAMS,
            CAUSAL,
            observed=observed,
            initial={"acct": 0},
        )
        # divergence: the withdraw aborts when reading balance 0 (Fig. 9d)
        assert report.diverged
        assert not report.validated
        assert is_serializable(report.validating)

    def test_solver_prediction_validates_or_diverges(self):
        """Whatever model the solver returns must either validate as
        unserializable or be caught as divergent (never a silently wrong
        answer)."""
        observed = self.observed()
        result = IsoPredict(
            CAUSAL, PredictionStrategy.APPROX_RELAXED
        ).predict(observed)
        assert result.found
        report = validate_prediction(
            result.predicted,
            self.PROGRAMS,
            CAUSAL,
            observed=observed,
            initial={"acct": 0},
        )
        assert report.validated or report.diverged


class TestStructuralDivergence:
    def test_missing_transaction_is_divergence(self):
        """A predicted-committed transaction aborting => diverged."""
        observed = gallery.fig9_observed()
        predicted = gallery.fig9c_predicted()
        report = validate_prediction(
            predicted,
            TestFig9FalsePrediction.PROGRAMS,
            CAUSAL,
            observed=observed,
            initial={"acct": 0},
        )
        assert report.diverged

    def test_faithful_replay_not_divergent(self):
        observed = gallery.deposit_observed()
        report = validate_prediction(
            observed,  # "predict" the observed history itself
            TestDepositValidation.PROGRAMS,
            CAUSAL,
            observed=observed,
            initial={"acct": 0},
        )
        assert not report.diverged
        assert not report.validated  # observed execution is serializable


class TestBenchmarkValidation:
    def test_smallbank_end_to_end(self):
        """Record -> predict -> validate on the real Smallbank app."""
        from repro.bench_apps import Smallbank, WorkloadConfig, record_observed

        for seed in range(4):
            app = Smallbank(WorkloadConfig.small())
            out = record_observed(app, seed)
            result = IsoPredict(
                CAUSAL, PredictionStrategy.APPROX_RELAXED, max_seconds=60
            ).predict(out.history)
            if not result.found:
                continue
            replay_app = Smallbank(WorkloadConfig.small())
            report = validate_prediction(
                result.predicted,
                replay_app.programs(),
                CAUSAL,
                observed=out.history,
                seed=seed,
                initial=replay_app.initial_state(),
            )
            assert report.validated, f"seed {seed} failed validation"
            return
        pytest.skip("no prediction found on the first four seeds")
