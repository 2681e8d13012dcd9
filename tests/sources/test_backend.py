"""The one program executor: the in-memory default and custom drop-ins."""
import pytest

from repro.bench_apps import Smallbank, WorkloadConfig, record_observed
from repro.history import history_to_json
from repro.isolation import is_serializable
from repro.store import (
    BackendRun,
    DataStore,
    LatestWriterPolicy,
    StoreBackend,
    execute,
    make_store_backend,
)


class CountingBackend:
    """A drop-in backend that counts finished runs (protocol conformance)."""

    name = "counting"

    def __init__(self):
        self.phases = []

    @property
    def executions(self):
        return len(self.phases)

    def new_store(self, initial=None):
        return DataStore(initial=initial)

    def finish(self, store, history, *, phase, seed, sessions):
        self.phases.append(phase)
        return {"store_backend": self.name, "execution": self.executions}


def deposit(client, rng):
    client.put("x", 1)
    client.commit()
    yield


class TestExecute:
    def test_custom_backend_satisfies_protocol(self):
        assert isinstance(CountingBackend(), StoreBackend)

    @pytest.mark.parametrize("spec", [None, "inmemory", "memory"])
    def test_in_memory_default_is_none(self, spec):
        assert make_store_backend(spec) is None

    def test_execute_records_history_in_memory(self):
        run = execute(
            {"s1": deposit}, lambda s: LatestWriterPolicy(), initial={"x": 0}
        )
        assert isinstance(run, BackendRun)
        assert len(run.history) == 1
        assert run.store.initial_values == {"x": 0}
        assert run.meta == {}

    def test_backend_finishes_the_run_and_supplies_its_meta(self):
        backend = CountingBackend()
        run = execute(
            {"s1": deposit, "s2": deposit},
            lambda s: LatestWriterPolicy(),
            backend=backend,
            initial={"x": 0},
        )
        assert len(run.history) == 2
        assert backend.phases == ["record"]
        assert run.meta == {"store_backend": "counting", "execution": 1}

    def test_turn_order_and_interleaved_conflict(self):
        with pytest.raises(ValueError, match="turn_order"):
            execute({}, lambda s: None, interleaved=True, turn_order=["s1"])


class TestBackendInjection:
    def test_record_observed_accepts_custom_backend(self):
        backend = CountingBackend()
        outcome = record_observed(
            Smallbank(WorkloadConfig.tiny()), 0, backend=backend
        )
        assert backend.executions == 1
        assert is_serializable(outcome.history)

    def test_custom_backend_matches_default(self):
        via_default = record_observed(Smallbank(WorkloadConfig.tiny()), 1)
        via_custom = record_observed(
            Smallbank(WorkloadConfig.tiny()), 1, backend=CountingBackend()
        )
        assert history_to_json(via_default.history) == history_to_json(
            via_custom.history
        )

    def test_sources_thread_the_backend(self):
        from repro.sources import BenchAppSource

        backend = CountingBackend()
        source = BenchAppSource(
            Smallbank, WorkloadConfig.tiny(), seed=0, backend=backend
        )
        run = source.record()
        assert backend.phases == ["record"]
        # validation replays on the same backend
        from repro.predict import IsoPredict, PredictionStrategy
        from repro.isolation import IsolationLevel

        result = IsoPredict(
            IsolationLevel.READ_COMMITTED, PredictionStrategy.APPROX_STRICT
        ).predict(run.history)
        if result.found:
            run.replay.validate(
                result.predicted,
                IsolationLevel.READ_COMMITTED,
                observed=run.history,
            )
            assert backend.phases == ["record", "replay"]
