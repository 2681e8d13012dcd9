"""StoreBackend protocol: the in-memory backend and custom drop-ins."""
import pytest

from repro.bench_apps import Smallbank, WorkloadConfig, record_observed
from repro.history import history_to_json
from repro.isolation import is_serializable
from repro.store import (
    DEFAULT_BACKEND,
    BackendRun,
    InMemoryBackend,
    LatestWriterPolicy,
    StoreBackend,
)


class CountingBackend:
    """A drop-in backend that counts executions (protocol conformance)."""

    name = "counting"

    def __init__(self):
        self.inner = InMemoryBackend()
        self.executions = 0

    def new_store(self, initial=None):
        return self.inner.new_store(initial)

    def execute(self, programs, policy_factory, **kwargs):
        self.executions += 1
        return self.inner.execute(programs, policy_factory, **kwargs)


class TestInMemoryBackend:
    def test_satisfies_protocol(self):
        assert isinstance(InMemoryBackend(), StoreBackend)
        assert isinstance(CountingBackend(), StoreBackend)

    def test_default_backend_is_in_memory(self):
        assert isinstance(DEFAULT_BACKEND, InMemoryBackend)

    def test_new_store_preloads_initial(self):
        store = InMemoryBackend().new_store({"x": 1})
        assert store.initial_values == {"x": 1}

    def test_execute_records_history(self):
        def program(client, rng):
            client.put("x", 1)
            client.commit()
            yield

        run = InMemoryBackend().execute(
            {"s1": program},
            lambda s: LatestWriterPolicy(),
            initial={"x": 0},
        )
        assert isinstance(run, BackendRun)
        assert len(run.history) == 1
        assert run.store.initial_values == {"x": 0}

    def test_turn_order_and_interleaved_conflict(self):
        with pytest.raises(ValueError, match="turn_order"):
            InMemoryBackend().execute(
                {}, lambda s: None, interleaved=True, turn_order=["s1"]
            )


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
        assert backend.executions == 1
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
            assert backend.executions == 2
