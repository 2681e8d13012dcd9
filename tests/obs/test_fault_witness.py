"""The PR 8 gap closed: faults at the sharded commit and fuzz iteration
seams, absorbed in place and witnessed in telemetry.

The robustness invariant extends to the new points — **faults never
change verdicts** (nor fuzz corpora), and every injected fault is
visible both in ``fault_counters()`` and, when telemetry is on, as a
registry counter plus an instant ``fault.injected`` trace event.
"""
import pytest

from repro.bench_apps import Smallbank, WorkloadConfig, record_observed
from repro.faults import (
    InjectedCorruption,
    fault_counters,
    guarded_fault_point,
    install_plan,
    reset_fault_state,
)
from repro.fuzz import FuzzConfig, Fuzzer
from repro.obs import get_registry, load_events, telemetry_session
from repro.store import ShardedBackend


@pytest.fixture(autouse=True)
def fast_retries(monkeypatch):
    from repro.faults import RETRY_BACKOFF_ENV

    monkeypatch.setenv(RETRY_BACKOFF_ENV, "0.001")


class TestGuardedFaultPoint:
    def test_transient_faults_are_absorbed_with_retries(self):
        install_plan("seam:io*2")
        for _ in range(3):
            guarded_fault_point("seam")
        counters = fault_counters()
        assert counters["injected"] == {"seam:io": 2}
        assert counters["retries"] == {"seam|inline": 2}

    def test_non_transient_faults_propagate(self):
        install_plan("seam:corrupt")
        with pytest.raises(InjectedCorruption):
            guarded_fault_point("seam")

    def test_exhausted_budget_propagates(self, monkeypatch):
        from repro.faults import MAX_RETRIES_ENV, InjectedIOError

        monkeypatch.setenv(MAX_RETRIES_ENV, "1")
        install_plan("seam:io*5")
        with pytest.raises(InjectedIOError):
            guarded_fault_point("seam")


class TestShardedCommitFaults:
    def test_transient_commit_fault_never_changes_the_history(self):
        app = Smallbank(WorkloadConfig.tiny())
        clean = record_observed(app, 1, backend=ShardedBackend(shards=2))
        reset_fault_state()
        install_plan("store.sharded.commit:io*2")
        faulted = record_observed(
            app, 1, backend=ShardedBackend(shards=2)
        )
        from repro.history import history_to_json

        assert history_to_json(faulted.history) == history_to_json(
            clean.history
        )
        assert fault_counters()["injected"] == {
            "store.sharded.commit:io": 2
        }
        assert fault_counters()["retries"] == {
            "store.sharded.commit|inline": 2
        }

    def test_corruption_at_the_commit_seam_propagates(self):
        install_plan("store.sharded.commit:corrupt")
        with pytest.raises(InjectedCorruption):
            record_observed(
                Smallbank(WorkloadConfig.tiny()), 1,
                backend=ShardedBackend(shards=2),
            )


class TestFuzzIterationFaults:
    def test_faulted_run_matches_its_fault_free_twin(self, tmp_path):
        config = FuzzConfig(seed=0, iterations=4)
        clean = Fuzzer(config, corpus_path=tmp_path / "a.jsonl").run()
        reset_fault_state()
        install_plan("fuzz.iteration:io;fuzz.iteration:crash@2")
        faulted = Fuzzer(config, corpus_path=tmp_path / "b.jsonl").run()
        # the fault fires before any RNG draw, so the mutation stream —
        # and therefore the discovered shapes — must be untouched
        assert faulted.shapes == clean.shapes
        assert (tmp_path / "a.jsonl").read_bytes() == (
            tmp_path / "b.jsonl"
        ).read_bytes()
        assert fault_counters()["injected"] == {
            "fuzz.iteration:io": 1,
            "fuzz.iteration:crash": 1,
        }


class TestTelemetryWitness:
    def test_fired_faults_mirror_into_registry_and_trace(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        install_plan("seam:io*2")
        with telemetry_session(str(sink), command="chaos"):
            guarded_fault_point("seam")
            reg = get_registry()
            assert reg.counter("faults_injected").value("seam:io") == 2
            assert reg.counter("fault_retries").value("seam|inline") == 2
        events = load_events(str(sink))
        points = [e for e in events if e.get("event") == "point"
                  and e["name"] == "fault.injected"]
        assert len(points) == 2
        assert points[0]["attrs"]["point"] == "seam"
        assert points[0]["attrs"]["kind"] == "io"
        (metrics,) = [e["metrics"] for e in events
                      if e.get("event") == "metrics"]
        assert metrics["faults_injected"]["values"] == {"seam:io": 2}

    def test_faults_count_without_telemetry_too(self):
        install_plan("seam:io")
        guarded_fault_point("seam")
        assert fault_counters()["injected"] == {"seam:io": 1}
        assert get_registry().snapshot() == {}
