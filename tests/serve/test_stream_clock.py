"""The stream clock starts with the run, not with the engine's construction."""
import pytest

from repro.obs import reset_registry, reset_telemetry, telemetry_session
from repro.serve import StreamingAnalysis
from repro.sources import FuzzSource


@pytest.fixture(autouse=True)
def _clean_telemetry():
    reset_telemetry()
    reset_registry()
    yield
    reset_telemetry()
    reset_registry()


def test_engine_built_before_a_fixed_clock_session_reads_zero(tmp_path):
    engine = StreamingAnalysis(
        FuzzSource(shape_seed=3), window=8, k=1, max_runs=1
    )
    with telemetry_session(
        str(tmp_path / "t.jsonl"), command="watch", clock="fixed"
    ):
        report = engine.run()
    summary = report.metrics.summary()
    assert summary["elapsed_seconds"] == 0.0
    assert summary["findings_per_sec"] == 0.0


def test_real_clock_elapsed_is_never_negative():
    engine = StreamingAnalysis(
        FuzzSource(shape_seed=3), window=8, k=1, max_runs=1
    )
    report = engine.run()
    assert report.metrics.elapsed_seconds >= 0.0
