"""Pin what ``isopredict watch`` reports, not only that it finds something.

Four fixed-clock streams run through :class:`StreamingAnalysis`:

* ``fuzz-two-lanes``: six fuzz runs under causal and rc (two lanes),
  k = 2, overlapping windows of 4 at stride 2;
* ``fuzz-exact-strict``: four fuzz runs under rc exact-strict, k = 2,
  windows of 5 at stride 2;
* ``smallbank-three-lanes``: the small smallbank recording of seed 1
  under causal, ra and rc, k = 3, windows of 6 at stride 3;
* ``tpcc-max-conflicts``: the small tpcc recording of seed 1 under rc,
  k = 2, windows of 8 at stride 4, with ``max_conflicts = 3`` (tight
  enough to cut one of the two findings the unbounded run reports).

One sha256 covers, per stream, ``StreamReport.summary()``, every
``Finding.to_json()`` and the integer stats of every finding's
prediction. Under the fixed clock every second, wall and rate in the
summary is 0, so the digest holds on any host. A change to the streaming
engine that claims to keep every verdict, finding and counter must keep
this digest.

``watch_pin.json`` is regenerated from the repository root with::

    PYTHONPATH=src python -m tests.serve.test_watch_pin \\
        > tests/serve/watch_pin.json
"""
import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.bench_apps import Smallbank, WorkloadConfig, record_observed
from repro.obs import telemetry_session
from repro.serve import StreamingAnalysis
from repro.sources import BenchAppSource, FuzzSource

PIN_PATH = Path(__file__).parent / "watch_pin.json"

STREAMS = {
    "fuzz-two-lanes": lambda: StreamingAnalysis(
        FuzzSource(shape_seed=0, count=6),
        window=4, stride=2, isolation=["causal", "rc"], k=2,
    ),
    "fuzz-exact-strict": lambda: StreamingAnalysis(
        FuzzSource(shape_seed=2, count=4),
        window=5, stride=2, isolation="rc", strategy="exact-strict", k=2,
    ),
    "smallbank-three-lanes": lambda: StreamingAnalysis(
        record_observed(Smallbank(WorkloadConfig.small()), 1).history,
        window=6, stride=3, isolation=["causal", "ra", "rc"], k=3,
    ),
    "tpcc-max-conflicts": lambda: StreamingAnalysis(
        BenchAppSource("tpcc", WorkloadConfig.small(), seed=1),
        window=8, stride=4, isolation="rc", k=2, max_conflicts=3,
    ),
}


def stream_record(name: str, workdir: str) -> dict:
    """Summary, findings and findings' integer stats of one stream."""
    engine = STREAMS[name]()
    trace = os.path.join(workdir, f"{name}.jsonl")
    with telemetry_session(trace, command="watch", clock="fixed"):
        report = engine.run()
    return {
        "stream": name,
        "summary": report.summary(),
        "findings": [finding.to_json() for finding in report.findings],
        "stats": [
            {
                key: value
                for key, value in finding.prediction.stats.items()
                if type(value) is int
            }
            for finding in report.findings
        ],
    }


def pin() -> dict:
    digest = hashlib.sha256()
    findings = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name in STREAMS:
            record = stream_record(name, workdir)
            findings += len(record["findings"])
            digest.update((json.dumps(record, sort_keys=True) + "\n").encode())
    return {
        "streams": len(STREAMS),
        "findings": findings,
        "sha256": digest.hexdigest(),
    }


def test_watch_reports_match_the_pin():
    assert pin() == json.loads(PIN_PATH.read_text())


if __name__ == "__main__":
    print(json.dumps(pin(), indent=2))
