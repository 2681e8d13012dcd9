"""Pin the schedules the recording executors produce.

One sha256 over ``history_to_json`` of 724 recordings: ``record_observed``,
``run_random_weak`` (causal) and ``run_interleaved_rc`` of every benchmark
app × tiny/small/large × seeds 0–5, plus ``record_observed`` of
``random_app(0..199)`` × seeds 0–1. A change to how the schedulers pick
and switch sessions must keep every recording, and with it every round
verdict downstream, byte-identical. Print the digest from the repository
root with::

    PYTHONPATH=src python -m tests.store.test_recording_pin
"""
import hashlib
import json

from repro.bench_apps import (
    ALL_APPS,
    WorkloadConfig,
    record_observed,
    run_interleaved_rc,
    run_random_weak,
)
from repro.fuzz import random_app
from repro.history import history_to_json
from repro.isolation import IsolationLevel

RECORDING_DIGEST = (
    "25740a70ef441e5044213f04bba3e308fe384762c8cdb809bc3924b5db32805d"
)
WORKLOADS = (WorkloadConfig.tiny, WorkloadConfig.small, WorkloadConfig.large)


def recordings():
    for app_cls in ALL_APPS:
        for workload in WORKLOADS:
            for seed in range(6):
                app = app_cls(workload())
                yield record_observed(app, seed).history
                yield run_random_weak(app, seed, IsolationLevel.CAUSAL).history
                yield run_interleaved_rc(app, seed).history
    for shape_seed in range(200):
        for seed in range(2):
            yield record_observed(random_app(shape_seed), seed).history


def recording_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for history in recordings():
        digest.update(
            json.dumps(history_to_json(history), sort_keys=True).encode()
        )
        count += 1
    return count, digest.hexdigest()


def test_recordings_match_the_pinned_schedules():
    count, digest = recording_digest()
    assert count == 724
    assert digest == RECORDING_DIGEST


if __name__ == "__main__":
    print(recording_digest())
