"""One CEGIS walk per (isolation, boundary), filtered by encoding mode.

Approx-X and exact-X assert the same clauses and add the same clause after
every candidate, so a :class:`PredictionEnumeration` walks once and each
strategy only filters what it recorded. Asking one strategy and then the
other of the same boundary must therefore answer exactly what a fresh
``predict_many`` of the second strategy answers: same status, same
predictions in the same order.
"""
from __future__ import annotations

import functools

import pytest

from repro.bench_apps import ALL_APPS, TPCC, WorkloadConfig, record_observed
from repro.isolation import IsolationLevel
from repro.predict import IsoPredict, PredictionStrategy, analysis
from repro.smt import Result
from tests.predict.test_encoding_oracle import by_fingerprint

SEEDS = (0, 1)
LEVELS = ("causal", "rc")
BOUNDARIES = ("strict", "relaxed")
K_PAIRS = ((1, 1), (1, 3), (3, 1))

CONFIGS = [
    f"{app.name}/tiny/{seed}/{level}/{boundary}"
    for app in ALL_APPS
    for seed in SEEDS
    for level in LEVELS
    for boundary in BOUNDARIES
]
# no tiny strict walk predicts anything; this small one predicts under both
CONFIGS.append("smallbank/small/2/rc/strict")


def outcome(batch) -> tuple:
    """The batch's status and its predictions' identities, in order."""
    return batch.status, list(by_fingerprint(batch))


@functools.lru_cache(maxsize=None)
def observed(app_name: str, workload: str, seed: int):
    app = {a.name: a for a in ALL_APPS}[app_name]
    config = getattr(WorkloadConfig, workload)()
    return record_observed(app(config), seed).history


@pytest.mark.parametrize("config", CONFIGS)
def test_shared_walk_answers_like_fresh_calls(config):
    check_shared_walk(config)


@pytest.mark.parametrize(
    "config", [c for c in CONFIGS if c.endswith("/relaxed")]
)
def test_shared_walk_answers_like_fresh_calls_across_the_gap(
    config, monkeypatch
):
    """No recorded history is known to hold an unserializable but
    pco-acyclic candidate, so without one the two filters agree and the
    walk's sharing goes untested. ``pco_cycle`` is stubbed to hide every
    other candidate's cycle (by a stable property of the history), so
    exact keeps candidates approx skips."""
    real = analysis.pco_cycle

    def gappy(history):
        writers = "".join(
            r.writer for t in history.transactions() for r in t.reads
        )
        return real(history) if sum(map(ord, writers)) % 2 else []

    monkeypatch.setattr(analysis, "pco_cycle", gappy)
    check_shared_walk(config)


def check_shared_walk(config: str) -> None:
    """Both orders of (approx, exact) on one walk, at each (k1, k2), answer
    like a fresh ``predict_many`` of the strategy asked."""
    app_name, workload, seed, level, boundary = config.split("/")
    history = observed(app_name, workload, int(seed))
    isolation = IsolationLevel.parse(level)
    approx = PredictionStrategy.parse(f"approx-{boundary}")
    exact = PredictionStrategy.parse(f"exact-{boundary}")

    @functools.lru_cache(maxsize=None)
    def fresh(strategy, k):
        return outcome(IsoPredict(isolation, strategy).predict_many(history, k))

    for first, second in ((approx, exact), (exact, approx)):
        for k1, k2 in K_PAIRS:
            enum = IsoPredict(isolation, first).enumerator(history)
            for strategy, k in ((first, k1), (second, k2)):
                enum.ensure(k, strategy)
                batch = enum.batch(k, strategy)
                assert batch.strategy is strategy
                assert outcome(batch) == fresh(strategy, k), (
                    f"{first} k={k1} then {second} k={k2}: {strategy} differs"
                )


def test_walk_of_other_boundary_is_refused():
    history = observed("smallbank", "tiny", 0)
    enum = IsoPredict(
        IsolationLevel.CAUSAL, PredictionStrategy.APPROX_STRICT
    ).enumerator(history)
    with pytest.raises(ValueError):
        enum.ensure(1, PredictionStrategy.APPROX_RELAXED)


def test_decode_spans_name_each_candidate_class(tmp_path):
    """The tpcc-small seed 1 causal approx-strict walk is UNSAT after 20
    candidates, each refined away by its witness order; its trace says so
    on every candidate's ``stage.decode`` span."""
    from repro.obs import load_events, telemetry_session

    history = record_observed(TPCC(WorkloadConfig.small()), 1).history
    sink = tmp_path / "t.jsonl"
    with telemetry_session(str(sink), command="test"):
        batch = IsoPredict(
            IsolationLevel.CAUSAL, PredictionStrategy.APPROX_STRICT
        ).predict_many(history, k=1)
    assert batch.status is Result.UNSAT
    assert batch.stats["candidates"] == 20
    decodes = [
        e["attrs"] for e in load_events(str(sink))
        if e.get("event") == "span" and e["name"] == "stage.decode"
    ]
    assert len(decodes) == 20
    assert all(attrs["kind"] == "refined" for attrs in decodes)
