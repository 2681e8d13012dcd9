"""Each strategy's prediction space is pinned, not its search order.

For each configuration — the five tiny bench apps, record seeds 0–3,
causal and rc, approx-strict, approx-relaxed and exact-strict (120 in
all) — the prediction enumeration is drained until the solver answers
UNSAT, and the *set* of decoded (choice, boundary) assignments it
reported is reduced to a count and a sha256 digest. A decoded assignment
keeps only the reads inside their session's boundary, so it identifies
the predicted history; no two predictions of one drain may share it. The
set is what the strategy means; the order the solver visits it in is a
property of the search. Encoder, checker or SAT-core changes that only
move the search trajectory keep every digest; a change to a strategy's
semantics moves at least one. Draining exact-X over the same history
must also reach every approx-X assignment.

``model_space.json`` is generated from the repository root with::

    PYTHONPATH=src python tests/predict/test_model_space.py \\
        > tests/predict/model_space.json

Its 40 approx entries for seeds 0–1 were first generated on the commit
before the encoder folded statically known relation cells, and held
unchanged while the approximate strategy moved from an encoded pco
closure to checking each candidate's pco on the graph. Every entry was
then checked against that closure encoding's drains, projected onto the
reads inside the boundaries and deduplicated: the closure encoding
reported some predictions many times over, once per value of a choice
variable outside the boundary.
"""
from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.bench_apps import ALL_APPS, WorkloadConfig, record_observed
from repro.isolation import IsolationLevel
from repro.isolation.checkers import is_serializable
from repro.predict import (
    IsoPredict,
    PredictionEnumeration,
    PredictionStrategy,
)
from repro.smt import Result
from tests.predict.test_encoding_oracle import by_fingerprint

FIXTURE = Path(__file__).parent / "model_space.json"

APPS = ("smallbank", "tpcc", "voter", "wikipedia", "shardtransfer")
SEEDS = (0, 1, 2, 3)
LEVELS = ("causal", "rc")
STRATEGIES = ("approx-strict", "approx-relaxed", "exact-strict")
DRAIN = 4096  # larger than any configuration's space: ensure() ends on UNSAT

CONFIGS = [
    f"{app}/{seed}/{level}/{strategy}"
    for app in APPS
    for seed in SEEDS
    for level in LEVELS
    for strategy in STRATEGIES
]


@functools.lru_cache(maxsize=None)
def drain(config: str) -> PredictionEnumeration:
    """Every prediction of one configuration.

    ``ensure`` is re-called until the solver answers UNSAT: an exact
    strategy's call stops with UNKNOWN after ``max_candidates`` rejected
    candidates and resumes on the next.
    """
    app_name, seed, level, strategy = config.split("/")
    app = {a.name: a for a in ALL_APPS}[app_name]
    history = record_observed(app(WorkloadConfig.tiny()), int(seed)).history
    analyzer = IsoPredict(
        IsolationLevel.parse(level), PredictionStrategy.parse(strategy)
    )
    enum = analyzer.enumerator(history)
    for _ in range(DRAIN):
        enum.ensure(DRAIN)
        if enum.batch().status is Result.UNSAT:
            break
    return enum


def assignment_rows(enum: PredictionEnumeration) -> list[str]:
    """The reported assignments, keyed by the encoding's stable identifiers."""
    return [
        json.dumps(
            [
                sorted([*key, value] for key, value in choices.items()),
                sorted(boundaries.items()),
            ]
        )
        for choices, boundaries in enum.assignments
    ]


def model_space(config: str) -> dict:
    """Drain one configuration; its prediction count and assignment digest."""
    enum = drain(config)
    rows = sorted(assignment_rows(enum))
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    return {
        "status": enum.batch().status.value,
        "predictions": len(rows),
        "sha256": digest,
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_configuration(pinned):
    assert sorted(pinned) == sorted(CONFIGS)


@pytest.mark.parametrize("config", CONFIGS)
def test_model_space_matches_fixture(config, pinned):
    got = model_space(config)
    assert got["status"] == Result.UNSAT.value  # drained, not cut short
    assert got == pinned[config]


@pytest.mark.parametrize("config", CONFIGS)
def test_predictions_are_pairwise_distinct(config):
    """No prediction is reported twice: rows are decoded assignments."""
    enum = drain(config)
    rows = assignment_rows(enum)
    assert len(set(rows)) == len(rows)
    assert len(by_fingerprint(enum)) == len(rows)


APPROX_CONFIGS = [c for c in CONFIGS if "/approx-" in c]


@pytest.mark.parametrize("config", APPROX_CONFIGS)
def test_exact_model_space_contains_approx(config):
    """Approx is sufficient for exact: CEGIS finds every approx prediction.

    Each approximate model is feasible, isolation-valid and unserializable,
    so the exact strategy's walk over the same boundary mode must reach
    its assignment too; the converse need not hold.
    """
    boundary = config.rsplit("-", 1)[1]
    approx = drain(config)
    exact = drain(f"{config.rsplit('/', 1)[0]}/exact-{boundary}")
    assert exact.batch().status is Result.UNSAT
    exact_rows = assignment_rows(exact)
    assert set(assignment_rows(approx)) <= set(exact_rows)
    assert len(set(exact_rows)) == len(exact_rows)  # pairwise distinct
    for prediction in exact.predictions:
        assert not is_serializable(prediction.predicted)
        assert prediction.cycle


if __name__ == "__main__":
    json.dump(
        {config: model_space(config) for config in CONFIGS},
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    sys.stdout.write("\n")
