"""Golden round-path report: the verdicts of a fixed tiny sweep never move.

The sweep is smallbank, tpcc and wikipedia × causal/rc ×
approx-relaxed/exact-strict, in predict and monkeydb modes, over tiny
seeds 0–7, run inline (the ``--jobs 1`` path). It exercises the whole
round path — recording on the MonkeyDB-style store, SQL parsing, encoding,
solving, CEGIS checks and the §5 validation replay — so a change that only
claims to make that path faster must leave ``golden_rounds.json`` untouched.

Only verdict-level fields are pinned (see ``VERDICT_FIELDS``); encoding
counters (``clauses``, ``literals``, ``candidates``) are left out so encoder
changes need not regenerate the fixture.

Regenerate the fixture (only on a commit whose verdicts are trusted) with::

    PYTHONPATH=src python tests/campaign/test_golden_rounds.py \\
        > tests/campaign/golden_rounds.json

The second test replays every prediction the sweep validated twice: with
:class:`DirectedReplayPolicy` (which checks only the writers it asks about)
and with an eager reference that evaluates the full legal-writer set first,
as the policy once did. Both must produce the same validating execution.
"""
import json
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.rounds import run_round
from repro.isolation import IsolationLevel
from repro.sources import ReplayHandle
from repro.store.policies import DirectedReplayPolicy, legal_writers
from repro.validate import validator

FIXTURE = Path(__file__).with_name("golden_rounds.json")

SPEC = CampaignSpec(
    name="golden",
    apps=("smallbank", "tpcc", "wikipedia"),
    isolation_levels=("causal", "rc"),
    strategies=("approx-relaxed", "exact-strict"),
    workloads=("tiny",),
    seeds=8,
    modes=("predict", "monkeydb"),
)

VERDICT_FIELDS = (
    "status",
    "predicted",
    "validated",
    "diverged",
    "unserializable",
    "assertion_failed",
    "committed",
    "reads",
    "writes",
)


def golden_report(replays=None) -> dict:
    """Run the sweep inline; ``{round_id: verdict fields}``.

    When ``replays`` is a list, every validation the sweep performs is
    appended to it as ``(handle, predicted, isolation, observed)``.
    """
    original = ReplayHandle.validate

    def recording(handle, predicted, isolation, observed=None):
        replays.append((handle, predicted, isolation, observed))
        return original(handle, predicted, isolation, observed)

    report = {}
    with pytest.MonkeyPatch.context() as mp:
        if replays is not None:
            mp.setattr(ReplayHandle, "validate", recording)
        for spec in SPEC.rounds():
            row = run_round(spec).comparable_dict()
            report[spec.round_id] = {f: row[f] for f in VERDICT_FIELDS}
    return report


def dumps(report: dict) -> str:
    """One round per line, so a changed verdict shows as a one-line diff."""
    lines = [
        f"{json.dumps(rid)}: {json.dumps(row, sort_keys=True)}"
        for rid, row in sorted(report.items())
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def sweep():
    replays: list = []
    return golden_report(replays), replays


def test_golden_report_matches_fixture(sweep):
    report, _ = sweep
    assert report.keys() == json.loads(FIXTURE.read_text()).keys()
    assert dumps(report) == FIXTURE.read_text()


class EagerReplayPolicy(DirectedReplayPolicy):
    """The reference: compute the full legal set, then pick from it."""

    def choose(self, ctx):
        legal = set(legal_writers(ctx, self.level))
        index = self._cursor.get(ctx.tid, 0)
        self._cursor[ctx.tid] = index + 1
        predicted = self._predicted_read(ctx, index)
        if predicted is not None:
            predicted_writer = self._validating_tid(predicted.writer)
            if predicted.key != ctx.key:
                reason = "key-mismatch"
            elif predicted_writer is None or not ctx.store.wrote(
                predicted_writer, ctx.key
            ):
                reason = "writer-missing"
            elif predicted_writer == ctx.tid:
                reason = "self-read"
            elif predicted_writer not in legal:
                reason = "isolation-illegal"
            else:
                return predicted_writer
            self.divergences.append(
                {
                    "tid": ctx.tid,
                    "key": ctx.key,
                    "predicted": predicted.writer,
                    "reason": reason,
                }
            )
        observed = self._observed_read(ctx, index)
        if observed is not None and observed.key == ctx.key:
            observed_writer = self._validating_tid(observed.writer)
            if observed_writer in legal:
                return observed_writer
        latest = ctx.store.latest_writer(ctx.key)
        if latest in legal:
            return latest
        return latest if not legal else sorted(legal)[0]


def _replay(handle, predicted, isolation, observed):
    report = handle.validate(predicted, isolation, observed)
    return (
        [
            (t.tid, t.session, t.index, t.events, t.commit_pos)
            for t in report.validating.transactions()
        ],
        report.divergences,
        report.validated,
        report.diverged,
    )


def test_lazy_replay_matches_eager_reference(sweep, monkeypatch):
    _, replays = sweep
    assert len(replays) >= 30  # the sweep validates every sat predict round
    assert {iso for _, _, iso, _ in replays} == {
        IsolationLevel.CAUSAL,
        IsolationLevel.READ_COMMITTED,
    }
    lazy = [_replay(*args) for args in replays]
    monkeypatch.setattr(validator, "DirectedReplayPolicy", EagerReplayPolicy)
    eager = [_replay(*args) for args in replays]
    assert lazy == eager
    # the sweep's replays do diverge somewhere, so the fallback path is hit
    assert any(divergences for _, divergences, _, _ in lazy)


if __name__ == "__main__":
    sys.stdout.write(dumps(golden_report()))
