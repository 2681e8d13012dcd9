"""Verdict table over every gallery history, level and strategy.

Every history :mod:`repro.gallery` exports (each Figure 10 pattern as
its observed and predicted pair) is analyzed under causal, read atomic
and read committed with all four strategies. The table pins each verdict,
and every SAT prediction is cross-checked with the graph-side oracles:
valid under the level it was predicted for, and unserializable.

The pinned letters must also respect the orders the analysis
guarantees: an approximate prediction lies in the exact
space (approx-X SAT implies exact-X SAT), the relaxed boundary admits
everything the strict one does, and a prediction valid under a stronger
level is one under every weaker level (causal, then ra, then rc).
"""
import pytest

import repro.gallery as gallery_mod
from repro.isolation import IsolationLevel, is_serializable, is_valid_under
from repro.predict import IsoPredict, PredictionStrategy
from repro.smt import Result

LEVELS = ("causal", "ra", "rc")  # strongest first
STRATEGIES = ("approx-strict", "exact-strict", "approx-relaxed",
              "exact-relaxed")
LETTER = {Result.SAT: "s", Result.UNSAT: "u", Result.UNKNOWN: "?"}

# name -> one string per level in LEVELS order, one letter per strategy
# in STRATEGIES order: s = SAT, u = UNSAT, ? = UNKNOWN.
VERDICTS = {
    "deposit_observed": ("uuss", "uuss", "uuss"),
    "deposit_unserializable": ("ssss", "ssss", "ssss"),
    "fig10_patterns:smallbank_ab:0": ("ssss", "ssss", "ssss"),
    "fig10_patterns:smallbank_ab:1": ("ssss", "ssss", "ssss"),
    "fig10_patterns:smallbank_cd:0": ("ssss", "ssss", "ssss"),
    "fig10_patterns:smallbank_cd:1": ("ssss", "ssss", "ssss"),
    "fig10_patterns:tpcc_ef:0": ("uuss", "uuss", "uuss"),
    "fig10_patterns:tpcc_ef:1": ("ssss", "ssss", "ssss"),
    "fig10_patterns:tpcc_gh:0": ("ssss", "ssss", "ssss"),
    "fig10_patterns:tpcc_gh:1": ("ssss", "ssss", "ssss"),
    "fig5_history": ("ssss", "ssss", "ssss"),
    "fig6_history": ("uuuu", "uuuu", "uuuu"),
    "fig7a_wikipedia_observed": ("uuss", "uuss", "ssss"),
    "fig7b_wikipedia_predicted": ("ssss", "ssss", "ssss"),
    "fig7c_wikipedia_observed": ("uuuu", "ssss", "ssss"),
    "fig7d_wikipedia_noncausal": ("uuuu", "ssss", "ssss"),
    "fig8a_smallbank_observed": ("ssss", "ssss", "ssss"),
    "fig8b_smallbank_predicted": ("ssss", "ssss", "ssss"),
    "fig9_observed": ("uuss", "uuss", "ssss"),
    "fig9c_predicted": ("ssss", "ssss", "ssss"),
    "mined_session_stale_read_observed": ("uuuu", "uuuu", "ssss"),
    "mined_session_stale_read_predicted": ("uuuu", "uuuu", "ssss"),
    "shard_transfer_observed": ("uuss", "uuss", "uuss"),
    "shard_transfer_predicted": ("ssss", "ssss", "ssss"),
}


def full_gallery() -> dict:
    """Every gallery history as one name -> history map."""
    histories = {}
    for name in gallery_mod.__all__:
        value = getattr(gallery_mod, name)()
        if isinstance(value, dict):  # fig10_patterns: (observed, predicted)
            for key, pair in value.items():
                for i, history in enumerate(pair):
                    histories[f"{name}:{key}:{i}"] = history
        else:
            histories[name] = value
    return histories


def verdicts(history, level: str) -> str:
    """The level's verdict letters; asserts every prediction is sound."""
    isolation = IsolationLevel.parse(level)
    letters = ""
    for strategy in STRATEGIES:
        result = IsoPredict(
            isolation, PredictionStrategy.parse(strategy)
        ).predict(history)
        if result.found:
            assert is_valid_under(result.predicted, isolation), strategy
            assert not is_serializable(result.predicted), strategy
        letters += LETTER[result.status]
    return letters


GALLERY = full_gallery()


def test_table_covers_the_whole_gallery():
    assert set(GALLERY) == set(VERDICTS)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_verdicts_match_the_table(name, level):
    history = GALLERY[name]
    assert verdicts(history, level) == VERDICTS[name][LEVELS.index(level)]


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_table_respects_strategy_and_level_orders(name):
    """The pinned letters themselves obey the orders; the table test
    above ties them to the analysis."""
    table = VERDICTS[name]
    assert "?" not in "".join(table)  # gallery histories always decide
    for row in table:
        found = dict(zip(STRATEGIES, (letter == "s" for letter in row)))
        for boundary in ("strict", "relaxed"):
            assert found[f"exact-{boundary}"] >= found[f"approx-{boundary}"]
        for encoding in ("approx", "exact"):
            assert found[f"{encoding}-relaxed"] >= found[f"{encoding}-strict"]
    for stronger, weaker in zip(table, table[1:]):
        for strong, weak in zip(stronger, weaker):
            assert weak == "s" or strong != "s"
