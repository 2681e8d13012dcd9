"""A campaign spec expands and validates its rounds once, at construction."""
from dataclasses import replace

from repro.campaign import CampaignSpec, RoundSpec


def spec(**overrides):
    base = dict(
        apps=("smallbank", "voter"),
        isolation_levels=("causal", "rc"),
        strategies=("approx-relaxed",),
        workloads=("tiny",),
        seeds=3,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def test_rounds_are_expanded_once(monkeypatch):
    built = []
    original = RoundSpec.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(RoundSpec, "__post_init__", counting)
    campaign = spec()
    assert len(built) == 12
    first = campaign.rounds()
    for _ in range(5):
        assert campaign.rounds() is first
    assert len(built) == 12


def test_the_expansion_is_not_part_of_the_spec_value():
    a, b = spec(), spec()
    assert a == b and hash(a) == hash(b)
    assert "RoundSpec" not in repr(a)
    assert "_rounds" not in a.to_mapping()
    assert CampaignSpec.from_mapping(a.to_mapping()) == a


def test_replace_expands_again():
    campaign = spec()
    fewer = replace(campaign, seeds=1)
    assert len(campaign.rounds()) == 12
    assert len(fewer.rounds()) == 4
    assert {r.seed for r in fewer.rounds()} == {0}
    capped = replace(campaign, max_rounds=5)
    assert capped.rounds() == campaign.rounds()[:5]
