"""CampaignSpec / RoundSpec: parsing, validation, deterministic expansion."""
import json

import pytest

from repro.campaign import CampaignSpec, RoundSpec
from repro.campaign.spec import KNOWN_APPS


def test_defaults_expand():
    spec = CampaignSpec()
    rounds = spec.rounds()
    assert len(rounds) == 3  # 1 app x 1 level x 1 strategy x 3 seeds
    assert all(r.mode == "predict" for r in rounds)
    assert [r.seed for r in rounds] == [0, 1, 2]


def test_product_expansion_order_is_deterministic():
    spec = CampaignSpec(
        apps=("smallbank", "voter"),
        isolation_levels=("causal", "rc"),
        strategies=("approx-strict", "approx-relaxed"),
        seeds=2,
    )
    rounds = spec.rounds()
    assert len(rounds) == 2 * 2 * 2 * 2
    assert rounds == spec.rounds()  # stable
    # seed varies fastest, app slowest (per workload/mode)
    assert rounds[0].cell == rounds[1].cell
    assert rounds[0].seed == 0 and rounds[1].seed == 1
    assert rounds[0].app == "smallbank" and rounds[-1].app == "voter"


def test_seed_forms():
    assert CampaignSpec(seeds=4).seeds == (0, 1, 2, 3)
    assert CampaignSpec(seeds="4").seeds == (0, 1, 2, 3)  # CLI count form
    assert CampaignSpec(seeds="0,3,7").seeds == (0, 3, 7)
    assert CampaignSpec(seeds="7,").seeds == (7,)
    assert CampaignSpec(seeds=[5, 6]).seeds == (5, 6)
    with pytest.raises(ValueError):
        CampaignSpec(seeds=0)


def test_comma_strings_and_all_alias():
    spec = CampaignSpec(
        apps="all", isolation_levels="causal, rc", strategies="approx-strict"
    )
    assert spec.apps == KNOWN_APPS
    assert spec.isolation_levels == ("causal", "rc")


def test_canonicalizes_levels_and_strategies():
    spec = CampaignSpec(
        isolation_levels=("read_committed",), strategies=("APPROX-RELAXED",)
    )
    assert spec.isolation_levels == ("rc",)
    assert spec.strategies == ("approx-relaxed",)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"apps": ("nosuchapp",)},
        {"isolation_levels": ("snapshot",)},
        {"strategies": ("magic",)},
        {"workloads": ("huge",)},
        {"modes": ("replay",)},
        {"max_rounds": 0},
    ],
)
def test_bad_specs_fail_eagerly(kwargs):
    with pytest.raises(ValueError):
        CampaignSpec(**kwargs)


def test_round_budget_truncates_deterministically():
    full = CampaignSpec(apps=("smallbank", "voter"), seeds=5)
    capped = CampaignSpec(apps=("smallbank", "voter"), seeds=5, max_rounds=7)
    assert len(capped.rounds()) == 7
    assert capped.rounds() == full.rounds()[:7]


def test_round_ids_unique_and_stable():
    spec = CampaignSpec(
        apps=("smallbank", "voter"),
        isolation_levels=("causal", "rc"),
        seeds=3,
        modes=("predict", "monkeydb"),
    )
    ids = [r.round_id for r in spec.rounds()]
    assert len(ids) == len(set(ids))
    assert ids[0] == (
        "predict:smallbank:smallx1:causal:approx-relaxed"
        ":k=1:val=1:t=120:seed=0"
    )


def test_round_id_tracks_result_affecting_knobs():
    """Changing k/validate/budget must change predict round identity,
    otherwise --resume would serve stale results for the new settings."""
    base = dict(
        app="smallbank", isolation="causal", strategy="approx-relaxed",
        workload="tiny", seed=0,
    )
    ids = {
        RoundSpec(**base).round_id,
        RoundSpec(**base, max_predictions=3).round_id,
        RoundSpec(**base, validate=False).round_id,
        RoundSpec(**base, max_seconds=None).round_id,
    }
    assert len(ids) == 4


def test_empty_lists_rejected():
    with pytest.raises(ValueError, match="empty"):
        CampaignSpec(apps=[])
    with pytest.raises(ValueError, match="empty"):
        CampaignSpec.from_mapping({"workloads": []})


def test_non_predict_modes_ignore_strategies_and_pin_interleaved_rc():
    spec = CampaignSpec(
        isolation_levels=("causal", "rc"),
        strategies=("approx-strict", "approx-relaxed"),
        seeds=2,
        modes=("monkeydb", "interleaved"),
    )
    monkey = [r for r in spec.rounds() if r.mode == "monkeydb"]
    inter = [r for r in spec.rounds() if r.mode == "interleaved"]
    assert len(monkey) == 2 * 2  # levels x seeds, strategies collapsed
    assert len(inter) == 2  # isolation pinned to rc
    assert all(r.isolation == "rc" for r in inter)
    assert all(r.strategy == "-" for r in monkey + inter)


def test_mapping_roundtrip():
    spec = CampaignSpec(
        name="rt", apps=("voter",), seeds=(1, 9), max_predictions=3
    )
    assert CampaignSpec.from_mapping(spec.to_mapping()) == spec


def test_from_mapping_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown campaign spec keys"):
        CampaignSpec.from_mapping({"app": "smallbank"})


def test_from_json_file(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(
        json.dumps({"apps": ["smallbank"], "seeds": 2, "workloads": ["tiny"]})
    )
    spec = CampaignSpec.from_file(path)
    assert spec.name == "sweep"  # defaults to the file stem
    assert spec.seeds == (0, 1)
    assert spec.workloads == ("tiny",)


def test_from_toml_file(tmp_path):
    path = tmp_path / "sweep.toml"
    path.write_text(
        '[campaign]\nname = "nightly"\napps = ["smallbank", "voter"]\n'
        'isolation_levels = ["causal", "rc"]\nseeds = 4\n'
        "max_predictions = 2\n"
    )
    spec = CampaignSpec.from_file(path)
    assert spec.name == "nightly"
    assert spec.apps == ("smallbank", "voter")
    assert spec.seeds == (0, 1, 2, 3)
    assert spec.max_predictions == 2
    assert len(spec.rounds()) == 2 * 2 * 4


def test_workload_config_shapes():
    tiny = RoundSpec(
        app="smallbank", isolation="causal", strategy="approx-strict",
        workload="tiny", seed=0,
    ).workload_config()
    assert (tiny.sessions, tiny.txns_per_session) == (2, 2)
    scaled = RoundSpec(
        app="smallbank", isolation="causal", strategy="approx-strict",
        workload="large", seed=0, ops_scale=2,
    ).workload_config()
    assert scaled.txns_per_session == 8 and scaled.ops_scale == 2


class TestSources:
    def test_default_source_keeps_round_id_format(self):
        round_ = CampaignSpec().rounds()[0]
        assert round_.source == "bench"
        assert not round_.round_id.startswith("bench:")  # legacy ids resume

    def test_fuzz_source_labels_and_ids(self):
        spec = CampaignSpec(source="fuzz", seeds=2, workloads=("tiny",))
        rounds = spec.rounds()
        assert spec.apps == ("randomapp",)
        assert all(r.source == "fuzz" for r in rounds)
        assert all(r.round_id.startswith("fuzz:") for r in rounds)

    def test_trace_source_predict_only(self, tmp_path):
        source = f"trace:{tmp_path / 'saved.json'}"
        spec = CampaignSpec(source=source, seeds=1)
        assert spec.apps == ("saved",)
        with pytest.raises(ValueError, match="predict mode only"):
            CampaignSpec(source=source, modes=("monkeydb",), seeds=1)

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="unknown source"):
            CampaignSpec(source="database")
        with pytest.raises(ValueError, match="unknown source"):
            RoundSpec(
                app="smallbank", isolation="causal",
                strategy="approx-strict", workload="tiny", seed=0,
                source="trace:",  # empty path
            )

    def test_fuzz_history_source_is_fuzz(self):
        round_ = CampaignSpec(
            source="fuzz", seeds=1, workloads=("tiny",)
        ).rounds()[0]
        from repro.sources import FuzzSource

        source = round_.history_source()
        assert isinstance(source, FuzzSource)
        assert source.shape_seed == round_.seed

    def test_source_survives_mapping_roundtrip(self):
        spec = CampaignSpec(source="fuzz", seeds=2)
        assert CampaignSpec.from_mapping(spec.to_mapping()) == spec


class TestRemovedSolverField:
    def test_round_ids_keep_their_format(self):
        round_ = CampaignSpec().rounds()[0]
        assert "solver=" not in round_.round_id  # existing JSONL resumes

    def test_solver_key_is_refused(self):
        with pytest.raises(ValueError, match="unknown campaign spec keys"):
            CampaignSpec.from_mapping({"solver": "inprocess"})


class TestTraceSeedSweepWarning:
    def test_trace_source_with_many_seeds_warns(self, tmp_path):
        source = f"trace:{tmp_path / 'saved.json'}"
        with pytest.warns(UserWarning, match="re-label"):
            CampaignSpec(source=source, seeds=3)

    def test_trace_source_with_one_seed_is_silent(self, tmp_path, recwarn):
        source = f"trace:{tmp_path / 'saved.json'}"
        CampaignSpec(source=source, seeds=1)
        assert not [w for w in recwarn if "re-label" in str(w.message)]

    def test_bench_source_with_many_seeds_is_silent(self, recwarn):
        CampaignSpec(seeds=5)
        assert not [w for w in recwarn if "re-label" in str(w.message)]
