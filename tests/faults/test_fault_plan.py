"""FaultSpec/FaultPlan: grammar, occurrence windows, env transport."""
import os

import pytest

from repro.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    active_plan,
    install_plan,
    reset_fault_state,
)


class TestFaultSpec:
    def test_parse_minimal(self):
        spec = FaultSpec.parse("store.sqlite.persist:busy")
        assert spec.point == "store.sqlite.persist"
        assert spec.kind == "busy"
        assert spec.times == 1 and spec.after == 0 and spec.seconds == 0.0

    def test_parse_full(self):
        spec = FaultSpec.parse("campaign.round:crash@3*2")
        assert (spec.after, spec.times) == (3, 2)
        spec = FaultSpec.parse("watch.window:hang~1.5")
        assert spec.seconds == 1.5

    @pytest.mark.parametrize(
        "text",
        [
            "campaign.round:crash",
            "campaign.round:crash@2",
            "campaign.round:io*3",
            "stream.jsonl.line:corrupt@1*4",
            "watch.window:hang~0.25",
        ],
    )
    def test_spec_round_trips(self, text):
        assert FaultSpec.parse(text).spec() == text
        assert FaultSpec.parse(FaultSpec.parse(text).spec()) == (
            FaultSpec.parse(text)
        )

    def test_fires_window(self):
        spec = FaultSpec(point="p", kind="io", after=2, times=3)
        assert [spec.fires(h) for h in range(7)] == [
            False, False, True, True, True, False, False,
        ]

    def test_rejections(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec.parse("p:explode")
        with pytest.raises(ValueError, match="expected 'point:kind"):
            FaultSpec.parse("no-colon")
        with pytest.raises(ValueError, match="times"):
            FaultSpec(point="p", kind="io", times=0)
        with pytest.raises(ValueError, match="after"):
            FaultSpec(point="p", kind="io", after=-1)


class TestFaultPlan:
    def test_parse_none_and_empty(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("  ;  ") is None

    def test_parse_passthrough(self):
        plan = FaultPlan.build(["campaign.round:crash"])
        assert FaultPlan.parse(plan) is plan

    def test_plan_round_trips_with_seed(self):
        text = "seed=7;campaign.round:crash@1*2;store.sqlite.persist:busy"
        plan = FaultPlan.parse(text)
        assert plan.seed == 7
        assert plan.spec() == text
        assert FaultPlan.parse(plan.spec()) == plan

    def test_for_point_groups_specs(self):
        plan = FaultPlan.parse("p:io;p:busy@1;q:crash")
        assert [s.kind for s in plan.for_point("p")] == ["io", "busy"]
        assert [s.kind for s in plan.for_point("q")] == ["crash"]
        assert plan.for_point("r") == []
        assert plan.points == ("p", "q")

    def test_env_transport(self):
        reset_fault_state()
        install_plan("campaign.round:crash@1", env=True)
        assert os.environ[FAULT_PLAN_ENV] == "campaign.round:crash@1"
        # a fresh process would lazily re-parse the env: simulate it
        reset_fault_state()
        plan = active_plan()
        assert plan is not None
        assert plan.for_point("campaign.round")[0].kind == "crash"
        install_plan(None, env=True)
        assert FAULT_PLAN_ENV not in os.environ
