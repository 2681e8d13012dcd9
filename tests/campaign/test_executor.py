"""Executor behaviour: determinism across jobs, JSONL streaming, resume."""
import json

import pytest

from repro.campaign import (
    CampaignExecutor,
    CampaignSpec,
    load_results,
    run_campaign,
)
from repro.campaign.rounds import TIMING_FIELDS

#: Fast but non-trivial: tiny smallbank has both sat and unsat seeds in 0..3.
SPEC = CampaignSpec(
    name="t",
    apps=("smallbank",),
    isolation_levels=("causal",),
    strategies=("approx-relaxed",),
    workloads=("tiny",),
    seeds=4,
    max_seconds=30.0,
    max_predictions=2,
)


def comparable(results):
    return sorted(
        (r.comparable_dict() for r in results), key=lambda d: d["round_id"]
    )


def test_inline_run_streams_jsonl_and_aggregates(tmp_path):
    out = tmp_path / "rounds.jsonl"
    report = run_campaign(SPEC, jobs=1, out=out)
    assert len(report.results) == 4
    assert report.errors == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert {l["round_id"] for l in lines} == {
        r.round_id for r in SPEC.rounds()
    }
    # tiny smallbank: seeds 2 and 3 predict, 0 and 1 are unsat
    (cell,) = report.cells.values()
    assert cell.rounds == 4
    assert cell.sat == 2 and cell.unsat == 2
    assert cell.predictions == 4  # k=2 enumeration found 2 per sat round
    assert cell.validated == 2
    summary = report.summary()
    assert "prediction rounds" in summary and "smallbank" in summary


def test_jobs4_matches_jobs1(tmp_path):
    r1 = run_campaign(SPEC, jobs=1, out=tmp_path / "j1.jsonl")
    r4 = run_campaign(SPEC, jobs=4, out=tmp_path / "j4.jsonl")
    assert comparable(r1.results) == comparable(r4.results)
    # and via the files, which is what resume/aggregation consume
    assert comparable(load_results(tmp_path / "j1.jsonl")) == comparable(
        load_results(tmp_path / "j4.jsonl")
    )


def test_resume_skips_completed_rounds(tmp_path):
    out = tmp_path / "rounds.jsonl"
    full = run_campaign(SPEC, jobs=1, out=out)
    # keep only the first two rounds, as if the campaign was killed
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[:2]) + "\n")
    kept = {json.loads(l)["round_id"] for l in lines[:2]}

    messages = []
    resumed = run_campaign(
        SPEC, jobs=1, out=out, resume=True, log=messages.append
    )
    assert comparable(resumed.results) == comparable(full.results)
    ids = [r.round_id for r in load_results(out)]
    assert len(ids) == 4 and len(set(ids)) == 4  # no duplicate records
    assert any("2/4 rounds already complete" in m for m in messages)
    # the executor only re-ran what was missing
    executed = [
        m for m in messages if ": sat" in m or ": unsat" in m
    ]
    assert len(executed) == 2
    assert all(i not in m for m in executed for i in kept)


def test_resume_retries_error_rounds(tmp_path):
    out = tmp_path / "rounds.jsonl"
    run_campaign(SPEC, jobs=1, out=out)
    records = [json.loads(l) for l in out.read_text().splitlines()]
    records[1]["status"] = "error"
    records[1]["error"] = "injected"
    out.write_text("\n".join(json.dumps(r) for r in records) + "\n")

    resumed = run_campaign(SPEC, jobs=1, out=out, resume=True)
    assert resumed.errors == 0  # the error round was re-executed


def test_resume_tolerates_truncated_final_line(tmp_path):
    out = tmp_path / "rounds.jsonl"
    run_campaign(SPEC, jobs=1, out=out)
    text = out.read_text()
    out.write_text(text[: len(text) // 2])  # kill mid-append
    resumed = run_campaign(SPEC, jobs=1, out=out, resume=True)
    assert len(resumed.results) == 4
    assert resumed.errors == 0


def test_timing_fields_are_excluded_from_comparisons():
    result = next(iter(run_campaign(SPEC, jobs=1).results))
    comparable_keys = set(result.comparable_dict())
    assert comparable_keys.isdisjoint(TIMING_FIELDS)
    assert result.wall_seconds > 0


def test_round_budget_limits_execution(tmp_path):
    import dataclasses

    capped = dataclasses.replace(SPEC, max_rounds=2)
    report = run_campaign(capped, jobs=1, out=tmp_path / "r.jsonl")
    assert len(report.results) == 2


def test_crashing_round_is_an_error_result(monkeypatch, tmp_path):
    import repro.sources as sources_mod
    from repro.campaign import rounds as rounds_mod

    def boom(app, seed, backend=None):
        raise RuntimeError("worker exploded")

    monkeypatch.setattr(sources_mod, "record_observed", boom)
    result = rounds_mod.run_round(SPEC.rounds()[0])
    assert result.status == "error"
    assert "worker exploded" in result.error
    # and a sweep of crashing rounds still completes, reporting the errors
    report = run_campaign(SPEC, jobs=1, out=tmp_path / "r.jsonl")
    assert report.errors == 4
    assert all(r.status == "error" for r in report.results)


def test_executor_rejects_bad_arguments(tmp_path):
    with pytest.raises(ValueError):
        CampaignExecutor(SPEC, jobs=0)
    with pytest.raises(ValueError):
        CampaignExecutor(SPEC, resume=True)  # resume without out


class TestLoadResultsCounted:
    """A crashed writer's torn tail is counted and skipped, never fatal
    (the watch tail convention)."""

    def _stream(self, tmp_path):
        out = tmp_path / "rounds.jsonl"
        run_campaign(SPEC, jobs=1, out=out)
        return out

    def test_truncated_final_line_is_skipped(self, tmp_path):
        from repro.campaign import load_results_counted

        out = self._stream(tmp_path)
        with out.open("a") as sink:
            sink.write('{"round_id": "t:predict:smallba')  # torn write
        results, skipped = load_results_counted(out)
        assert len(results) == 4 and skipped == 1
        assert load_results(out) == results  # the plain loader agrees

    @pytest.mark.parametrize(
        "row", ['["not", "a", "row"]', '{"no_round_id": true}',
                '{"round_id": "x"}'],
    )
    def test_well_formed_json_wrong_shape_is_an_error(self, tmp_path, row):
        """A torn prefix of a row is never valid JSON, so a parsed line
        that is not a round record is corruption, not a torn write —
        an error naming ``path:line``, even on the final line."""
        from repro.campaign import load_results_counted
        from repro.jsonl import JsonlError

        out = self._stream(tmp_path)
        with out.open("a") as sink:
            sink.write(row + "\n")
        with pytest.raises(JsonlError, match=rf"{out.name}:5: rejected"):
            load_results_counted(out)

    def test_mid_file_garbage_is_an_error(self, tmp_path):
        from repro.campaign import load_results_counted
        from repro.jsonl import JsonlError

        out = self._stream(tmp_path)
        lines = out.read_text().splitlines()
        lines[1] = lines[1][:10]
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(JsonlError, match=rf"{out.name}:2: not valid"):
            load_results_counted(out)
        with pytest.raises(JsonlError):
            run_campaign(SPEC, jobs=1, out=out, resume=True)

    def test_resume_over_a_torn_stream(self, tmp_path):
        """The re-run rows land on a repaired stream: the torn fragment
        is dropped and counted, and nothing glues onto it."""
        from repro.campaign import load_results_counted

        out = self._stream(tmp_path)
        text = out.read_text().splitlines()
        out.write_text("\n".join(text[:2]) + "\n" + text[2][: len(text[2]) // 2])
        resumed = run_campaign(SPEC, jobs=1, out=out, resume=True)
        assert len(resumed.results) == 4
        assert resumed.errors == 0
        results, torn = load_results_counted(out)
        assert sorted(r.round_id for r in results) == sorted(
            r.round_id for r in SPEC.rounds()
        )
        assert torn == 0
        assert resumed.counters["torn_lines"] == 1
        assert "torn_lines=1" in resumed.summary()
        # so a second resume has nothing left to run
        again = run_campaign(SPEC, jobs=1, out=out, resume=True)
        assert again.counters["torn_lines"] == 0
        assert len(load_results(out)) == 4

    def test_missing_file_is_empty(self, tmp_path):
        from repro.campaign import load_results_counted

        results, skipped = load_results_counted(tmp_path / "nope.jsonl")
        assert results == [] and skipped == 0
