"""obs report/validate: schema gate, stage totals, critical path."""
from repro.obs import build_report, format_report, validate_events
from repro.obs.trace import SCHEMA_VERSION


def meta(trace="abc123"):
    return {"event": "meta", "schema": SCHEMA_VERSION, "trace": trace,
            "deterministic": False}


def span_event(span, name, ts, dur, parent=None, pid=1, trace="abc123",
               attrs=None):
    return {
        "event": "span", "trace": trace, "span": span,
        "parent": parent, "name": name, "ts": ts, "dur": dur,
        "pid": pid, "attrs": attrs or {},
    }


def sample_trace():
    return [
        meta(),
        span_event("r", "cli.analyze", 0.0, 10.0),
        span_event("e", "stage.encode", 0.5, 2.0, parent="r"),
        span_event("s1", "stage.solve", 3.0, 4.0, parent="r"),
        span_event("s2", "stage.solve", 7.5, 1.0, parent="r"),
        {"event": "point", "trace": "abc123", "span": "s1",
         "name": "fault.injected", "ts": 3.5, "pid": 1, "attrs": {}},
        {"event": "metrics", "trace": "abc123",
         "metrics": {"n": {"kind": "counter", "values": {"": 2}}}},
    ]


class TestValidate:
    def test_valid_trace_has_no_problems(self):
        assert validate_events(sample_trace()) == []

    def test_empty_file_is_invalid(self):
        assert validate_events([]) == ["empty telemetry file"]

    def test_missing_meta_header(self):
        problems = validate_events(sample_trace()[1:])
        assert any("meta header" in p for p in problems)

    def test_unknown_schema_version(self):
        events = sample_trace()
        events[0]["schema"] = 99
        assert any("schema version" in p
                   for p in validate_events(events))

    def test_duplicate_span_id_means_closed_twice(self):
        events = sample_trace()
        events.append(span_event("e", "stage.encode", 0.5, 2.0,
                                 parent="r"))
        assert any("more than once" in p
                   for p in validate_events(events))

    def test_unresolvable_parent(self):
        events = sample_trace()
        events.append(span_event("x", "stage.decode", 1.0, 0.1,
                                 parent="ghost"))
        assert any("not present" in p for p in validate_events(events))

    def test_child_escaping_its_parent(self):
        events = sample_trace()
        events.append(span_event("x", "late", 9.0, 5.0, parent="r"))
        assert any("escapes parent" in p
                   for p in validate_events(events))

    def test_cross_process_children_skip_containment(self):
        events = sample_trace()
        events.append(span_event("w", "campaign.round", 100.0, 1.0,
                                 parent="r", pid=2))
        assert validate_events(events) == []

    def test_foreign_trace_id_is_flagged(self):
        events = sample_trace()
        events.append(span_event("x", "stray", 1.0, 0.1, parent="r",
                                 trace="other"))
        assert any("does not match header" in p
                   for p in validate_events(events))

    def test_negative_duration_is_flagged(self):
        events = sample_trace()
        events[2]["dur"] = -1.0
        assert any("negative duration" in p
                   for p in validate_events(events))


class TestReport:
    def test_stage_totals_aggregate_by_name(self):
        report = build_report(sample_trace())
        assert report["stages"]["encode"] == 2.0
        assert report["stages"]["solve"] == 5.0
        assert report["stage_counts"]["solve"] == 2
        assert report["stages"]["decode"] == 0.0

    def test_self_time_subtracts_children(self):
        report = build_report(sample_trace())
        root = report["names"]["cli.analyze"]
        assert root["total"] == 10.0
        assert root["self"] == 10.0 - 2.0 - 4.0 - 1.0

    def test_critical_path_follows_max_duration_children(self):
        report = build_report(sample_trace())
        assert [n["name"] for n in report["critical_path"]] == [
            "cli.analyze", "stage.solve",
        ]
        assert report["critical_path"][1]["dur"] == 4.0

    def test_metrics_and_processes_surface(self):
        report = build_report(sample_trace())
        assert report["metrics"]["n"]["values"] == {"": 2}
        assert report["processes"] == [1]

    def test_format_report_renders_tables(self):
        text = format_report(build_report(sample_trace()))
        assert "stage totals" in text
        assert "critical path:" in text
        assert "stage.solve" in text

    def test_stage_totals_equal_the_analysis_stats(self, tmp_path):
        """Spans are the only stopwatch: the report of a traced analysis
        lands on the very stage seconds its stats carry."""
        from repro.api import Analysis
        from repro.obs import load_events, telemetry_session
        from repro.perf import STAGES
        from repro.sources import BenchAppSource

        sink = tmp_path / "t.jsonl"
        with telemetry_session(str(sink), command="analyze"):
            batch = (
                Analysis(BenchAppSource("smallbank", seed=1))
                .under("causal")
                .predict(3)
            )
        report = build_report(load_events(str(sink)))
        assert report["stage_counts"]["solve"] > 1
        for stage in STAGES:
            want = batch.stats[f"{stage}_seconds"]
            assert abs(report["stages"][stage] - want) <= 1e-9, stage
        assert report["stages"]["encode"] > 0


class TestCandidateKinds:
    """``obs report`` counts how the CEGIS walk classified candidates."""

    def test_decode_kinds_are_counted(self):
        events = [
            meta(),
            span_event("d1", "stage.decode", 0.0, 1.0,
                       attrs={"candidate": 1, "kind": "refined"}),
            span_event("d2", "stage.decode", 1.0, 1.0,
                       attrs={"candidate": 2, "kind": "cyclic"}),
            span_event("b2", "stage.decode", 2.0, 1.0,
                       attrs={"candidate": 2, "part": "boundaries"}),
        ]
        report = build_report(events)
        assert report["candidates"] == {
            "refined": 1, "acyclic": 0, "cyclic": 1,
        }
        assert "candidates: 1 refined, 0 acyclic, 1 cyclic" in (
            format_report(report).splitlines()
        )

    def test_tpcc_unsat_walk_refines_every_candidate(self, tmp_path,
                                                      capsys):
        """tpcc-small seed 1 under causal approx-strict is UNSAT after 20
        candidates, every one of them serializable."""
        import json

        from repro.cli import main

        sink = str(tmp_path / "t.jsonl")
        assert main([
            "analyze", "--app", "tpcc", "--workload", "small",
            "--seed", "1", "--isolation", "causal",
            "--strategy", "approx-strict", "--telemetry", sink,
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "report", sink]) == 0
        text = capsys.readouterr().out
        assert "candidates: 20 refined, 0 acyclic, 0 cyclic" in (
            text.splitlines()
        )
        assert main(["obs", "report", sink, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["candidates"] == {
            "refined": 20, "acyclic": 0, "cyclic": 0,
        }
