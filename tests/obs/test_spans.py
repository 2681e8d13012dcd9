"""Span core: no-op default, close-exactly-once, nesting, determinism."""
import json
import os
import subprocess
import sys
import time

import pytest

from repro.obs import (
    CONTEXT_ENV,
    TELEMETRY_ENV,
    FixedClock,
    current_context,
    deterministic,
    enabled,
    event,
    install,
    monotonic,
    propagate_context,
    span,
    uninstall,
    wall,
)
from repro.obs.trace import active_recorder


def read_part(recorder):
    events = []
    with open(recorder.part_path) as fh:
        for line in fh:
            events.append(json.loads(line))
    return events


class TestDisabled:
    def test_a_disabled_span_times_itself(self):
        """With telemetry off a span records nothing but still carries
        its region's real duration, which the stage stats read."""
        with span("anything", key=1) as s:
            start = time.monotonic()
            while time.monotonic() - start < 0.002:
                pass
        assert 0.002 <= s.duration < 1.0
        assert active_recorder() is None
        assert span("a") is not span("a")  # each region its own stopwatch

    def test_noop_supports_the_full_span_protocol(self):
        with span("x", a=1) as s:
            s.set(b=2)
        event("ignored", n=3)
        assert not enabled()
        assert current_context() is None
        assert not deterministic()

    def test_clock_helpers_fall_back_to_real_time(self):
        assert monotonic() > 0
        assert wall() > 0


class TestClosing:
    def test_span_event_written_once_on_close(self, tmp_path):
        rec = install(tmp_path / "t.jsonl", env=False)
        with span("outer", k=1):
            pass
        events = read_part(rec)
        assert len(events) == 1
        assert events[0]["name"] == "outer"
        assert events[0]["attrs"] == {"k": 1}

    def test_double_exit_is_a_no_op(self, tmp_path):
        rec = install(tmp_path / "t.jsonl", env=False)
        s = span("once")
        s.__exit__(None, None, None)
        s.__exit__(None, None, None)
        assert len(read_part(rec)) == 1
        assert rec.opened == rec.closed == 1

    def test_every_opened_span_closes_exactly_once(self, tmp_path):
        rec = install(tmp_path / "t.jsonl", env=False)
        for i in range(4):
            with span("a", i=i):
                with span("b", i=i):
                    pass
        uninstall()
        events = read_part(rec)
        assert len(events) == 8
        assert len({e["span"] for e in events}) == 8
        assert rec.opened == rec.closed == 8

    def test_abandoned_inner_spans_are_force_closed(self, tmp_path):
        rec = install(tmp_path / "t.jsonl", env=False)
        outer = span("outer").__enter__()
        span("inner")  # never exited
        outer.__exit__(None, None, None)
        events = {e["name"]: e for e in read_part(rec)}
        assert events["inner"]["attrs"]["unclosed"] is True
        assert "unclosed" not in events["outer"]["attrs"]

    def test_exception_marks_the_error_attr(self, tmp_path):
        rec = install(tmp_path / "t.jsonl", env=False)
        with pytest.raises(RuntimeError):
            with span("failing"):
                raise RuntimeError("boom")
        (ev,) = read_part(rec)
        assert ev["attrs"]["error"] == "RuntimeError"


class TestNesting:
    def test_child_records_parent_span_id(self, tmp_path):
        rec = install(tmp_path / "t.jsonl", env=False)
        with span("parent") as p:
            with span("child"):
                pass
        events = {e["name"]: e for e in read_part(rec)}
        assert events["child"]["parent"] == p.span_id
        assert events["parent"]["parent"] is None

    def test_child_duration_nests_inside_parent(self, tmp_path):
        rec = install(tmp_path / "t.jsonl", env=False)
        with span("parent"):
            with span("child"):
                pass
        events = {e["name"]: e for e in read_part(rec)}
        child, parent = events["child"], events["parent"]
        assert child["dur"] <= parent["dur"] + 1e-6
        assert child["ts"] >= parent["ts"] - 1e-6

    def test_durations_are_non_negative(self, tmp_path):
        install(tmp_path / "t.jsonl", env=False)
        with span("a"):
            pass
        rec = active_recorder()
        assert all(e["dur"] >= 0 for e in read_part(rec))

    def test_point_attaches_to_the_current_span(self, tmp_path):
        rec = install(tmp_path / "t.jsonl", env=False)
        with span("holder") as h:
            event("mark", n=1)
        events = read_part(rec)
        point = next(e for e in events if e["event"] == "point")
        assert point["span"] == h.span_id
        assert point["attrs"] == {"n": 1}


class TestDeterminism:
    def test_fixed_clock_zeroes_time_and_pid(self, tmp_path):
        rec = install(tmp_path / "t.jsonl", clock="fixed", env=False)
        with span("a"):
            pass
        (ev,) = read_part(rec)
        assert ev["ts"] == 0.0 and ev["dur"] == 0.0 and ev["pid"] == 0
        assert ev["trace"] == "0" * 12
        assert deterministic()

    def test_fixed_clock_streams_are_byte_identical(self, tmp_path):
        streams = []
        for run in ("one", "two"):
            rec = install(tmp_path / f"{run}.jsonl", clock="fixed",
                          env=False)
            with span("a", k=1):
                with span("b"):
                    pass
                with span("b"):
                    pass
            uninstall()
            streams.append(open(rec.part_path).read())
        assert streams[0] == streams[1]

    def test_repeated_identical_spans_get_distinct_ids(self, tmp_path):
        rec = install(tmp_path / "t.jsonl", clock="fixed", env=False)
        with span("root"):
            for _ in range(3):
                with span("leaf", k=1):
                    pass
        uninstall()
        leaf_ids = [e["span"] for e in read_part(rec)
                    if e["name"] == "leaf"]
        assert len(set(leaf_ids)) == 3

    def test_clock_helpers_follow_the_fixed_clock(self, tmp_path):
        install(tmp_path / "t.jsonl", clock=FixedClock(7.5), env=False)
        assert monotonic() == 7.5
        assert wall() == 7.5

    def test_non_string_clock_refuses_env_propagation(self, tmp_path):
        with pytest.raises(ValueError, match="string clock spec"):
            install(tmp_path / "t.jsonl", clock=FixedClock(0.0), env=True)


class TestCrossProcess:
    def test_context_token_is_trace_and_current_span(self, tmp_path):
        install(tmp_path / "t.jsonl", env=False)
        with span("outer") as s:
            trace_id, _, span_id = current_context().partition(":")
            assert span_id == s.span_id
        rec = active_recorder()
        assert trace_id == rec.trace_id

    def test_propagate_context_restores_the_env(self, tmp_path):
        install(tmp_path / "t.jsonl", env=False)
        with span("outer"):
            assert CONTEXT_ENV not in os.environ
            with propagate_context():
                assert os.environ[CONTEXT_ENV] == current_context()
            assert CONTEXT_ENV not in os.environ

    def test_child_process_spans_carry_the_parent_trace_id(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        install(sink, env=True)
        with span("parent") as parent:
            with propagate_context():
                env = dict(os.environ)
            import repro

            env["PYTHONPATH"] = os.path.dirname(
                os.path.dirname(repro.__file__)
            )
            code = (
                "from repro.obs import span\n"
                "with span('child.work', n=1):\n"
                "    pass\n"
            )
            subprocess.run(
                [sys.executable, "-c", code], env=env, check=True
            )
        rec = active_recorder()
        trace_id = rec.trace_id
        parts = [p for p in os.listdir(tmp_path)
                 if p.startswith("t.jsonl.part.")]
        assert len(parts) == 2  # this process + the child
        child_part = next(
            p for p in parts if p != os.path.basename(rec.part_path)
        )
        child_events = [
            json.loads(line)
            for line in (tmp_path / child_part).read_text().splitlines()
        ]
        (child,) = child_events
        assert child["trace"] == trace_id
        assert child["parent"] == parent.span_id

    def test_child_recorder_builds_lazily_from_env(self, tmp_path,
                                                   monkeypatch):
        sink = tmp_path / "t.jsonl"
        monkeypatch.setenv(TELEMETRY_ENV, str(sink))
        monkeypatch.setenv(CONTEXT_ENV, "cafe00112233:deadbeefdeadbeef")
        assert enabled()
        rec = active_recorder()
        assert rec.is_child
        assert rec.trace_id == "cafe00112233"
        assert rec.root_parent == "deadbeefdeadbeef"
