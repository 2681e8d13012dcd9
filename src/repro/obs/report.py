"""Post-hoc trace analysis: ``isopredict obs report`` / ``obs validate``.

A telemetry JSONL answers "where did the wall time go" without
re-running under ``--profile``: stage spans (``stage.encode`` …
``stage.decode``) aggregate back into the exact vocabulary of
``repro.perf.format_profile``, but post-hoc and across every process in
the trace.  Beyond the stage table the report adds what ``--profile``
structurally cannot show: a per-name rollup (count / total / self /
max) over all spans and the trace's **critical path** — the chain of
maximum-duration children from the root, which is where optimization
effort pays off in a parallel run.

``validate`` is the schema gate CI runs on smoke traces: meta header
first, known schema version, required fields per event kind, unique
span ids, resolvable parents, non-negative durations, and same-process
child spans contained in their parents (small slop for clock reads
straddling the span boundary).
"""
from __future__ import annotations

import os
from collections import defaultdict

from ..jsonl import JsonlReader
from ..perf import STAGES
from .trace import SCHEMA_VERSION

__all__ = [
    "build_report",
    "format_report",
    "load_events",
    "validate_events",
]

#: span names that map onto ``repro.perf`` stage vocabulary
STAGE_SPANS = {f"stage.{stage}": stage for stage in STAGES}

_SPAN_FIELDS = ("trace", "span", "name", "ts", "dur", "pid", "attrs")
_POINT_FIELDS = ("trace", "name", "ts", "pid", "attrs")

#: tolerance for parent/child containment checks — two separate clock
#: reads bracket each boundary, so exact containment is not guaranteed
NEST_SLOP = 0.005


def load_events(path: str) -> list:
    """Parse a telemetry JSONL into a list of event dicts (a torn final
    line is skipped; any other bad line raises with its ``path:line``)."""
    os.stat(path)  # a missing trace is an error here, not an empty one
    return list(JsonlReader(path))


def validate_events(events: list) -> list:
    """Return a list of problem strings (empty == valid)."""
    problems = []
    if not events:
        return ["empty telemetry file"]
    meta = events[0]
    if meta.get("event") != "meta":
        problems.append("first event is not the meta header")
        meta = {}
    elif meta.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"unknown schema version {meta.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    trace_id = meta.get("trace")

    spans = {}
    for idx, event in enumerate(events):
        kind = event.get("event")
        if kind == "span":
            missing = [f for f in _SPAN_FIELDS if f not in event]
            if missing:
                problems.append(
                    f"event {idx}: span missing fields {missing}"
                )
                continue
            if event["span"] in spans:
                problems.append(
                    f"event {idx}: duplicate span id {event['span']}"
                    " (a span closed more than once)"
                )
            spans[event["span"]] = event
            if event["dur"] < 0:
                problems.append(
                    f"event {idx}: negative duration in {event['name']}"
                )
            if trace_id and event.get("trace") != trace_id:
                problems.append(
                    f"event {idx}: trace id {event.get('trace')!r} does "
                    f"not match header {trace_id!r}"
                )
        elif kind == "point":
            missing = [f for f in _POINT_FIELDS if f not in event]
            if missing:
                problems.append(
                    f"event {idx}: point missing fields {missing}"
                )
        elif kind in ("meta", "metrics"):
            pass
        else:
            problems.append(f"event {idx}: unknown event kind {kind!r}")

    for event in spans.values():
        parent_id = event.get("parent")
        if parent_id is None:
            continue
        parent = spans.get(parent_id)
        if parent is None:
            problems.append(
                f"span {event['span']} ({event['name']}): parent "
                f"{parent_id} not present in trace"
            )
            continue
        if parent.get("pid") != event.get("pid"):
            continue  # cross-process: clocks are not comparable
        child_start, child_end = event["ts"], event["ts"] + event["dur"]
        par_start = parent["ts"] - NEST_SLOP
        par_end = parent["ts"] + parent["dur"] + NEST_SLOP
        if child_start < par_start or child_end > par_end:
            problems.append(
                f"span {event['span']} ({event['name']}) "
                f"[{child_start:.6f}, {child_end:.6f}] escapes parent "
                f"{parent['name']} [{parent['ts']:.6f}, "
                f"{par_end:.6f}]"
            )
    return problems


def _critical_path(spans: dict, children: dict) -> list:
    """Max-duration root, then repeatedly its max-duration child."""
    roots = [s for s in spans.values() if s.get("parent") not in spans]
    if not roots:
        return []
    path = []
    node = max(roots, key=lambda s: (s["dur"], s["span"]))
    while node is not None:
        path.append(node)
        kids = children.get(node["span"], [])
        node = max(kids, key=lambda s: (s["dur"], s["span"])) if kids else None
    return path


def build_report(events: list) -> dict:
    """Aggregate a trace into stage totals, name rollups, and the
    critical path (all durations in seconds)."""
    spans = {}
    for event in events:
        if event.get("event") == "span":
            spans[event["span"]] = event
    children = defaultdict(list)
    for event in spans.values():
        parent = event.get("parent")
        if parent in spans:
            children[parent].append(event)

    stages = {stage: 0.0 for stage in STAGE_SPANS.values()}
    stage_counts = {stage: 0 for stage in STAGE_SPANS.values()}
    names = {}
    for event in spans.values():
        stage = STAGE_SPANS.get(event["name"])
        if stage is not None:
            stages[stage] += event["dur"]
            stage_counts[stage] += 1
        cell = names.setdefault(
            event["name"],
            {"count": 0, "total": 0.0, "self": 0.0, "max": 0.0},
        )
        cell["count"] += 1
        cell["total"] += event["dur"]
        cell["max"] = max(cell["max"], event["dur"])
        child_time = sum(c["dur"] for c in children.get(event["span"], ()))
        cell["self"] += max(0.0, event["dur"] - child_time)

    path = _critical_path(spans, children)
    metrics = next(
        (e.get("metrics") for e in events if e.get("event") == "metrics"),
        None,
    )
    meta = next((e for e in events if e.get("event") == "meta"), {})
    pids = sorted({e.get("pid") for e in spans.values()})
    return {
        "trace": meta.get("trace"),
        "deterministic": meta.get("deterministic", False),
        "span_count": len(spans),
        "processes": pids,
        "stages": stages,
        "stage_counts": stage_counts,
        "names": {name: names[name] for name in sorted(names)},
        "critical_path": [
            {"name": s["name"], "dur": s["dur"], "pid": s["pid"],
             "attrs": s.get("attrs", {})}
            for s in path
        ],
        "metrics": metrics,
    }


def _fmt_seconds(value: float) -> str:
    return f"{value:.4f}s"


def format_report(report: dict, top: int = 12) -> str:
    """Human-readable report in the ``--profile`` table style."""
    lines = []
    lines.append(
        f"trace {report.get('trace')} · {report['span_count']} spans · "
        f"{len(report['processes'])} process(es)"
    )
    lines.append("")
    lines.append("stage totals (all processes):")
    total = sum(report["stages"].values())
    for stage in STAGES:
        dur = report["stages"][stage]
        count = report["stage_counts"][stage]
        share = (100.0 * dur / total) if total else 0.0
        lines.append(
            f"  {stage:<8} {_fmt_seconds(dur):>12}  {share:5.1f}%"
            f"  ({count} span{'s' if count != 1 else ''})"
        )
    lines.append(f"  {'total':<8} {_fmt_seconds(total):>12}")
    lines.append("")

    lines.append(f"top spans by total time (of {len(report['names'])} names):")
    ranked = sorted(
        report["names"].items(),
        key=lambda kv: (-kv[1]["total"], kv[0]),
    )[:top]
    width = max((len(name) for name, _ in ranked), default=4)
    lines.append(
        f"  {'name':<{width}}  {'count':>6}  {'total':>12}  "
        f"{'self':>12}  {'max':>12}"
    )
    for name, cell in ranked:
        lines.append(
            f"  {name:<{width}}  {cell['count']:>6}  "
            f"{_fmt_seconds(cell['total']):>12}  "
            f"{_fmt_seconds(cell['self']):>12}  "
            f"{_fmt_seconds(cell['max']):>12}"
        )
    lines.append("")

    lines.append("critical path:")
    for depth, node in enumerate(report["critical_path"]):
        attrs = node["attrs"]
        hint = ""
        for key in ("round_id", "window", "iteration", "phase"):
            if key in attrs:
                hint = f" [{key}={attrs[key]}]"
                break
        lines.append(
            f"  {'  ' * depth}{node['name']}{hint} "
            f"{_fmt_seconds(node['dur'])} (pid {node['pid']})"
        )
    return "\n".join(lines)
