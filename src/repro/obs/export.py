"""Telemetry export: ``--telemetry PATH`` sessions and trace merging.

:func:`telemetry_session` is what the CLI wraps a subcommand in.  It
installs the process recorder (exporting the sink path through the
environment so children join the trace), opens one root span named
after the command, and on exit performs the **merge**: every
``<path>.part.<pid>`` JSONL stream — from this process and every
worker — collapses into the single final ``<path>`` file:

1. one ``meta`` header event (schema version, trace id);
2. all span/point events, sorted by ``(ts, trace, span)`` — a
   deterministic total order, so two byte-identical sets of part files
   merge to byte-identical traces regardless of worker scheduling;
3. one ``metrics`` event: :func:`fold_events` over those events.

Counts reach the trace only as span attrs and points, so a worker's
counts travel in its part file like its spans. Part files are deleted
on success; the merge is the telemetry analogue of the campaign
executor folding per-worker JSONL rows.
"""
from __future__ import annotations

import glob
import json
import os
from typing import Optional

from ..jsonl import JsonlReader, write_atomic
from . import trace as _trace

__all__ = [
    "DECODE_KINDS",
    "TelemetrySession",
    "fold_events",
    "merge_parts",
    "telemetry_session",
]

#: ``stage.decode`` ``kind`` attrs: how the CEGIS walk classified each
#: candidate, in the order ``obs report`` prints them.
DECODE_KINDS = ("refined", "acyclic", "cyclic")


def _count(metrics: dict, name: str, amount, key: str = "") -> None:
    if amount:  # a counter exists once something lands in it
        values = metrics.setdefault(
            name, {"kind": "counter", "values": {}}
        )["values"]
        values[key] = values.get(key, 0) + amount


def _merge(metrics: dict, series: dict) -> None:
    """Fold series in the ``metrics`` event's own shape."""
    for name, entry in series.items():
        for key, value in entry["values"].items():
            if entry["kind"] == "counter":
                _count(metrics, name, value, key)
                continue
            cells = metrics.setdefault(
                name, {"kind": "histogram", "values": {}}
            )["values"]
            cell = cells.get(key)
            if cell is None:
                cells[key] = dict(value)
            else:
                cell["count"] += value["count"]
                cell["sum"] += value["sum"]
                cell["min"] = min(cell["min"], value["min"])
                cell["max"] = max(cell["max"], value["max"])


def fold_events(events) -> tuple[dict, dict]:
    """One pass over a trace's events: ``(metrics, candidates)``.

    ``metrics`` is the ``metrics`` event, ``{name: {kind, values}}`` in
    name order, summed from what the events carry:

    * any span's ``solver`` attr (``solver_<key>``), ``fault_retries``
      attr (keyed by retry seam) and ``metrics`` attr (series in this
      same shape: a watch session's ``stream_*`` counts);
    * ``campaign.run``'s ``statuses`` (``campaign_rounds``),
      ``predicted`` (``campaign_predictions``) and ``events``
      (``campaign_<event>``);
    * each ``campaign.round`` attempt that ended the round
      (``worker_rounds`` by status) and each completed
      ``fuzz.iteration`` (``fuzz_iterations``, ``fuzz_finds``);
    * each ``fault.injected`` point (``faults_injected``).

    ``candidates`` counts the ``stage.decode`` spans by their ``kind``
    attr (:data:`DECODE_KINDS`), which ``obs report`` prints.
    """
    metrics: dict = {}
    candidates = dict.fromkeys(DECODE_KINDS, 0)
    for event in events:
        name, attrs = event.get("name"), event.get("attrs", {})
        if event.get("event") == "point":
            if name == "fault.injected":
                _count(metrics, "faults_injected", 1,
                       f"{attrs.get('point')}:{attrs.get('kind')}")
            continue
        if event.get("event") != "span":
            continue
        for key, amount in attrs.get("solver", {}).items():
            _count(metrics, f"solver_{key}", amount)
        for key, amount in attrs.get("fault_retries", {}).items():
            _count(metrics, "fault_retries", amount, key)
        _merge(metrics, attrs.get("metrics", {}))
        if name == "stage.decode" and attrs.get("kind") in candidates:
            candidates[attrs["kind"]] += 1
        elif name == "campaign.run":
            for status, amount in attrs.get("statuses", {}).items():
                _count(metrics, "campaign_rounds", amount, status)
            _count(metrics, "campaign_predictions",
                   attrs.get("predicted", 0))
            for key, amount in attrs.get("events", {}).items():
                _count(metrics, f"campaign_{key}", amount)
        elif name == "campaign.round" and attrs.get("status") not in (
            None, "retry"
        ):
            _count(metrics, "worker_rounds", 1, attrs["status"])
        elif name == "fuzz.iteration" and "novel" in attrs:
            _count(metrics, "fuzz_iterations", 1)
            _count(metrics, "fuzz_finds", attrs["novel"])
    return {name: metrics[name] for name in sorted(metrics)}, candidates


def merge_parts(path: str, trace_id: str, deterministic: bool) -> str:
    """Merge the part files into the final trace file."""
    parts = sorted(glob.glob(glob.escape(path) + ".part.*"))

    events = []
    for part in parts:
        # a crashed writer can leave one torn final line
        events.extend(JsonlReader(part))
    events.sort(
        key=lambda e: (
            e.get("ts", 0.0),
            e.get("trace", ""),
            e.get("span") or "",
            e.get("name", ""),
        )
    )

    meta = {
        "event": "meta",
        "schema": _trace.SCHEMA_VERSION,
        "trace": trace_id,
        "deterministic": deterministic,
    }
    if not deterministic:
        import platform
        import sys

        meta["python"] = platform.python_version()
        meta["argv"] = sys.argv[1:]

    metrics = {"event": "metrics", "trace": trace_id,
               "metrics": fold_events(events)[0]}
    write_atomic(path, "".join(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        for doc in [meta, *events, metrics]
    ))

    for stale in parts:
        try:
            os.remove(stale)
        except OSError:
            pass
    return path


class TelemetrySession:
    """Context manager owning one telemetry run end to end."""

    def __init__(self, path: str, command: str = "run", clock=None,
                 **attrs):
        self.path = str(path)
        self.command = command
        self.clock = clock
        self.attrs = attrs
        self._root = None
        self._recorder = None

    def __enter__(self) -> "TelemetrySession":
        self._recorder = _trace.install(self.path, clock=self.clock)
        self._root = self._recorder.open_span(
            f"cli.{self.command}", dict(self.attrs)
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        recorder = self._recorder
        if recorder is None:
            return
        if exc is not None and self._root is not None:
            self._root.attrs.setdefault("error", type(exc).__name__)
        if self._root is not None:
            recorder.close_span(self._root)
        trace_id = recorder.trace_id
        deterministic = recorder.deterministic
        recorder.close()  # force-closes any abandoned spans
        try:
            merge_parts(self.path, trace_id, deterministic)
        finally:
            _trace.uninstall()


def telemetry_session(path: Optional[str], command: str = "run",
                      clock=None, **attrs):
    """``with telemetry_session(args.telemetry, "campaign"): ...``

    Returns a live :class:`TelemetrySession` when ``path`` is set, or a
    no-op context manager when it is None — so CLI wiring stays one
    unconditional ``with``.
    """
    if not path:
        return _NullSession()
    return TelemetrySession(path, command=command, clock=clock, **attrs)


class _NullSession:
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None
