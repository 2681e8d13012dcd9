"""Telemetry export: ``--telemetry PATH`` sessions and trace merging.

:func:`telemetry_session` is what the CLI wraps a subcommand in.  It
installs the process recorder (exporting the sink path through the
environment so children join the trace), opens one root span named
after the command, and on exit performs the **merge**: every
``<path>.part.<pid>`` JSONL stream plus every
``<path>.metrics.<pid>.json`` registry sidecar — from this process and
every worker — collapses into the single final ``<path>`` file:

1. one ``meta`` header event (schema version, trace id);
2. all span/point events, sorted by ``(ts, trace, span)`` — a
   deterministic total order, so two byte-identical sets of part files
   merge to byte-identical traces regardless of worker scheduling;
3. one ``metrics`` event holding the deterministically merged registry.

Intermediate files are deleted on success; the merge is the telemetry
analogue of the campaign executor folding per-worker JSONL rows.
"""
from __future__ import annotations

import glob
import json
import os
from typing import Optional

from ..jsonl import JsonlReader, write_atomic
from ..perf import COUNTER_KEYS
from . import registry as _registry
from . import trace as _trace

__all__ = [
    "TelemetrySession",
    "flush_process_metrics",
    "merge_parts",
    "observe_analysis_stats",
    "telemetry_session",
]


def flush_process_metrics() -> Optional[str]:
    """Write this process's registry sidecar next to the active sink.

    Safe to call unconditionally from instrumented seams (campaign
    round completion, fuzz worker exit): a no-op while telemetry is off.
    """
    sink = _trace.active_sink()
    if sink is None:
        return None
    return _registry.write_sidecar(sink)


#: ``Analysis.stats()`` keys folded into registry counters; ``*_seconds``
#: keys flow into a histogram instead. Those seconds are span durations,
#: so under the fixed clock the histogram holds zeros and stays
#: deterministic.
_STAT_COUNTERS = COUNTER_KEYS


def observe_analysis_stats(stats: dict, prefix: str = "solver") -> None:
    """Fold one analysis/prediction stats dict into the registry."""
    if not _trace.enabled():
        return
    reg = _registry.get_registry()
    for key in _STAT_COUNTERS:
        value = stats.get(key)
        if isinstance(value, (int, float)) and value:
            reg.counter(f"{prefix}_{key}").inc(value)
    for key, value in stats.items():
        if key.endswith("_seconds") and isinstance(value, (int, float)):
            reg.histogram(f"{prefix}_seconds").observe(value, key=key)


def merge_parts(path: str, trace_id: str, deterministic: bool) -> str:
    """Merge part files + metric sidecars into the final trace file."""
    parts = sorted(glob.glob(glob.escape(path) + ".part.*"))
    sidecars = sorted(glob.glob(glob.escape(path) + ".metrics.*.json"))

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

    merged = _registry.MetricsRegistry()
    own_sidecar = f"{path}.metrics.{os.getpid()}.json"
    for sidecar in sidecars:
        # sidecars are cumulative snapshots; the merging process's live
        # registry supersedes its own sidecar (inline --jobs 1 rounds
        # flush one), so folding both would double-count
        if sidecar != own_sidecar:
            for snapshot in JsonlReader(sidecar):  # one line, or none
                merged.merge(snapshot)
    merged.merge(_registry.get_registry().snapshot())

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
               "metrics": merged.snapshot()}
    write_atomic(path, "".join(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        for doc in [meta, *events, metrics]
    ))

    for stale in parts + sidecars:
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
            _registry.reset_registry()


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
