"""Unified telemetry: structured spans, trace export, live metrics.

The observability layer of the reproduction (see
``docs/observability.md``).  Three pieces:

* :mod:`repro.obs.trace` — zero-dependency structured spans
  (``with span("campaign.round", ...)``) emitting schema-versioned
  JSONL, with cross-process context propagated through the environment
  and deterministic byte-identical streams under the fixed clock;
* :mod:`repro.obs.export` — the ``--telemetry PATH`` session wrapper
  and part-file merger, whose ``metrics`` event folds the counts the
  spans carry; :mod:`repro.obs.report` — the post-hoc
  ``isopredict obs report`` / ``obs validate`` analysis;
* :mod:`repro.obs.prometheus` — Prometheus text exposition of a live
  source (``isopredict watch --metrics-addr``).

Everything is off by default: without ``--telemetry`` (or a sink
installed programmatically) every ``span()`` call returns a stopwatch
that records nothing.
"""
from .export import (
    TelemetrySession,
    fold_events,
    merge_parts,
    telemetry_session,
)
from .prometheus import MetricsServer, to_prometheus
from .report import build_report, format_report, load_events, validate_events
from .trace import (
    CLOCK_ENV,
    CONTEXT_ENV,
    SCHEMA_VERSION,
    TELEMETRY_ENV,
    FixedClock,
    SystemClock,
    active_sink,
    current_context,
    deterministic,
    enabled,
    event,
    install,
    monotonic,
    propagate_context,
    reset_telemetry,
    span,
    tally,
    uninstall,
    wall,
)

__all__ = [
    "CLOCK_ENV",
    "CONTEXT_ENV",
    "SCHEMA_VERSION",
    "TELEMETRY_ENV",
    "FixedClock",
    "MetricsServer",
    "SystemClock",
    "TelemetrySession",
    "active_sink",
    "build_report",
    "current_context",
    "deterministic",
    "enabled",
    "event",
    "fold_events",
    "format_report",
    "install",
    "load_events",
    "merge_parts",
    "monotonic",
    "propagate_context",
    "reset_telemetry",
    "span",
    "tally",
    "telemetry_session",
    "to_prometheus",
    "uninstall",
    "validate_events",
    "wall",
]
