"""Streaming analysis service: continuous ingest + windowed prediction.

Every other entry point records a *complete* history and then analyzes
it; a production store emits an unbounded event stream. This package is
the long-running mode: a :class:`StreamingAnalysis` engine (CLI
``isopredict watch``) consumes a live :class:`~repro.sources.HistorySource`
run stream, segments committed transactions into bounded overlapping
windows (:mod:`repro.serve.window`), analyzes each window with one
:meth:`~repro.predict.analysis.IsoPredict.predict_many` call per
isolation level (:mod:`repro.serve.service`), deduplicates anomalies across
window overlaps by their PR 6 shape fingerprints plus the witnessing
cycle (:mod:`repro.serve.dedup`), and emits service metrics —
findings/sec, ingest lag, per-window wall and stage timings — in the
``repro.perf`` vocabulary (:mod:`repro.serve.metrics`).

Windowing is also the scale path for huge histories: the prediction
encoding is quadratic in transaction pairs, so bounded windows turn a
whole-history wall into a sustained findings/sec rate with bounded
per-window latency. The soundness trade is explicit (see
``docs/streaming.md``): any anomaly whose transactions fit within one
window — guaranteed whenever its commit span is at most
``window - stride + 1`` — is found with the same verdict as
whole-history analysis; dependencies wider than every window are counted
by the coverage-gap counter, never silently dropped.
"""
from __future__ import annotations

from .checkpoint import WatchCheckpoint
from .dedup import AnomalyDeduper, finding_key
from .metrics import StreamMetrics
from .service import Finding, StreamingAnalysis, StreamReport
from .stream import SqliteWatchSource, TailingJsonlSource
from .window import Window, WindowConfig, segment_history, uncovered_pairs

__all__ = [
    "AnomalyDeduper",
    "Finding",
    "SqliteWatchSource",
    "StreamMetrics",
    "StreamReport",
    "StreamingAnalysis",
    "TailingJsonlSource",
    "WatchCheckpoint",
    "Window",
    "WindowConfig",
    "finding_key",
    "segment_history",
    "uncovered_pairs",
]
