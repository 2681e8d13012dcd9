"""First-class service metrics for the streaming analysis loop.

The batch perf harness (:mod:`repro.perf`) measures one cold analysis;
a service is judged by *rates*: findings per second, ingest lag (how far
analysis trails arrival), and bounded per-window latency. This module
accumulates both kinds — per-window stage timings and solver counters in
the existing ``repro.perf`` stage vocabulary, plus the streaming-only
counters and rates — and flattens them into one stats dict that
:func:`repro.perf.profile_from_stats` splits into the
stages/counters/rates shape ``BENCH_*.json`` streaming rows record.

Accounting convention: every ``observe_*`` call carries a **delta**
and the metrics object accumulates.  Sources that only expose cumulative
totals (the tailing readers report running hazard counts) are diffed
*here*, at the observation boundary — ``observe_source`` keeps the
previous totals and folds only the increase — so a caller can never
double-count by re-reporting.

This object is the one home of a session's counts, telemetry on or off:
:meth:`series` renders them for the live ``/metrics`` page
(:class:`repro.obs.MetricsServer`), and the ``watch.session`` span
carries the same series into the trace's ``metrics`` event.

Window walls and stage seconds are span durations; elapsed time and
ingest lags read :func:`repro.obs.monotonic`. So a telemetry session
with the fixed clock zeroes every wall, lag and derived rate.  After :meth:`finish`
the object is sealed: ``elapsed_seconds`` and ``findings_per_sec`` are
stable — ``to_stats`` never re-reads the clock.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from ..obs import monotonic as obs_monotonic
from ..perf import STAGES

__all__ = ["StreamMetrics"]

#: Stage-seconds keys folded from window stats into the service totals.
_STAGE_KEYS = (*(f"{stage}_seconds" for stage in STAGES), "gen_seconds")

#: Solver counters summed across windows (the perf-suite vocabulary).
_COUNTER_KEYS = (
    "literals",
    "clauses",
    "vars",
    "propagations",
    "conflicts",
    "decisions",
    "restarts",
    "learned",
    "learned_dropped",
    "candidates",
)


@dataclass
class StreamMetrics:
    """Running totals for one streaming-analysis session."""

    runs: int = 0
    transactions: int = 0
    windows: int = 0
    findings: int = 0
    duplicates: int = 0
    coverage_gap_pairs: int = 0
    boundary_reads: int = 0
    window_walls: list[float] = field(default_factory=list)
    lag_seconds: list[float] = field(default_factory=list)
    stage_seconds: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    # -- robustness (PR 8): source hazards + fault/retry accounting ------
    corrupt_lines: int = 0
    truncations: int = 0
    rotations: int = 0
    poll_errors: int = 0
    checkpoint_resumes: int = 0
    faults_injected: int = 0
    fault_retries: int = 0
    _started: float = field(default_factory=obs_monotonic, repr=False)
    _finished: bool = field(default=False, repr=False)
    _source_last: dict = field(default_factory=dict, repr=False)

    # -- observation ----------------------------------------------------
    def observe_run(self, transactions: int) -> None:
        self.runs += 1
        self.transactions += transactions

    def observe_window(self, wall_seconds: float, *lane_stats: dict) -> None:
        """Fold one analyzed window's wall time and the analysis stats of
        each lane that analyzed it."""
        self.windows += 1
        self.window_walls.append(wall_seconds)
        for stats in lane_stats:
            for key in _STAGE_KEYS:
                if key in stats:
                    self.stage_seconds[key] = (
                        self.stage_seconds.get(key, 0.0) + float(stats[key])
                    )
            for key in _COUNTER_KEYS:
                if key in stats:
                    self.counters[key] = (
                        self.counters.get(key, 0) + int(stats[key])
                    )

    def observe_findings(self, admitted: int, duplicates: int) -> None:
        self.findings += admitted
        self.duplicates += duplicates

    def observe_gaps(self, pairs: int, boundary_reads: int) -> None:
        self.coverage_gap_pairs += pairs
        self.boundary_reads += boundary_reads

    def observe_lag(self, seconds: float) -> None:
        """Ingest lag: arrival of a run → its last window analyzed."""
        self.lag_seconds.append(max(0.0, seconds))

    #: Source ``events`` counters mirrored into same-named fields.
    _SOURCE_EVENT_KEYS = (
        "corrupt_lines",
        "truncations",
        "rotations",
        "poll_errors",
    )

    def observe_source(self, events: dict) -> None:
        """Fold a tailing source's hazard counters.

        Sources report *cumulative* totals; the diff against the last
        report happens here so the fields accumulate deltas like every
        other ``observe_*`` feed (re-reporting the same totals is a
        no-op, and two sources folded through one metrics object no
        longer clobber each other).
        """
        for key in self._SOURCE_EVENT_KEYS:
            if key not in events:
                continue
            total = int(events[key])
            delta = total - self._source_last.get(key, 0)
            self._source_last[key] = total
            if delta <= 0:
                continue
            setattr(self, key, getattr(self, key) + delta)

    def observe_faults(self, diff: dict) -> None:
        """Fold a fault-counter delta (see ``diff_fault_counters``)."""
        injected = sum(diff.get("injected", {}).values())
        retries = sum(diff.get("retries", {}).values())
        self.faults_injected += injected
        self.fault_retries += retries

    def start(self) -> None:
        """Start the session clock; the run calls this as it begins, so a
        clock installed after construction (a telemetry session) is the
        one ``elapsed_seconds`` reads."""
        self._started = obs_monotonic()

    def finish(self) -> None:
        """Seal the session: freeze ``elapsed_seconds`` and the rates."""
        if not self._finished:
            self.elapsed_seconds = obs_monotonic() - self._started
            self._finished = True

    def _elapsed(self) -> float:
        if self._finished:
            return self.elapsed_seconds
        return obs_monotonic() - self._started

    # -- derived rates --------------------------------------------------
    @property
    def findings_per_sec(self) -> float:
        elapsed = self._elapsed()
        return self.findings / elapsed if elapsed > 0 else 0.0

    @property
    def window_seconds_max(self) -> float:
        return max(self.window_walls) if self.window_walls else 0.0

    @property
    def window_seconds_median(self) -> float:
        return (
            statistics.median(self.window_walls) if self.window_walls else 0.0
        )

    @property
    def ingest_lag_seconds_max(self) -> float:
        return max(self.lag_seconds) if self.lag_seconds else 0.0

    @property
    def ingest_lag_seconds_mean(self) -> float:
        return (
            statistics.fmean(self.lag_seconds) if self.lag_seconds else 0.0
        )

    # -- export ---------------------------------------------------------
    #: Fields exported as ``stream_<field>`` counters by :meth:`series`.
    _SERIES_COUNTERS = (
        "runs",
        "transactions",
        "windows",
        "findings",
        "duplicates",
        "coverage_gap_pairs",
        *_SOURCE_EVENT_KEYS,
        "faults_injected",
        "fault_retries",
    )

    def series(self) -> dict:
        """The counts in the trace ``metrics`` event's ``{name: {kind,
        values}}`` shape: each nonzero ``stream_*`` counter, plus window
        walls and ingest lags as count/sum/min/max summaries."""
        series = {
            f"stream_{key}": {"kind": "counter",
                              "values": {"": getattr(self, key)}}
            for key in self._SERIES_COUNTERS
            if getattr(self, key)
        }
        # copies: a scrape reads while the engine thread appends
        for name, values in (
            ("stream_window_seconds", tuple(self.window_walls)),
            ("stream_lag_seconds", tuple(self.lag_seconds)),
        ):
            if values:
                series[name] = {"kind": "histogram", "values": {"": {
                    "count": len(values),
                    "sum": sum(values),
                    "min": min(values),
                    "max": max(values),
                }}}
        return series

    def to_stats(self) -> dict:
        """The flat stats dict ``repro.perf.profile_from_stats`` reads."""
        stats: dict = {}
        stats.update(self.stage_seconds)
        stats.update(self.counters)
        stats.update(
            {
                "runs": self.runs,
                "transactions": self.transactions,
                "windows": self.windows,
                "findings": self.findings,
                "duplicates": self.duplicates,
                "coverage_gap_pairs": self.coverage_gap_pairs,
                "boundary_reads": self.boundary_reads,
                "corrupt_lines": self.corrupt_lines,
                "truncations": self.truncations,
                "rotations": self.rotations,
                "poll_errors": self.poll_errors,
                "checkpoint_resumes": self.checkpoint_resumes,
                "faults_injected": self.faults_injected,
                "fault_retries": self.fault_retries,
                "findings_per_sec": self.findings_per_sec,
                "window_seconds_max": self.window_seconds_max,
                "window_seconds_median": self.window_seconds_median,
                "ingest_lag_seconds_max": self.ingest_lag_seconds_max,
                "ingest_lag_seconds_mean": self.ingest_lag_seconds_mean,
                "elapsed_seconds": self._elapsed(),
            }
        )
        return stats

    def summary(self) -> dict:
        """The human/JSON-facing roll-up the CLI prints."""
        stats = self.to_stats()
        return {
            key: (round(value, 6) if isinstance(value, float) else value)
            for key, value in sorted(stats.items())
            if not key.endswith("_seconds")
            or key
            in (
                "elapsed_seconds",
                "solve_seconds",
                "window_seconds_max",
                "window_seconds_median",
                "ingest_lag_seconds_max",
                "ingest_lag_seconds_mean",
            )
        }
