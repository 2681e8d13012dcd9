"""The streaming analysis engine behind ``isopredict watch``.

:class:`StreamingAnalysis` glues the pieces into one loop::

    source → segment_history → WindowFamily.analyze → dedup → Finding

Each run from the (possibly tailing) source is segmented into
overlapping windows; every window flows through one incremental
:class:`~repro.serve.incremental.WindowFamily` per requested isolation
level; each satisfiable prediction is keyed
(:func:`~repro.serve.dedup.finding_key`) and admitted at most once
across all windows, runs and overlap regions. Soundness accounting —
boundary reads and conflicting pairs no window covers — is folded into
:class:`~repro.serve.metrics.StreamMetrics` alongside the service rates
(findings/sec, ingest lag, per-window wall), and the whole session comes
back as a :class:`StreamReport`.

The engine is synchronous and single-threaded by design: ingest order is
analysis order, which keeps lag measurable and results reproducible. The
loop's bounds (``max_runs``, ``max_windows``, ``max_findings``) are how
a caller keeps a ``follow=True`` source finite.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from ..faults import diff_fault_counters, fault_counters, fault_point
from ..obs import monotonic as obs_monotonic
from ..obs import span as obs_span
from ..predict.analysis import MAX_CANDIDATES, PredictionResult
from ..sources import HistorySource, as_source, iter_runs
from .checkpoint import WatchCheckpoint
from .dedup import AnomalyDeduper, finding_key
from .incremental import WindowFamily
from .metrics import StreamMetrics
from .window import Window, WindowConfig, segment_history, uncovered_pairs

__all__ = ["Finding", "StreamReport", "StreamingAnalysis"]


@dataclass
class Finding:
    """One deduplicated anomaly with its stream provenance."""

    key: str
    isolation: str
    strategy: str
    run_index: int
    window_index: int
    window_start: int
    window_stop: int
    cycle: list
    fingerprint: str
    boundary_reads: int
    run_meta: dict = field(default_factory=dict)
    prediction: Optional[PredictionResult] = None

    def to_json(self) -> dict:
        """The JSONL record ``isopredict watch --out`` emits."""
        return {
            "key": self.key,
            "isolation": self.isolation,
            "strategy": self.strategy,
            "run": self.run_index,
            "window": self.window_index,
            "span": [self.window_start, self.window_stop],
            "cycle": list(self.cycle),
            "fingerprint": self.fingerprint,
            "boundary_reads": self.boundary_reads,
            "run_meta": dict(self.run_meta),
        }


@dataclass
class StreamReport:
    """Everything one streaming session produced."""

    findings: list
    metrics: StreamMetrics
    families: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """The roll-up the CLI prints and tests assert on."""
        out = self.metrics.summary()
        out["families"] = sorted(self.families)
        out["distinct_keys"] = len({f.key for f in self.findings})
        return out


class StreamingAnalysis:
    """Continuous windowed prediction over a live history source.

    ``isolation`` accepts one level or several — each gets its own
    :class:`WindowFamily` lane, and findings deduplicate *within* a lane
    (the finding key starts with the isolation level, so the same cycle
    under two levels is two findings — level matters to the verdict).
    ``max_seconds`` bounds each window's prediction call, and
    ``max_conflicts`` each solver check.

    ``checkpoint`` (a path or :class:`WatchCheckpoint`) makes the session
    crash-safe: the committed source cursor and the admitted dedup keys
    are persisted after every window and run, and a fresh session built
    over the same checkpoint resumes exactly-once — replayed windows are
    suppressed by the preloaded keys, so nothing already emitted is
    emitted again (see ``docs/robustness.md``). Requires a source with
    ``cursor()``/``seek()`` (both tailing sources have them).
    """

    def __init__(
        self,
        source,
        window: Union[int, WindowConfig] = 16,
        stride: Optional[int] = None,
        isolation: Union[str, Sequence[str]] = "causal",
        strategy: str = "approx-relaxed",
        k: int = 1,
        max_seconds: Optional[float] = None,
        max_conflicts: Optional[int] = None,
        max_candidates: int = MAX_CANDIDATES,
        max_runs: Optional[int] = None,
        max_windows: Optional[int] = None,
        max_findings: Optional[int] = None,
        on_finding: Optional[Callable[[Finding], None]] = None,
        on_window: Optional[Callable[[Window, list], None]] = None,
        log: Optional[Callable[[str], None]] = None,
        checkpoint: Optional[Union[str, Path, WatchCheckpoint]] = None,
    ):
        self.source: HistorySource = as_source(source)
        if isinstance(window, WindowConfig):
            if stride is not None:
                raise ValueError(
                    "pass stride inside the WindowConfig, not alongside it"
                )
            self.config = window
        else:
            self.config = WindowConfig(size=window, stride=stride)
        levels = (
            [isolation] if isinstance(isolation, str) else list(isolation)
        )
        if not levels:
            raise ValueError("at least one isolation level is required")
        self.families = [
            WindowFamily(
                level,
                strategy,
                max_seconds=max_seconds,
                max_conflicts=max_conflicts,
                max_candidates=max_candidates,
            )
            for level in levels
        ]
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.max_runs = max_runs
        self.max_windows = max_windows
        self.max_findings = max_findings
        self.on_finding = on_finding
        self.on_window = on_window
        self.log = log
        self.deduper = AnomalyDeduper()
        self.metrics = StreamMetrics()
        self.findings: list[Finding] = []
        if checkpoint is not None and not isinstance(
            checkpoint, WatchCheckpoint
        ):
            checkpoint = WatchCheckpoint(checkpoint)
        self.checkpoint = checkpoint
        self._committed_cursor: Optional[dict] = None
        self._fault_before = fault_counters()
        self._resume_from_checkpoint()

    # ------------------------------------------------------------------
    def _resume_from_checkpoint(self) -> None:
        if self.checkpoint is None:
            return
        if not (
            hasattr(self.source, "cursor") and hasattr(self.source, "seek")
        ):
            raise ValueError(
                "checkpointing requires a source with cursor()/seek() "
                f"(got {type(self.source).__name__})"
            )
        state = self.checkpoint.load()
        if state is None:
            return
        self.source.seek(state["cursor"])
        self.deduper.seen.update(state["dedup_keys"])
        self.metrics.checkpoint_resumes = 1
        self._say(
            f"resumed from checkpoint {self.checkpoint.path}: "
            f"cursor={state['cursor']} "
            f"({len(state['dedup_keys'])} known finding key(s))"
        )

    def _save_checkpoint(self) -> None:
        if self.checkpoint is None:
            return
        cursor = (
            self._committed_cursor
            if self._committed_cursor is not None
            else self.source.cursor()
        )
        with obs_span(
            "watch.checkpoint",
            runs=self.metrics.runs,
            findings=len(self.findings),
        ):
            self.checkpoint.save(
                cursor,
                self.deduper.seen,
                runs=self.metrics.runs,
                findings=len(self.findings),
            )

    def _fold_source_events(self) -> None:
        events = getattr(self.source, "events", None)
        if isinstance(events, dict):
            self.metrics.observe_source(events)

    # ------------------------------------------------------------------
    def _say(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    def _stop_findings(self) -> bool:
        return (
            self.max_findings is not None
            and len(self.findings) >= self.max_findings
        )

    def _analyze_window(self, run_index: int, window: Window) -> None:
        """One window through every family lane, timed by its span."""
        admitted: list[Finding] = []
        duplicates_before = self.deduper.duplicates
        combined_stats: dict = {}
        with obs_span(
            "watch.window", run=run_index, window=window.index
        ) as win_span:
            for family in self.families:
                predictions, stats = family.analyze(
                    window, k=self.k, run_key=run_index
                )
                for key, value in stats.items():
                    if isinstance(value, (int, float)):
                        combined_stats[key] = (
                            combined_stats.get(key, 0) + value
                        )
                for prediction in predictions:
                    if not prediction.found:
                        continue
                    key = finding_key(prediction, window.history)
                    if not self.deduper.admit(key):
                        continue
                    finding = Finding(
                        key=key,
                        isolation=str(prediction.isolation),
                        strategy=str(prediction.strategy),
                        run_index=run_index,
                        window_index=window.index,
                        window_start=window.start,
                        window_stop=window.stop,
                        cycle=list(prediction.cycle),
                        fingerprint=key.split("|", 2)[-1],
                        boundary_reads=window.boundary_reads,
                        run_meta=dict(window.run_meta),
                        prediction=prediction,
                    )
                    admitted.append(finding)
                    self.findings.append(finding)
                    if self.on_finding is not None:
                        self.on_finding(finding)
            win_span.set(findings=len(admitted))
        self.metrics.observe_window(win_span.duration, combined_stats)
        self.metrics.observe_findings(
            len(admitted), self.deduper.duplicates - duplicates_before
        )
        if self.on_window is not None:
            self.on_window(window, admitted)
        if admitted:
            self._say(
                f"window {window.label}: "
                f"{len(admitted)} new finding(s) "
                f"({self.deduper.duplicates} duplicates so far)"
            )

    # ------------------------------------------------------------------
    def run(self) -> StreamReport:
        """Consume the source until it ends or a bound trips."""
        self.metrics.start()
        windows_done = 0
        if self.checkpoint is not None and self._committed_cursor is None:
            self._committed_cursor = self.source.cursor()
        session_span = obs_span(
            "watch.session", families=len(self.families)
        )
        session_span.__enter__()
        try:
            for run_index, run in enumerate(iter_runs(self.source)):
                arrived = obs_monotonic()
                history = run.history
                self.metrics.observe_run(len(history))
                windows = segment_history(
                    history, self.config, run_meta=run.meta
                )
                gaps = uncovered_pairs(history, windows)
                self.metrics.observe_gaps(
                    len(gaps),
                    sum(w.boundary_reads for w in windows),
                )
                if gaps:
                    self._say(
                        f"run {run_index}: {len(gaps)} conflicting pair(s) "
                        f"wider than {self.config.label} — not analyzed, "
                        "counted as coverage gaps"
                    )
                stop = False
                for window in windows:
                    fault_point(
                        "watch.window", run=run_index, window=window.index
                    )
                    self._analyze_window(run_index, window)
                    windows_done += 1
                    # mid-run saves keep the pre-run committed cursor:
                    # a crash here replays the whole run, and the saved
                    # dedup keys suppress everything already emitted
                    self._save_checkpoint()
                    if (
                        self.max_windows is not None
                        and windows_done >= self.max_windows
                    ) or self._stop_findings():
                        stop = True
                        break
                self.metrics.observe_lag(obs_monotonic() - arrived)
                if stop:
                    break
                # the run is fully analyzed: commit the cursor past it
                if self.checkpoint is not None:
                    self._committed_cursor = self.source.cursor()
                    self._save_checkpoint()
                if (
                    self.max_runs is not None
                    and run_index + 1 >= self.max_runs
                ):
                    break
        finally:
            for family in self.families:
                family.release()
            self._fold_source_events()
            self.metrics.observe_faults(
                diff_fault_counters(self._fault_before, fault_counters())
            )
            self.metrics.finish()
            session_span.set(
                windows=windows_done, findings=len(self.findings)
            )
            session_span.__exit__(None, None, None)
        return self.report()

    def report(self) -> StreamReport:
        """The session's report so far — also valid after an interrupt."""
        return StreamReport(
            findings=list(self.findings),
            metrics=self.metrics,
            families={f.name: f.stats for f in self.families},
        )
