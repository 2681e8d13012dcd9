"""The fluent analysis session: source-agnostic record → predict → validate.

This is the public entry point the paper's workflow maps onto (§3): an
observed execution history — wherever it was recorded — flows into the
predictive analysis and, when the source can re-execute its application,
into directed-replay validation::

    from repro.api import Analysis
    from repro.sources import BenchAppSource, TraceFileSource

    # an in-process benchmark run (replayable, so validatable)
    session = (
        Analysis(BenchAppSource("smallbank", seed=3))
        .under("causal")
        .using("approx-relaxed")
    )
    batch = session.predict(k=3)
    report = session.validate()            # replays the app

    # an externally recorded trace: same analysis, no AppSpec in the loop
    batch = Analysis(TraceFileSource("trace.json")).under("rc").predict()

The session is *staged and cached*: the source records once, and each
(isolation, strategy) configuration keeps one incremental solver alive
(:class:`repro.predict.PredictionEnumeration`), so sweeping ``k`` or
re-querying re-checks the same encoding instead of re-encoding per call.

``Analysis`` accepts a :class:`~repro.sources.HistorySource`, an
:class:`~repro.bench_apps.base.AppSpec` subclass, a trace file path, or a
bare :class:`~repro.history.model.History` (see
:func:`repro.sources.as_source`).
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Union

from .history.model import History
from .isolation.levels import IsolationLevel
from .predict.analysis import (
    MAX_CANDIDATES,
    IsoPredict,
    PredictionBatch,
    PredictionEnumeration,
    PredictionResult,
)
from .predict.strategies import PredictionStrategy
from .sources import HistorySource, RecordedRun, as_source
from .store.backend import StoreBackend
from .validate.validator import ValidationReport

__all__ = ["Analysis", "AnalysisResult", "ReplayUnavailable"]

#: Distinguishes "not passed" from an explicit None (= unbounded limit).
_UNSET = object()


class ReplayUnavailable(RuntimeError):
    """Validation was requested from a source that cannot replay.

    Externally recorded traces carry a history but no re-executable
    application, so prediction works and validation — which *replays* the
    application's programs (§5) — cannot. This error names the limitation
    up front instead of crashing mid-replay.
    """


@dataclass
class AnalysisResult:
    """Everything one record→predict→validate round produced."""

    run: RecordedRun
    batch: PredictionBatch
    validation: Optional[ValidationReport] = None

    @property
    def prediction(self) -> PredictionResult:
        """The primary prediction (see :attr:`PredictionBatch.primary`)."""
        return self.batch.primary

    @property
    def confirmed(self) -> bool:
        """A feasible unserializable execution was predicted and validated."""
        return bool(
            self.batch.found
            and self.validation is not None
            and self.validation.validated
        )


class Analysis:
    """A staged, cached analysis session over one history source.

    The stages are fluent — each returns the session itself::

        Analysis(source).under(isolation).using(strategy).predict(k=2)

    ``under``/``using`` accept parsed enums or their CLI string spellings.
    Changing a stage never re-records the source; it only selects which
    cached solver the next ``predict`` extends. The solver limits set by
    ``using`` bound each ``predict`` call and never pick the solver.
    """

    def __init__(
        self,
        source: Union[HistorySource, type, str, History],
        *,
        backend: Union[StoreBackend, str, None] = None,
        max_cached_configs: int = 8,
    ):
        if max_cached_configs < 1:
            raise ValueError("max_cached_configs must be >= 1")
        self.source = as_source(source)
        # a backend the session builds from a spec string is the
        # session's to close; a passed-in instance stays its caller's
        self._owns_backend = isinstance(backend, str)
        if backend is not None:
            from .store.backends import make_store_backend

            # check the built backend: "inmemory" builds None
            backend = make_store_backend(backend)
        if backend is not None:
            if not hasattr(self.source, "backend"):
                raise ValueError(
                    f"source {self.source.name!r} does not execute "
                    "programs, so it cannot take a store backend; pass "
                    "backend= only with bench/fuzz/programs sources"
                )
            # the session installs its backend on the source (which is
            # what records); a source that already carries a *different*
            # backend is a conflict to surface, never to silently ignore
            if self.source.backend is None:
                self.source.backend = backend
            elif self.source.backend is not backend:
                raise ValueError(
                    f"source {self.source.name!r} already carries store "
                    f"backend {self.source.backend.name!r}; pass the "
                    "backend on the source or the session, not both"
                )
        self.backend = backend
        self.isolation = IsolationLevel.CAUSAL
        self.strategy = PredictionStrategy.APPROX_RELAXED
        self.max_seconds: Optional[float] = 120.0
        self.max_conflicts: Optional[int] = None
        self.max_candidates = MAX_CANDIDATES
        self.max_cached_configs = max_cached_configs
        self._recorded: Optional[RecordedRun] = None
        # LRU of per-configuration incremental solvers: sweeping many
        # (isolation, strategy) combinations no longer accumulates one
        # live solver per configuration forever — least-recently-used
        # enumerations (and their SAT state) are dropped past the cap.
        self._enumerations: OrderedDict[tuple, PredictionEnumeration] = (
            OrderedDict()
        )
        self._last: Optional[PredictionBatch] = None

    # -- stages ---------------------------------------------------------
    def under(self, isolation: Union[IsolationLevel, str]) -> "Analysis":
        """Select the isolation level the prediction targets."""
        if isinstance(isolation, str):
            isolation = IsolationLevel.parse(isolation)
        self.isolation = isolation
        return self

    def using(
        self,
        strategy: Union[PredictionStrategy, str, None] = None,
        *,
        max_seconds=_UNSET,
        max_conflicts=_UNSET,
        max_candidates=_UNSET,
    ) -> "Analysis":
        """Select the encoding strategy and the limits of each ``predict``.

        ``max_seconds`` bounds the wall time of one ``predict`` call
        (default 120), ``max_conflicts`` each solver check (default
        unbounded), and ``max_candidates`` the candidates one call of an
        exact strategy may reject (default 64); an explicit ``None``
        lifts the wall or conflict limit. A limit omitted keeps its
        current value. Limits do not select a solver: the next
        ``predict`` extends the configuration's cached one.
        """
        if strategy is not None:
            if isinstance(strategy, str):
                strategy = PredictionStrategy.parse(strategy)
            self.strategy = strategy
        if max_seconds is not _UNSET:
            self.max_seconds = max_seconds
        if max_conflicts is not _UNSET:
            self.max_conflicts = max_conflicts
        if max_candidates is not _UNSET:
            self.max_candidates = max_candidates
        return self

    # -- record ---------------------------------------------------------
    @property
    def recorded(self) -> RecordedRun:
        """The observed run, recorded once and cached for the session."""
        if self._recorded is None:
            self._recorded = self.source.record()
        return self._recorded

    @property
    def history(self) -> History:
        return self.recorded.history

    # -- predict --------------------------------------------------------
    def _enumeration(self) -> PredictionEnumeration:
        key = (self.isolation, self.strategy)
        enum = self._enumerations.get(key)
        if enum is None:
            enum = IsoPredict(self.isolation, self.strategy).enumerator(
                self.history
            )
            self._enumerations[key] = enum
            while len(self._enumerations) > self.max_cached_configs:
                self._enumerations.popitem(last=False)  # evict LRU
        else:
            self._enumerations.move_to_end(key)
        return enum

    def close(self) -> None:
        """Release every cached incremental solver, and the store backend
        the session built from a ``backend=`` spec string (its archive
        connection, if any).

        The session stays usable — the recorded history is kept, the
        next :meth:`predict` simply re-encodes its configuration, and a
        later write reopens the archive. Use this (or the context-manager
        form) after sweeping many configurations to return the solver
        memory.
        """
        self._enumerations.clear()
        if self._owns_backend:
            from .store.backends import close_store_backend

            close_store_backend(self.backend)

    def __enter__(self) -> "Analysis":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def predict(self, k: int = 1) -> PredictionBatch:
        """Up to ``k`` distinct predictions under the current configuration.

        Repeated calls — same or different ``k`` — extend one incremental
        solver per configuration rather than re-encoding the history; the
        first ``k`` predictions of a configuration are stable across calls.
        """
        enum = self._enumeration()
        enum.ensure(
            k,
            max_seconds=self.max_seconds,
            max_conflicts=self.max_conflicts,
            max_candidates=self.max_candidates,
        )
        self._last = enum.batch(k)
        return self._last

    # -- validate -------------------------------------------------------
    def _replay(self):
        """The source's replay handle, without recording when possible."""
        if self._recorded is not None:
            return self._recorded.replay
        handle = getattr(self.source, "replay_handle", None)
        if callable(handle):
            return handle()
        return self.recorded.replay

    def validate(
        self,
        prediction: Union[PredictionResult, History, None] = None,
        observed: Optional[History] = None,
    ) -> ValidationReport:
        """Validate a prediction by directed replay of the source's app.

        With no argument, validates the best prediction of the most recent
        :meth:`predict` call (which must have found one), using the
        session's recorded history as the §5 divergence fallback. A batch
        or result prediction is always validated under the isolation level
        it was *predicted* for, even if the session has since moved on via
        :meth:`under`. An explicit bare-history ``prediction`` is
        validated as-is under the session's current level, and for sources
        that can hand out a replay handle without recording (all built-in
        replayable sources) no recording is triggered; ``observed``
        enables the divergence fallback for it.
        """
        isolation = self.isolation
        if prediction is None:
            if self._last is None or self._last.best is None:
                raise ValueError(
                    "nothing to validate: call predict() first (and only "
                    "validate when it found a prediction)"
                )
            predicted = self._last.best.predicted
            isolation = self._last.isolation
            observed = self.recorded.history if observed is None else observed
        elif isinstance(prediction, PredictionResult):
            if prediction.predicted is None:
                raise ValueError("prediction carries no predicted history")
            predicted = prediction.predicted
            isolation = prediction.isolation
            observed = self.recorded.history if observed is None else observed
        else:
            predicted = prediction
        replay = self._replay()
        if replay is None:
            raise ReplayUnavailable(
                f"source {self.source.name!r} cannot validate predictions: "
                "it has no replayable application (externally recorded "
                "traces carry only the history). Analyze without "
                "validation, or use a bench/fuzz/programs source."
            )
        return replay.validate(predicted, isolation, observed)

    # -- streaming ------------------------------------------------------
    def stream(
        self,
        window: int = 16,
        stride: Optional[int] = None,
        k: int = 1,
        checkpoint=None,
        **stream_kwargs,
    ):
        """A windowed streaming session over this source's run stream.

        The service counterpart of :meth:`predict`: instead of one
        whole-history solve, every run the source offers is segmented
        into overlapping windows of ``window`` transactions, ``stride``
        apart, analyzed incrementally under the session's current
        isolation and strategy, and deduplicated across overlaps (see
        :mod:`repro.serve`). Returns the
        :class:`~repro.serve.service.StreamingAnalysis` engine — call
        ``.run()`` for the :class:`~repro.serve.service.StreamReport`::

            report = Analysis(FuzzSource(count=20)).under("causal") \\
                .stream(window=12, stride=6).run()

        ``checkpoint`` (a path or
        :class:`~repro.serve.checkpoint.WatchCheckpoint`) persists the
        session's cursor + dedup state after every window, so a crashed
        stream resumes exactly-once (see ``docs/robustness.md``).

        ``stream_kwargs`` pass through to ``StreamingAnalysis``
        (``max_runs``, ``max_windows``, ``max_findings``, ``on_finding``,
        …); the session's solver limits carry over, each bounding one
        window's ``predict``.
        """
        from .serve import StreamingAnalysis

        return StreamingAnalysis(
            self.source,
            window=window,
            stride=stride,
            isolation=str(self.isolation),
            strategy=str(self.strategy),
            k=k,
            max_seconds=self.max_seconds,
            max_conflicts=self.max_conflicts,
            max_candidates=self.max_candidates,
            checkpoint=checkpoint,
            **stream_kwargs,
        )

    # -- one-call convenience -------------------------------------------
    def run(self, k: int = 1, validate: bool = True) -> AnalysisResult:
        """Record → predict → (when possible) validate, in one call."""
        batch = self.predict(k)
        validation = None
        if validate and batch.found and self.recorded.can_validate:
            validation = self.validate()
        return AnalysisResult(
            run=self.recorded, batch=batch, validation=validation
        )

    # -- introspection --------------------------------------------------
    @property
    def last(self) -> Optional[PredictionBatch]:
        """The most recent :meth:`predict` batch, if any."""
        return self._last

    def __repr__(self) -> str:
        return (
            f"Analysis({self.source.name!r}, under={self.isolation}, "
            f"using={self.strategy})"
        )
