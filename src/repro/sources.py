"""History sources: where an observed execution comes from.

The analysis is defined over *histories* (paper §3), not over this
repository's benchmark classes — a recorded trace from a production
backend is just as analyzable as an in-process benchmark run. A
:class:`HistorySource` produces a :class:`RecordedRun`: the observed
history, provenance metadata, and — when the source can deterministically
re-execute its application — a :class:`ReplayHandle` for validation.

Four sources ship with the repository:

* :class:`BenchAppSource` — records one of the ported benchmark apps
  (or any :class:`~repro.bench_apps.base.AppSpec`) in process;
* :class:`ProgramsSource` — records raw session programs, no app class
  needed (the quickstart example's shape);
* :class:`TraceFileSource` — loads traces recorded *outside* this process
  from JSON/JSONL files; replay is naturally unavailable, and the API says
  so (``RecordedRun.replay is None``) instead of crashing;
* :class:`SqliteTraceSource` — reopens the executions a ``sqlite:PATH``
  store backend persisted (same shape as trace files: analysis yes,
  replay no);
* :class:`FuzzSource` — adapts :class:`repro.fuzz.RandomApp`, and its
  :meth:`~FuzzSource.runs` opens a continuous stream of fresh scenarios.

``as_source`` coerces the convenient spellings (an ``AppSpec`` subclass, a
trace path, a bare :class:`~repro.history.model.History`) into a source, so
the fluent :class:`repro.api.Analysis` entry point accepts all of them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Iterator,
    Optional,
    Protocol,
    Type,
    Union,
    runtime_checkable,
)

from .bench_apps.base import (
    AppSpec,
    RunOutcome,
    WorkloadConfig,
    record_observed,
)
from .history.model import History
from .history.trace import Trace, iter_traces
from .isolation.levels import IsolationLevel
from .store.backend import StoreBackend
from .validate.validator import ValidationReport, validate_prediction

__all__ = [
    "RecordedRun",
    "ReplayHandle",
    "HistorySource",
    "BenchAppSource",
    "ProgramsSource",
    "TraceFileSource",
    "SqliteTraceSource",
    "FuzzSource",
    "HistoryValueSource",
    "as_source",
    "iter_runs",
]


@dataclass
class ReplayHandle:
    """Everything validation needs to deterministically re-execute a run.

    ``make_programs`` returns a *fresh* program set (and its initial state)
    on every call — session programs carry per-run state, so replay must
    never reuse the instance that produced the recording (§7.1).
    """

    make_programs: Callable[[], tuple[dict, dict]]
    seed: int = 0
    backend: Optional[StoreBackend] = None

    def validate(
        self,
        predicted: History,
        isolation: IsolationLevel,
        observed: Optional[History] = None,
    ) -> ValidationReport:
        """Directed-replay validation of ``predicted`` (paper §5)."""
        programs, initial = self.make_programs()
        return validate_prediction(
            predicted,
            programs,
            isolation,
            observed=observed,
            seed=self.seed,
            initial=initial,
            backend=self.backend,
        )


@dataclass
class RecordedRun:
    """One observed execution, ready for analysis.

    ``meta`` is provenance (source kind, app, seed, workload, …) — it
    travels into saved traces and campaign records but never affects the
    analysis. ``replay`` is ``None`` exactly when the source cannot
    re-execute the application (externally recorded traces); ``outcome``
    keeps the in-process run details (store handle, assertion failures)
    when there was one.
    """

    history: History
    meta: dict = field(default_factory=dict)
    replay: Optional[ReplayHandle] = None
    outcome: Optional[RunOutcome] = None

    @property
    def can_validate(self) -> bool:
        return self.replay is not None


@runtime_checkable
class HistorySource(Protocol):
    """Anything that can produce an observed execution history.

    ``record()`` produces one :class:`RecordedRun`. Sources that naturally
    generate *many* runs (fuzzers, multi-document trace files) additionally
    offer ``runs()``; use :func:`iter_runs` to consume any source
    uniformly.
    """

    name: str

    def record(self) -> RecordedRun:
        ...


def iter_runs(source: HistorySource) -> Iterator[RecordedRun]:
    """Every run a source offers: ``runs()`` when present, else one record."""
    runs = getattr(source, "runs", None)
    if callable(runs):
        yield from runs()
    else:
        yield source.record()


def _app_replay(
    make_app: Callable[[], AppSpec],
    seed: int,
    backend: Optional[StoreBackend],
) -> ReplayHandle:
    def make_programs():
        app = make_app()
        return app.programs(), app.initial_state()

    return ReplayHandle(make_programs, seed=seed, backend=backend)


class BenchAppSource:
    """Records an :class:`AppSpec` (by class or registered name) in process.

    This wraps today's ``record_observed`` path: the app runs serially with
    latest-writer reads on ``backend`` (default in-memory), producing a
    serializable observed execution plus a replay handle for validation.
    """

    def __init__(
        self,
        app: Union[Type[AppSpec], str],
        config: Optional[WorkloadConfig] = None,
        seed: int = 0,
        backend: Optional[StoreBackend] = None,
    ):
        if isinstance(app, str):
            from .bench_apps import ALL_APPS

            by_name = {a.name: a for a in ALL_APPS}
            if app not in by_name:
                raise ValueError(
                    f"unknown app {app!r}; expected one of "
                    f"{sorted(by_name)}"
                )
            app = by_name[app]
        self.app_cls = app
        self.config = config or WorkloadConfig.small()
        self.seed = seed
        self.backend = backend
        self.name = f"bench:{app.name}"

    def replay_handle(self) -> ReplayHandle:
        """A replay handle without recording — apps replay from scratch."""
        return _app_replay(
            lambda: self.app_cls(self.config), self.seed, self.backend
        )

    def record(self) -> RecordedRun:
        outcome = record_observed(
            self.app_cls(self.config), self.seed, backend=self.backend
        )
        meta = {
            "source": "bench",
            "app": self.app_cls.name,
            "seed": self.seed,
            "workload": self.config.label,
        }
        meta.update(outcome.meta)  # backend provenance (shards, archive id)
        return RecordedRun(
            history=outcome.history,
            meta=meta,
            replay=self.replay_handle(),
            outcome=outcome,
        )


class ProgramsSource:
    """Records raw session programs — no :class:`AppSpec` required.

    ``make_programs`` returns a fresh ``{session: program}`` dict on every
    call (programs may carry state); ``initial`` is t0's key–value writes.
    """

    def __init__(
        self,
        make_programs: Callable[[], dict],
        initial: Optional[dict] = None,
        seed: int = 0,
        name: str = "programs",
        backend: Optional[StoreBackend] = None,
    ):
        self.make_programs = make_programs
        self.initial = dict(initial or {})
        self.seed = seed
        self.name = name
        self.backend = backend

    def replay_handle(self) -> ReplayHandle:
        return ReplayHandle(
            lambda: (self.make_programs(), dict(self.initial)),
            seed=self.seed,
            backend=self.backend,
        )

    def record(self) -> RecordedRun:
        from .store.backend import execute
        from .store.policies import LatestWriterPolicy

        run = execute(
            self.make_programs(),
            lambda session: LatestWriterPolicy(),
            backend=self.backend,
            initial=dict(self.initial),
            seed=self.seed,
        )
        meta = {"source": "programs", "name": self.name, "seed": self.seed}
        meta.update(run.meta)
        return RecordedRun(
            history=run.history,
            meta=meta,
            replay=self.replay_handle(),
        )


class TraceFileSource:
    """Loads histories recorded outside this process from JSON/JSONL files.

    Externally recorded traces carry no replayable application, so
    ``RecordedRun.replay`` is ``None`` and ``Analysis.validate`` reports
    the limitation explicitly instead of crashing mid-replay.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.name = f"trace:{self.path.name}"

    def _run_of(self, trace: Trace) -> RecordedRun:
        meta = {"source": "trace", "path": str(self.path)}
        meta.update(trace.meta)
        meta["trace_version"] = trace.version
        return RecordedRun(history=trace.history, meta=meta, replay=None)

    def record(self) -> RecordedRun:
        return next(iter(self.runs()))

    def runs(self) -> Iterator[RecordedRun]:
        yielded = False
        for trace in iter_traces(self.path):
            yielded = True
            yield self._run_of(trace)
        if not yielded:
            raise ValueError(f"no trace documents in {self.path}")


class SqliteTraceSource:
    """Loads executions persisted by a ``sqlite:PATH`` store backend.

    The durable sibling of :class:`TraceFileSource`: one trace document per
    archive row instead of one per JSONL line. ``phase`` selects which
    execution kind to reopen — by default the *recorded* runs, so analyzing
    an archive sees exactly the histories the live pipeline analyzed (the
    backend also persists ``explore`` and ``replay`` executions). Replay is
    unavailable, exactly as for external trace files.

    ``after_id`` starts the read past a known row id, and
    :attr:`last_execution_id` remembers the highest id yielded so far —
    together they make the source *resumable*: reopen with
    ``after_id=previous.last_execution_id`` and only new rows appear. The
    continuously tailing variant is
    :class:`repro.serve.SqliteWatchSource`.
    """

    def __init__(
        self,
        path: Union[str, Path],
        phase: Optional[str] = "record",
        after_id: int = 0,
    ):
        self.path = Path(path)
        self.phase = phase
        self.after_id = after_id
        self.last_execution_id = after_id
        self.name = f"sqlite:{self.path.name}"

    def record(self) -> RecordedRun:
        return next(iter(self.runs()))

    def runs(self) -> Iterator[RecordedRun]:
        from .store.backends import iter_executions

        yielded = False
        for execution_id, trace in iter_executions(
            self.path, self.phase, after_id=self.after_id
        ):
            yielded = True
            self.last_execution_id = max(
                self.last_execution_id, execution_id
            )
            meta = {"source": "sqlite", "path": str(self.path)}
            meta.update(trace.meta)
            meta["execution_id"] = execution_id
            meta["trace_version"] = trace.version
            yield RecordedRun(history=trace.history, meta=meta, replay=None)
        if not yielded:
            raise ValueError(
                f"no {self.phase or 'persisted'} executions in {self.path}"
            )


#: File suffixes `as_source` treats as SQLite execution archives.
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


class FuzzSource:
    """Records randomly generated applications (:mod:`repro.fuzz`).

    One ``FuzzSource`` names one shape seed; :meth:`runs` opens a
    continuous stream of new scenarios (successive shape seeds), bounded by
    ``count`` when given. RandomApp shapes are deterministic functions of
    their shape seed, so every fuzz run is fully validatable.

    Passing an explicit ``plan`` (a :class:`repro.fuzz.ProgramPlan`)
    records that exact program instead of a seed-derived one — the path
    the coverage-guided fuzzing engine and the corpus replay suite use;
    mutated plans have no generating shape seed, but remain just as
    deterministic (the plan *is* the shape), so validation still works.
    """

    def __init__(
        self,
        shape_seed: int = 0,
        config: Optional[WorkloadConfig] = None,
        seed: int = 0,
        count: Optional[int] = None,
        backend: Optional[StoreBackend] = None,
        plan=None,
        **shape_kwargs,
    ):
        self.shape_seed = shape_seed
        self.config = config
        self.seed = seed
        self.count = count
        self.backend = backend
        self.plan = plan
        self.shape_kwargs = shape_kwargs
        if plan is not None:
            if shape_kwargs:
                raise ValueError(
                    "shape kwargs configure seed-derived plans; an "
                    "explicit plan is already fully shaped"
                )
            self.name = f"fuzz:plan:{plan.digest()}"
        else:
            self.name = f"fuzz:{shape_seed}"

    def _make_app(self, shape_seed: int):
        from .fuzz import PlanApp, RandomApp

        if self.plan is not None:
            return PlanApp(self.plan, self.config)
        return RandomApp(shape_seed, self.config, **self.shape_kwargs)

    def replay_handle(self, shape_seed: Optional[int] = None) -> ReplayHandle:
        shape_seed = self.shape_seed if shape_seed is None else shape_seed
        return _app_replay(
            lambda: self._make_app(shape_seed), self.seed, self.backend
        )

    def _record_shape(self, shape_seed: int) -> RecordedRun:
        outcome = record_observed(
            self._make_app(shape_seed), self.seed, backend=self.backend
        )
        meta = {"source": "fuzz", "seed": self.seed}
        if self.plan is not None:
            meta["plan"] = self.plan.digest()
        else:
            meta["shape_seed"] = shape_seed
        meta.update(outcome.meta)
        return RecordedRun(
            history=outcome.history,
            meta=meta,
            replay=self.replay_handle(shape_seed),
            outcome=outcome,
        )

    def record(self) -> RecordedRun:
        return self._record_shape(self.shape_seed)

    def runs(self) -> Iterator[RecordedRun]:
        if self.plan is not None:
            # an explicit plan is one scenario, not a seed stream
            yield self.record()
            return
        shape_seed = self.shape_seed
        produced = 0
        while self.count is None or produced < self.count:
            yield self._record_shape(shape_seed)
            shape_seed += 1
            produced += 1


class HistoryValueSource:
    """Wraps an already-built :class:`History` (tests, embedding callers)."""

    def __init__(self, history: History, name: str = "history"):
        self.history = history
        self.name = name

    def record(self) -> RecordedRun:
        return RecordedRun(
            history=self.history, meta={"source": "history"}, replay=None
        )


def as_source(source) -> HistorySource:
    """Coerce the convenient spellings into a :class:`HistorySource`.

    Accepts a source as-is, an :class:`AppSpec` subclass, a trace file path
    (``str``/``Path``), or a bare :class:`History`.
    """
    if isinstance(source, type) and issubclass(source, AppSpec):
        return BenchAppSource(source)
    if isinstance(source, str) and source.startswith("sqlite:"):
        return SqliteTraceSource(source[len("sqlite:"):])
    if isinstance(source, (str, Path)):
        if Path(source).suffix.lower() in _SQLITE_SUFFIXES:
            return SqliteTraceSource(source)
        return TraceFileSource(source)
    if isinstance(source, History):
        return HistoryValueSource(source)
    if isinstance(source, HistorySource):
        return source
    raise TypeError(
        f"cannot build a HistorySource from {source!r}; expected a source, "
        "an AppSpec subclass, a trace path, or a History"
    )
