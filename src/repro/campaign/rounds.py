"""Executing one campaign round and recording what it produced.

:func:`run_round` is the worker-pool entry point: a module-level function of
one picklable argument returning one picklable result, so it runs unchanged
inline (``--jobs 1``), under ``multiprocessing`` fan-out, or re-imported by
a spawned interpreter. Exceptions never escape — a crashing round becomes a
``status="error"`` result so one bad cell cannot take down a sweep.
"""
from __future__ import annotations

import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator, Optional

from ..api import Analysis
from ..bench_apps import (
    ALL_APPS,
    run_interleaved_rc,
    run_random_weak,
)
from ..faults import (
    RetryPolicy,
    count_retry,
    diff_fault_counters,
    fault_counters,
    fault_point,
    is_transient_fault,
)
from ..isolation.checkers import is_serializable
from ..isolation.levels import IsolationLevel
from ..obs import (
    enabled as obs_enabled,
    flush_process_metrics,
    get_registry,
    observe_analysis_stats,
    span as obs_span,
)
from ..smt import Result
from ..store.backend import StoreBackend
from ..store.backends import close_store_backend, make_store_backend
from .spec import RoundSpec

__all__ = ["RoundResult", "round_backend", "run_round"]

_APPS = {app.name: app for app in ALL_APPS}

#: RoundResult fields that vary run-to-run even for identical inputs.
TIMING_FIELDS = (
    "gen_seconds",
    "solve_seconds",
    "validate_seconds",
    "wall_seconds",
)

#: RoundResult fields describing *how the round survived*, not what it
#: measured. A round retried through injected faults must compare equal
#: to its fault-free twin — the robustness invariant — so these are
#: excluded from determinism comparisons alongside the timings.
RESILIENCE_FIELDS = (
    "attempts",
    "faults",
    "error_kind",
)


@dataclass
class RoundResult:
    """One JSONL record: everything a round measured.

    The prediction-rate/validation-rate columns of Tables 4–7 aggregate
    from these; every field except the ``*_seconds`` timings is a pure
    function of the round spec, which is what makes ``--jobs N`` runs
    comparable (and the resume logic safe).
    """

    round_id: str
    mode: str
    app: str
    workload: str
    isolation: str
    strategy: str
    seed: int
    status: str  # sat | unsat | unknown | ok | error
    source: str = "bench"
    backend: str = "inmemory"
    # -- predict mode ---------------------------------------------------
    predicted: int = 0  # distinct unserializable predictions found (<= k)
    validated: bool = False
    diverged: bool = False
    literals: int = 0
    clauses: int = 0
    candidates: int = 0
    # -- exploration modes (monkeydb / interleaved) ---------------------
    assertion_failed: bool = False
    unserializable: bool = False
    # -- workload characteristics (Table 3) -----------------------------
    committed: int = 0
    read_only: int = 0
    reads: int = 0
    writes: int = 0
    # -- timings (excluded from determinism comparisons) ----------------
    gen_seconds: float = 0.0
    solve_seconds: float = 0.0
    validate_seconds: float = 0.0
    wall_seconds: float = 0.0
    error: str = ""
    # -- resilience meta (excluded from determinism comparisons) ---------
    attempts: int = 1
    faults: dict = field(default_factory=dict)
    error_kind: str = ""  # "" | transient | fatal | stalled

    @property
    def found(self) -> bool:
        return self.predicted > 0

    def to_dict(self) -> dict:
        return asdict(self)

    def comparable_dict(self) -> dict:
        """The result minus timing/resilience noise — equal across
        equivalent runs, including runs that recovered from faults."""
        out = self.to_dict()
        for key in TIMING_FIELDS + RESILIENCE_FIELDS:
            out.pop(key)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RoundResult":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def _characteristics(result: RoundResult, history) -> None:
    txns = history.transactions()
    result.committed = len(txns)
    result.read_only = sum(1 for t in txns if t.is_read_only())
    result.reads = sum(len(t.reads) for t in txns)
    result.writes = sum(len(t.writes) for t in txns)


@contextmanager
def round_backend(spec: str) -> Iterator[Optional[StoreBackend]]:
    """The store backend rounds of canonical backend ``spec`` execute on.

    ``None`` for the in-memory default. The backend is closed on exit, so
    an archive connection it opened never waits for garbage collection.
    """
    backend = make_store_backend(spec)
    try:
        yield backend
    finally:
        close_store_backend(backend)


def _run_predict(
    spec: RoundSpec, result: RoundResult, backend: Optional[StoreBackend]
) -> None:
    """The Fig. 4 pipeline with k-prediction enumeration (§3, §4).

    Drives the source-agnostic :class:`repro.api.Analysis` session, so a
    round works identically over benchmark apps, fuzz-generated apps, and
    externally recorded traces (which simply skip validation — they carry
    no replayable application).
    """
    session = (
        Analysis(spec.history_source(backend))
        .under(spec.isolation)
        .using(spec.strategy, max_seconds=spec.max_seconds)
    )
    run = session.recorded
    _characteristics(result, run.history)
    batch = session.predict(k=spec.max_predictions)
    observe_analysis_stats(batch.stats)
    result.predicted = len(batch)
    result.literals = batch.stats.get("literals", 0)
    result.clauses = batch.stats.get("clauses", 0)
    result.candidates = batch.stats.get("candidates", 0)
    result.gen_seconds = batch.stats.get("gen_seconds", 0.0)
    result.solve_seconds = batch.stats.get("solve_seconds", 0.0)
    # A round that found any prediction is a sat round, whatever verdict
    # eventually stopped the enumeration.
    result.status = (
        Result.SAT.value if batch.found else batch.status.value
    )
    if batch.found and spec.validate and run.can_validate:
        report = session.validate()
        result.validate_seconds = report.seconds
        result.validated = report.validated
        result.diverged = report.diverged


def _make_app(spec: RoundSpec):
    """The executable application for exploration modes (bench or fuzz)."""
    config = spec.workload_config()
    if spec.source == "fuzz":
        from ..fuzz import RandomApp

        return RandomApp(spec.seed, config)
    return _APPS[spec.app](config)


def _run_exploration(
    spec: RoundSpec, result: RoundResult, backend: Optional[StoreBackend]
) -> None:
    """MonkeyDB-style random exploration / the interleaved-rc stand-in."""
    if spec.mode == "monkeydb":
        outcome = run_random_weak(
            _make_app(spec), spec.seed,
            IsolationLevel.parse(spec.isolation),
            backend=backend,
        )
    else:
        outcome = run_interleaved_rc(
            _make_app(spec), spec.seed, backend=backend
        )
    _characteristics(result, outcome.history)
    result.status = "ok"
    result.assertion_failed = outcome.assertion_failed
    result.unserializable = not is_serializable(outcome.history)


#: Per-process memo for trace-source predict rounds. A trace file is a
#: fixed history: every field of the analysis outcome is a pure function of
#: (trace, analysis configuration) — the seed only labels the round. Sweeps
#: that fan the same trace across a seed list used to re-encode and
#: re-solve identically once per seed; now each worker process analyzes
#: each (trace, config) cell once and re-labels the cached outcome.
_TRACE_MEMO: dict[tuple, RoundResult] = {}


def _trace_memo_key(spec: RoundSpec) -> tuple:
    return (
        spec.source,
        spec.isolation,
        spec.strategy,
        spec.max_seconds,
        spec.max_predictions,
        spec.validate,
        spec.backend,
    )


def _fresh_result(spec: RoundSpec) -> RoundResult:
    """A blank result for one attempt (failed attempts mutate partially)."""
    return RoundResult(
        round_id=spec.round_id,
        mode=spec.mode,
        app=spec.app,
        workload=spec.workload,
        isolation=spec.isolation,
        strategy=spec.strategy,
        seed=spec.seed,
        status="error",
        source=spec.source,
        backend=spec.backend,
    )


def run_round(
    spec: RoundSpec, backend: Optional[StoreBackend] = None
) -> RoundResult:
    """Execute one round; never raises (errors land in the result).

    Transient failures (injected faults, locked archives, timeouts) are
    retried in-worker under the ambient :class:`RetryPolicy` before the
    round is given up as errored; fault/retry accounting for the whole
    round rides along in ``result.faults``; ``wall_seconds`` sums the
    attempts' spans, leaving out the backoff sleeps between them.

    ``backend`` is the store backend an inline campaign run shares across
    its rounds (its owner closes it). Without one — the pool path — a
    round on a non-default backend builds its own and closes it at the
    end of the round.
    """
    if backend is None:
        with round_backend(spec.backend) as backend:
            return _run_round(spec, backend)
    return _run_round(spec, backend)


def _run_round(
    spec: RoundSpec, backend: Optional[StoreBackend]
) -> RoundResult:
    dedupe = spec.mode == "predict" and spec.source.startswith("trace:")
    if dedupe:
        cached = _TRACE_MEMO.get(_trace_memo_key(spec))
        if cached is not None:
            return replace(
                cached,
                round_id=spec.round_id,
                seed=spec.seed,
                wall_seconds=0.0,
            )
    policy = RetryPolicy.from_env(jitter_seed=spec.seed)
    before = fault_counters()
    wall = 0.0
    attempt = 0
    while True:
        result = _fresh_result(spec)
        retry = False
        with obs_span(
            "campaign.round", round_id=spec.round_id, attempt=attempt
        ) as round_span:
            try:
                fault_point(
                    "campaign.round", round_id=spec.round_id, attempt=attempt
                )
                if spec.mode == "predict":
                    _run_predict(spec, result, backend)
                else:
                    _run_exploration(spec, result, backend)
            except Exception as exc:
                transient = is_transient_fault(exc)
                retry = transient and attempt < policy.max_retries
                if retry:
                    round_span.set(status="retry", transient=True)
                    count_retry(f"campaign.round|{spec.round_id}")
                else:
                    result.status = "error"
                    result.error = traceback.format_exc(limit=8)
                    result.error_kind = "transient" if transient else "fatal"
            if not retry:
                round_span.set(status=result.status)
        wall += round_span.duration
        if not retry:
            break
        time.sleep(policy.delay(attempt, key=spec.round_id))
        attempt += 1
    result.attempts = attempt + 1
    result.faults = diff_fault_counters(before, fault_counters())
    result.wall_seconds = wall
    if obs_enabled():
        get_registry().counter("worker_rounds").inc(key=result.status)
        flush_process_metrics()
    # memoize only deterministic outcomes: an "error" may be transient and
    # an "unknown" is a wall-clock artifact (the solver hit its budget
    # under this run's load) — replaying either for the remaining seeds
    # would freeze a non-reproducible verdict
    if dedupe and result.status not in ("error", "unknown"):
        _TRACE_MEMO[_trace_memo_key(spec)] = result
    return result
