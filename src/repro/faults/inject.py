"""Injection points, injected-failure types, and per-process counters.

Production code instruments its failure-prone seams with a single call::

    from repro.faults import fault_point
    ...
    fault_point("store.sqlite.persist", path=str(path))

With no active plan the call is a counter bump and nothing else.  With a
plan (installed in-process via :func:`install_plan` or inherited through
the :data:`~repro.faults.plan.FAULT_PLAN_ENV` environment variable) the
point's hit counter is matched against the plan's occurrence windows and
the planned failure is raised/performed deterministically.

Injection-point vocabulary (see ``docs/robustness.md``):

========================  ====================================================
point                     guards
========================  ====================================================
``campaign.round``        one campaign round attempt inside a pool worker
``store.sqlite.persist``  one execution-archive write transaction
``store.sqlite.poll``     one watch poll of a SQLite archive
``store.sharded.commit``  one cross-shard transaction commit (mirror fan-out)
``stream.jsonl.line``     one JSONL line handed to the trace parser
``watch.window``          one analyzed stream window (checkpoint crash tests)
``fuzz.iteration``        one fuzz-engine mutate/execute/analyze iteration
``fleet.manifest``        one fleet-manifest read (``load_manifest``)
``fleet.merge``           one fleet merge pass over the worker streams
``store.sqlite.compact``  one archive-compaction transaction
========================  ====================================================

Every fault fired and retry spent is counted here so
harnesses can assert the run *witnessed* its plan — an injected fault
that never shows up in counters is a silently-swallowed failure, which
the chaos suite treats as a bug.  When the telemetry layer is active
(:mod:`repro.obs`), the same accounting is mirrored as instant trace
events and registry counters, so a merged trace shows exactly which
span each fault fired under.

Seams that cannot tolerate an exception escaping mid-state — a fuzz
iteration whose RNG stream must not be perturbed, a sharded commit
already holding global bookkeeping — use :func:`guarded_fault_point`,
which absorbs *transient* planned faults with an in-place retry loop
(spending the ambient retry budget, counted like any other retry) and
lets everything else propagate.
"""
from __future__ import annotations

import os
import signal
import sqlite3
import time
from collections import Counter
from typing import Optional

from .plan import FAULT_PLAN_ENV, FaultPlan

__all__ = [
    "InjectedCorruption",
    "InjectedIOError",
    "WorkerCrash",
    "active_plan",
    "count_retry",
    "fault_counters",
    "fault_point",
    "guarded_fault_point",
    "install_plan",
    "reset_fault_state",
]


class InjectedIOError(OSError):
    """A planned I/O failure (transient: retry is expected to clear it)."""

    transient = True


class InjectedCorruption(ValueError):
    """A planned corrupt document where a well-formed one was expected."""


class WorkerCrash(RuntimeError):
    """A planned crash of the current unit of work (transient)."""

    transient = True


class _FaultState:
    """Per-process plan + counters. One instance per interpreter."""

    def __init__(self):
        self.plan: Optional[FaultPlan] = None
        self.env_checked = False
        self.hits = Counter()        # point -> times reached
        self.injected = Counter()    # "point:kind" -> times fired
        self.retries = Counter()     # retry key -> retries spent


_STATE = _FaultState()


def install_plan(plan, env: bool = False) -> Optional[FaultPlan]:
    """Activate a plan in this process; ``env=True`` also exports it.

    Exporting makes child processes (campaign pool workers) pick the
    same plan up lazily via
    :func:`active_plan`. Passing ``None`` clears both.
    """
    plan = FaultPlan.parse(plan) if isinstance(plan, str) else plan
    _STATE.plan = plan
    _STATE.env_checked = True
    if env:
        if plan:
            os.environ[FAULT_PLAN_ENV] = plan.spec()
        else:
            os.environ.pop(FAULT_PLAN_ENV, None)
    return plan


def active_plan() -> Optional[FaultPlan]:
    """The plan in effect for this process (env-inherited if needed)."""
    if _STATE.plan is None and not _STATE.env_checked:
        _STATE.env_checked = True
        _STATE.plan = FaultPlan.parse(os.environ.get(FAULT_PLAN_ENV))
    return _STATE.plan


def reset_fault_state() -> None:
    """Forget the installed plan and zero every counter (test isolation)."""
    _STATE.plan = None
    _STATE.env_checked = False
    _STATE.hits.clear()
    _STATE.injected.clear()
    _STATE.retries.clear()


def fault_point(point: str, **context) -> None:
    """Mark one occurrence of a named injection point.

    Fires the planned failure if the active plan covers this occurrence;
    otherwise only counts the hit. ``context`` rides along on raised
    exceptions for failure meta.
    """
    hit = _STATE.hits[point]
    _STATE.hits[point] = hit + 1
    plan = active_plan()
    if plan is None:
        return
    for spec in plan.for_point(point):
        if spec.fires(hit):
            _fire(spec, point, hit, context)


def _fire(spec, point: str, hit: int, context: dict) -> None:
    _STATE.injected[f"{point}:{spec.kind}"] += 1
    _observe_fault("faults_injected", f"{point}:{spec.kind}")
    _observe_event(point, spec.kind, hit)
    detail = f"injected {spec.kind} at {point} (hit {hit})"
    if context:
        meta = ", ".join(f"{k}={v}" for k, v in sorted(context.items()))
        detail = f"{detail} [{meta}]"
    if spec.kind == "io":
        raise InjectedIOError(detail)
    if spec.kind == "busy":
        raise sqlite3.OperationalError(f"database is locked ({detail})")
    if spec.kind == "corrupt":
        raise InjectedCorruption(detail)
    if spec.kind == "crash":
        raise WorkerCrash(detail)
    if spec.kind == "hang":
        time.sleep(spec.seconds or 30.0)
        return
    if spec.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)


def _observe_fault(counter: str, key: str, times: int = 1) -> None:
    """Mirror fault accounting into the telemetry registry (if active)."""
    from ..obs import enabled, get_registry

    if enabled():
        get_registry().counter(counter).inc(times, key=key)


def _observe_event(point: str, kind: str, hit: int) -> None:
    """Witness a fired fault as an instant event on the current span."""
    from ..obs import event

    event("fault.injected", point=point, kind=kind, hit=hit)


def guarded_fault_point(point: str, **context) -> None:
    """A :func:`fault_point` that absorbs transient planned faults.

    For seams where an exception escaping would corrupt in-progress
    state (a fuzz iteration's RNG stream, a sharded commit holding
    global bookkeeping): the fault still *fires* — it is injected,
    counted, and witnessed in telemetry — but transient kinds are
    retried in place under the ambient :class:`RetryPolicy` instead of
    unwinding the caller. Non-transient kinds (corruption) and an
    exhausted retry budget propagate as usual.
    """
    from .retry import RetryPolicy, is_transient_fault

    policy = None
    attempt = 0
    while True:
        try:
            fault_point(point, **context)
            return
        except Exception as exc:
            if not is_transient_fault(exc):
                raise
            if policy is None:
                policy = RetryPolicy.from_env()
            if attempt >= policy.max_retries:
                raise
            count_retry(f"{point}|inline")
            time.sleep(policy.delay(attempt, key=point))
            attempt += 1


def count_retry(key: str, times: int = 1) -> None:
    """Record retries spent recovering at a named seam."""
    _STATE.retries[key] += times
    _observe_fault("fault_retries", key, times)


def fault_counters() -> dict:
    """A snapshot of this process's fault accounting.

    Returns ``{"injected": {...}, "retries": {...}}``
    with plain-dict copies safe to diff, serialize, and ship in results.
    """
    return {
        "injected": dict(_STATE.injected),
        "retries": dict(_STATE.retries),
    }


def diff_fault_counters(before: dict, after: dict) -> dict:
    """The counter deltas between two :func:`fault_counters` snapshots.

    Empty groups are dropped, so a fault-free span diffs to ``{}``.
    """
    out = {}
    for group in ("injected", "retries"):
        b, a = before.get(group, {}), after.get(group, {})
        delta = {k: v - b.get(k, 0) for k, v in a.items() if v != b.get(k, 0)}
        if delta:
            out[group] = delta
    return out
