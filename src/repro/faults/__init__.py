"""Deterministic fault injection and fault-tolerant-runtime primitives.

The package behind the repo's robustness invariant — **faults never
change verdicts**: a run suffering any transient-fault plan must produce
the same verdict set (and watch dedup keys) as its fault-free twin, with
every injected fault visible in the emitted counters.

- :mod:`~repro.faults.plan` — seeded, occurrence-counted fault plans
  that serialize through env/CLI and replay byte-identically.
- :mod:`~repro.faults.inject` — the ``fault_point()`` seam production
  code instruments, plus injected-failure types and fault counters.
- :mod:`~repro.faults.retry` — ``RetryPolicy`` (bounded exponential
  backoff, deterministic jitter) and transient-vs-fatal classification.
"""
from .inject import (
    InjectedCorruption,
    InjectedIOError,
    WorkerCrash,
    active_plan,
    count_retry,
    diff_fault_counters,
    fault_counters,
    fault_point,
    guarded_fault_point,
    install_plan,
    reset_fault_state,
)
from .plan import FAULT_KINDS, FAULT_PLAN_ENV, FaultPlan, FaultSpec
from .retry import (
    MAX_RETRIES_ENV,
    RETRY_BACKOFF_ENV,
    RetryPolicy,
    is_transient_fault,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "MAX_RETRIES_ENV",
    "RETRY_BACKOFF_ENV",
    "FaultPlan",
    "FaultSpec",
    "InjectedCorruption",
    "InjectedIOError",
    "RetryPolicy",
    "WorkerCrash",
    "active_plan",
    "count_retry",
    "diff_fault_counters",
    "fault_counters",
    "fault_point",
    "guarded_fault_point",
    "install_plan",
    "is_transient_fault",
    "reset_fault_state",
]
