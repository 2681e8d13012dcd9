"""Parallel campaign execution with streamed JSONL results.

The executor owns the boring-but-critical operational parts of a sweep:

* **fan-out** — rounds are independent, so ``--jobs N`` maps them over a
  ``multiprocessing`` pool; ``--jobs 1`` runs inline in-process (identical
  results, no pool overhead — the determinism tests compare the two);
* **streaming** — every finished round is appended to a JSONL file and
  flushed immediately, so a killed campaign loses at most in-flight rounds;
* **resume** — rerunning with ``resume=True`` reads that JSONL first and
  skips every round whose id already has a non-error result (error rounds
  are retried);
* **graceful cancellation** — Ctrl-C terminates the pool, keeps everything
  already streamed, and returns a report marked ``cancelled``.

Results arrive in nondeterministic order under fan-out; identity lives in
``round_id``, and the aggregation is order-insensitive.

Fault tolerance (PR 8): a worker that dies mid-round (SIGKILL, OOM) or
hangs loses its in-flight round — the pool replaces the process, but the
result never arrives and the stream goes quiet. The executor detects
this via a **heartbeat timeout** on result arrival, terminates the pool,
and re-submits the missing rounds in a fresh pool up to the retry
budget; rounds that keep dying are **quarantined** as errored JSONL rows
with failure meta (``error_kind="stalled"``) instead of hanging the
campaign, and ``--resume`` retries them like any other error row.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import signal
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from ..faults import (
    FAULT_PLAN_ENV,
    MAX_RETRIES_ENV,
    RETRY_BACKOFF_ENV,
    FaultPlan,
    RetryPolicy,
    install_plan,
)
from ..jsonl import JsonlReader, open_append
from ..obs import (
    deterministic as obs_deterministic,
    enabled as obs_enabled,
    event as obs_event,
    get_registry,
    propagate_context,
    span as obs_span,
)
from .report import CampaignReport
from .rounds import RoundResult, _fresh_result, round_backend, run_round
from .spec import CampaignSpec

__all__ = [
    "CampaignExecutor",
    "load_results",
    "load_results_counted",
    "pool_imap",
    "run_campaign",
]


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def pool_imap(fn, items, worker_count: int, ordered: bool = False):
    """Stream ``fn`` over ``items`` via a SIGINT-safe worker pool.

    The shared fan-out seam: campaign rounds consume it unordered (identity
    lives in ``round_id``), the fuzz engine consumes it ``ordered=True``
    (worker-order merging is what keeps multi-worker corpora
    deterministic). Workers ignore SIGINT so a Ctrl-C is taken by the
    parent alone, which terminates the pool instead of every worker
    dumping its own traceback over the cancellation message.
    """
    with propagate_context():
        pool = multiprocessing.Pool(
            processes=worker_count, initializer=_ignore_sigint
        )
    try:
        mapper = pool.imap if ordered else pool.imap_unordered
        for result in mapper(fn, items):
            yield result
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()


def load_results_counted(
    path: Union[str, Path],
) -> tuple[list[RoundResult], int]:
    """Parse a results JSONL file under the :mod:`repro.jsonl` rule;
    returns ``(results, torn_lines)``."""
    reader = JsonlReader(path, RoundResult.from_dict)
    return list(reader), reader.torn


def load_results(path: Union[str, Path]) -> list[RoundResult]:
    """:func:`load_results_counted` without the torn-line count."""
    return load_results_counted(path)[0]


class CampaignExecutor:
    """Plan → execute → aggregate one :class:`CampaignSpec`.

    Parameters
    ----------
    spec:
        The sweep to run.
    jobs:
        Worker processes; ``1`` executes inline (still streams JSONL).
    out:
        JSONL path for streamed round results; ``None`` keeps results
        in memory only (no resume possible).
    resume:
        Skip rounds already completed in ``out``. Implies appending.
    log:
        Optional callable for one-line progress messages (e.g. ``print``).
    max_retries:
        Retry budget for transient failures, both in-worker (exceptions)
        and executor-side (lost rounds). ``None`` keeps the policy's
        default / the ambient env setting.
    retry_backoff:
        Base backoff seconds between retries (``None``: default/env).
    heartbeat_seconds:
        How long the result stream may stay silent before the pool is
        declared stalled and the missing rounds are re-submitted.
    fault_plan:
        A :class:`FaultPlan` (or its spec string) to install for this
        run, exported through the environment so pool workers replay it.
    rounds:
        Restrict execution to this subset of the spec's rounds (a fleet
        worker's shard — see :mod:`repro.campaign.fleet`). ``None`` runs
        the full expansion. Every round must belong to the spec.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        jobs: int = 1,
        out: Optional[Union[str, Path]] = None,
        resume: bool = False,
        log: Optional[Callable[[str], None]] = None,
        max_retries: Optional[int] = None,
        retry_backoff: Optional[float] = None,
        heartbeat_seconds: float = 300.0,
        fault_plan: Optional[Union[str, FaultPlan]] = None,
        rounds: Optional[Sequence] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if resume and out is None:
            raise ValueError("resume requires an output JSONL path")
        if heartbeat_seconds <= 0:
            raise ValueError("heartbeat_seconds must be > 0")
        if rounds is not None:
            known = {r.round_id for r in spec.rounds()}
            alien = [r.round_id for r in rounds if r.round_id not in known]
            if alien:
                raise ValueError(
                    f"rounds not in this campaign spec: {sorted(alien)}"
                )
        self.rounds = tuple(rounds) if rounds is not None else None
        self.spec = spec
        self.jobs = jobs
        self.out = Path(out) if out is not None else None
        self.resume = resume
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.heartbeat_seconds = heartbeat_seconds
        self.fault_plan = FaultPlan.parse(fault_plan)
        self._log = log or (lambda message: None)
        self._events = {
            "worker_stalls": 0,
            "rounds_resubmitted": 0,
            "rounds_quarantined": 0,
            "torn_lines": 0,
        }

    # ------------------------------------------------------------------
    def plan(self) -> tuple[list[RoundResult], list]:
        """Split the spec into (already-done results, pending rounds)."""
        rounds = (
            self.rounds if self.rounds is not None else self.spec.rounds()
        )
        if not (self.resume and self.out):
            return [], list(rounds)
        wanted = {r.round_id for r in rounds}
        done: dict[str, RoundResult] = {}
        for result in load_results(self.out):
            if result.round_id in wanted and result.status != "error":
                done[result.round_id] = result
        pending = [r for r in rounds if r.round_id not in done]
        return list(done.values()), pending

    def _robustness_env(self) -> dict:
        """Env overrides carrying the retry policy and fault plan.

        Workers inherit the parent environment at pool-creation time
        (fork and spawn alike), so exporting before the pool exists is
        what makes the configuration cross the process boundary.
        """
        overrides = {}
        if self.max_retries is not None:
            overrides[MAX_RETRIES_ENV] = str(self.max_retries)
        if self.retry_backoff is not None:
            overrides[RETRY_BACKOFF_ENV] = repr(self.retry_backoff)
        if self.fault_plan is not None:
            overrides[FAULT_PLAN_ENV] = self.fault_plan.spec()
        return overrides

    def run(self) -> CampaignReport:
        overrides = self._robustness_env()
        saved = {key: os.environ.get(key) for key in overrides}
        os.environ.update(overrides)
        if self.fault_plan is not None:
            # inline rounds (and forked workers) read the in-process
            # state directly; spawn-start workers re-parse the env
            install_plan(self.fault_plan)
        try:
            return self._run()
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            if self.fault_plan is not None:
                install_plan(None)

    def _run(self) -> CampaignReport:
        # worker count is honest nondeterminism: under the fixed clock
        # the jobs attr must not vary the trace bytes (byte-identity of
        # --jobs 1 vs --jobs N is a tested invariant)
        attrs = {"campaign": self.spec.name}
        if not obs_deterministic():
            attrs["jobs"] = self.jobs
        with obs_span("campaign.run", **attrs) as root:
            report = self._run_observed()
            root.set(
                rounds=len(report.results),
                cancelled=report.cancelled,
            )
        report.wall_seconds = root.duration
        if obs_enabled():
            events = self._events
            reg = get_registry()
            for key in events:
                if events[key]:
                    reg.counter(f"campaign_{key}").inc(events[key])
        return report

    def _run_observed(self) -> CampaignReport:
        prior, pending = self.plan()
        total = len(prior) + len(pending)
        if prior:
            self._log(
                f"[{self.spec.name}] resume: {len(prior)}/{total} rounds "
                f"already complete"
            )
        results = list(prior)
        cancelled = False
        sink = None
        if self.resume:
            sink, self._events["torn_lines"] = open_append(self.out)
        elif self.out is not None:
            self.out.parent.mkdir(parents=True, exist_ok=True)
            sink = self.out.open("w")
        try:
            if pending:
                worker_count = min(self.jobs, len(pending))
                stream = (
                    self._run_inline(pending)
                    if worker_count == 1
                    else self._run_pool(pending, worker_count)
                )
                try:
                    for result in stream:
                        results.append(result)
                        if obs_enabled():
                            reg = get_registry()
                            reg.counter("campaign_rounds").inc(
                                key=result.status
                            )
                            if result.predicted:
                                reg.counter("campaign_predictions").inc(
                                    result.predicted
                                )
                        if sink is not None:
                            sink.write(json.dumps(result.to_dict()) + "\n")
                            sink.flush()
                        self._log(
                            f"[{self.spec.name}] "
                            f"{len(results)}/{total} {result.round_id}: "
                            f"{result.status}"
                            + (
                                f" predicted={result.predicted}"
                                f" validated={result.validated}"
                                if result.mode == "predict"
                                and result.status == "sat"
                                else ""
                            )
                            + f" ({result.wall_seconds:.2f}s)"
                        )
                except KeyboardInterrupt:
                    cancelled = True
                    self._log(
                        f"[{self.spec.name}] cancelled with "
                        f"{len(results)}/{total} rounds complete"
                    )
                finally:
                    # an interrupted stream releases its pool or archive
                    # connection now, not when it is collected
                    stream.close()
        finally:
            if sink is not None:
                sink.close()
        return CampaignReport.build(
            self.spec,
            results,
            jobs=self.jobs,
            cancelled=cancelled,
            events=dict(self._events),
        )

    # ------------------------------------------------------------------
    def _run_inline(self, pending):
        """Run ``pending`` in this process on one store backend, built
        once for the run and closed when the stream ends."""
        with round_backend(self.spec.backend) as backend:
            for spec in pending:
                yield run_round(spec, backend)

    def _stall_budget(self) -> int:
        if self.max_retries is not None:
            return self.max_retries
        return RetryPolicy.from_env().max_retries

    def _quarantine(self, spec, attempts: int) -> RoundResult:
        """An errored row for a round whose workers kept dying/hanging."""
        result = _fresh_result(spec)
        result.error = (
            f"round lost {attempts} time(s): worker crashed or hung "
            f"(no result within heartbeat "
            f"{self.heartbeat_seconds:g}s); quarantined"
        )
        result.error_kind = "stalled"
        result.attempts = attempts
        return result

    def _run_pool(self, pending, worker_count: int):
        """Pool fan-out with heartbeat-based lost-round recovery.

        A dead worker is replaced by the pool, but its in-flight round's
        result never arrives — the stream just goes quiet with rounds
        outstanding. When no result lands within the heartbeat, the pool
        is torn down and every round still missing is either re-submitted
        to a fresh pool or, past the retry budget, quarantined.
        """
        remaining = {spec.round_id: spec for spec in pending}
        attempts = {round_id: 0 for round_id in remaining}
        budget = self._stall_budget()
        while remaining:
            batch = list(remaining.values())
            with propagate_context():
                pool = multiprocessing.Pool(
                    processes=min(worker_count, len(batch)),
                    initializer=_ignore_sigint,
                )
            stalled = False
            try:
                stream = pool.imap_unordered(run_round, batch)
                while True:
                    try:
                        result = stream.next(timeout=self.heartbeat_seconds)
                    except StopIteration:
                        break
                    except multiprocessing.TimeoutError:
                        stalled = True
                        break
                    remaining.pop(result.round_id, None)
                    yield result
            except BaseException:
                pool.terminate()
                pool.join()
                raise
            if not stalled:
                pool.close()
                pool.join()
                if not remaining:
                    continue
                # defensive: the iterator ended with rounds missing —
                # treat it like a stall so the loop cannot spin forever
            else:
                pool.terminate()
                pool.join()
            self._events["worker_stalls"] += 1
            obs_event(
                "campaign.stall",
                outstanding=sorted(remaining),
                heartbeat_seconds=self.heartbeat_seconds,
            )
            for round_id in list(remaining):
                attempts[round_id] += 1
                if attempts[round_id] > budget:
                    spec = remaining.pop(round_id)
                    self._events["rounds_quarantined"] += 1
                    obs_event(
                        "campaign.quarantine",
                        round_id=round_id,
                        attempts=attempts[round_id],
                    )
                    yield self._quarantine(spec, attempts[round_id])
            self._events["rounds_resubmitted"] += len(remaining)
            self._log(
                f"[{self.spec.name}] worker stall: no result within "
                f"{self.heartbeat_seconds:g}s; re-submitting "
                f"{len(remaining)} round(s) "
                f"({self._events['rounds_quarantined']} quarantined)"
            )


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    out: Optional[Union[str, Path]] = None,
    resume: bool = False,
    log: Optional[Callable[[str], None]] = None,
    **executor_kwargs,
) -> CampaignReport:
    """One-call convenience wrapper around :class:`CampaignExecutor`."""
    return CampaignExecutor(
        spec, jobs=jobs, out=out, resume=resume, log=log, **executor_kwargs
    ).run()
