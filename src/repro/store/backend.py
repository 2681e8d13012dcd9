"""Store backends: where an execution actually runs and gets recorded.

The paper's analysis is defined over *histories* recorded at the client
application's backend data store (§3) — nothing above the recording layer
should care which store that is. :func:`execute` is the one program
executor: it builds the store, drives the session programs under a read
policy and a (seeded or dictated) schedule, classifies the run's archive
phase and hands the finished run to the backend.

A :class:`StoreBackend` supplies only what differs between stores:

* ``new_store`` — a store pre-loaded with an initial state,
* ``finish`` — what to do with the finished run (persist it, describe the
  shard topology), returning the provenance meta merged into the
  recorded run's meta.

``backend=None`` is the in-process :class:`~repro.store.kvstore.DataStore`
— the MonkeyDB equivalent and the default everywhere. Sharded or
multi-store backends are drop-in implementations of the same protocol
rather than a rewrite of the recording layer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol, Sequence, runtime_checkable

from ..history.model import History
from .kvstore import DataStore
from .policies import LatestWriterPolicy, ReadPolicy
from .scheduler import InterleavedScheduler, Program, SerialScheduler

__all__ = ["BackendRun", "StoreBackend", "execute"]

PolicyFactory = Callable[[str], ReadPolicy]


@dataclass
class BackendRun:
    """What one execution produced.

    ``store`` is the finished store handle, kept so callers can run
    MonkeyDB-style assertion checks over the final state; its concrete
    type is backend-specific (a plain :class:`DataStore` in memory, a
    multi-shard router store for the sharded backend), which is why the
    annotation is deliberately loose. ``meta`` is backend provenance
    (shard topology, archive row ids, …) merged into the recorded run's
    meta — it never affects the analysis.
    """

    history: History
    store: Any
    meta: dict = field(default_factory=dict)


@runtime_checkable
class StoreBackend(Protocol):
    """What a store backend supplies to :func:`execute`."""

    name: str

    def new_store(self, initial: Optional[dict] = None) -> DataStore:
        """A fresh store pre-loaded with ``initial`` (t0's writes)."""
        ...

    def finish(
        self,
        store: Any,
        history: History,
        *,
        phase: str,
        seed: int,
        sessions: int,
    ) -> dict:
        """Take the finished run; return its provenance meta.

        ``store`` is the handle :meth:`new_store` built and ``history``
        what the run recorded on it. ``phase`` is ``record``, ``explore``
        or ``replay`` (see :func:`execute`), ``seed`` the schedule seed
        and ``sessions`` the number of session programs.
        """
        ...


def execute(
    programs: dict[str, Program],
    policy_factory: PolicyFactory,
    *,
    backend: Optional[StoreBackend] = None,
    initial: Optional[dict] = None,
    seed: int = 0,
    interleaved: bool = False,
    turn_order: Optional[Sequence[str]] = None,
) -> BackendRun:
    """Run every program to completion on a fresh store; record the history.

    ``programs`` maps session names to generator functions that yield once
    after each transaction (see :mod:`repro.store.scheduler`); the store
    is seeded with ``initial``. ``interleaved`` selects statement-level
    interleaving (the realistic read-committed executor); ``turn_order``
    dictates the serial schedule for validation replay. The two are
    mutually exclusive: replay is always transaction-serial. ``backend``
    selects the store (``None``: the in-process :class:`DataStore`).
    """
    if interleaved and turn_order is not None:
        raise ValueError(
            "turn_order dictates a serial schedule; it cannot be "
            "combined with interleaved execution"
        )
    if backend is None:
        store = DataStore(initial=initial)
    else:
        store = backend.new_store(initial)
    if interleaved:
        scheduler = InterleavedScheduler(
            store, programs, policy_factory, seed=seed
        )
    else:
        scheduler = SerialScheduler(
            store, programs, policy_factory, seed=seed,
            turn_order=turn_order,
        )
    history = scheduler.run()
    if backend is None:
        return BackendRun(history=history, store=store)
    meta = backend.finish(
        store,
        history,
        phase=_phase_of(policy_factory, interleaved, turn_order),
        seed=seed,
        sessions=len(programs),
    )
    return BackendRun(history=history, store=store, meta=meta)


def _phase_of(
    policy_factory: PolicyFactory,
    interleaved: bool,
    turn_order: Optional[Sequence[str]],
) -> str:
    """Classify how the run was driven (the phase stamped on archive rows).

    ``record`` is reserved for serial latest-writer runs — the
    serializable observed recordings the analysis consumes. Serial runs
    under any *other* read policy (random weak-isolation exploration,
    custom policies) are ``explore``: reopening an archive defaults to
    the ``record`` rows, and a weakly-isolated history must never pose
    as an observed recording there. The factory is probed once with a
    sentinel session; every in-tree factory is side-effect-free.
    """
    if turn_order is not None:
        return "replay"
    if interleaved:
        return "explore"
    probe = policy_factory("__phase_probe__")
    if isinstance(probe, LatestWriterPolicy):
        return "record"
    return "explore"
