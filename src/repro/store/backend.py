"""Store backends: where an execution actually runs and gets recorded.

The paper's analysis is defined over *histories* recorded at the client
application's backend data store (§3) — nothing above the recording layer
should care which store that is. :class:`StoreBackend` captures the three
responsibilities the rest of the system needs from a backend:

* construct a store pre-loaded with an initial state,
* execute a set of session programs against it under a read policy and a
  (seeded or dictated) schedule,
* hand back the recorded :class:`~repro.history.model.History` plus a
  handle to the finished store for application-level assertion checks.

:class:`InMemoryBackend` wraps the repository's own
:class:`~repro.store.kvstore.DataStore` and schedulers — the MonkeyDB
equivalent. Sharded or multi-store backends are drop-in implementations of
the same protocol rather than a rewrite of the recording layer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol, Sequence, runtime_checkable

from ..history.model import History
from .kvstore import DataStore
from .policies import ReadPolicy
from .scheduler import InterleavedScheduler, Program, SerialScheduler

__all__ = [
    "BackendRun",
    "StoreBackend",
    "InMemoryBackend",
    "DEFAULT_BACKEND",
    "run_programs",
]

PolicyFactory = Callable[[str], ReadPolicy]


@dataclass
class BackendRun:
    """What one backend execution produced.

    ``store`` is the finished store handle, kept so callers can run
    MonkeyDB-style assertion checks over the final state; its concrete
    type is backend-specific (the in-memory backend hands back its
    :class:`DataStore`, the sharded backend a multi-shard router store),
    which is why the annotation is deliberately loose. ``meta`` is
    backend provenance (shard topology, archive row ids, …) merged into
    the recorded run's meta — it never affects the analysis.
    """

    history: History
    store: Any
    meta: dict = field(default_factory=dict)


@runtime_checkable
class StoreBackend(Protocol):
    """Protocol every store backend implements.

    ``execute`` runs ``programs`` (session name → generator function that
    yields once after each transaction, see :mod:`repro.store.scheduler`)
    against a fresh store seeded with ``initial``. ``interleaved`` selects
    statement-level interleaving (the realistic read-committed executor);
    ``turn_order`` dictates the serial schedule for validation replay.
    The two are mutually exclusive by construction: replay is always
    transaction-serial.
    """

    name: str

    def new_store(self, initial: Optional[dict] = None) -> DataStore:
        """A fresh store pre-loaded with ``initial`` (t0's writes)."""
        ...

    def execute(
        self,
        programs: dict[str, Program],
        policy_factory: PolicyFactory,
        *,
        initial: Optional[dict] = None,
        seed: int = 0,
        interleaved: bool = False,
        turn_order: Optional[Sequence[str]] = None,
    ) -> BackendRun:
        """Run every program to completion; record and return the history."""
        ...


def run_programs(
    store: DataStore,
    programs: dict[str, Program],
    policy_factory: PolicyFactory,
    *,
    seed: int = 0,
    interleaved: bool = False,
    turn_order: Optional[Sequence[str]] = None,
) -> History:
    """Drive ``programs`` to completion on ``store``; the shared executor.

    Each program is a generator function that yields once after each
    transaction. Every backend that executes in process (in-memory,
    sharded, sqlite) schedules sessions identically — backends differ in
    the store handle they build and in what they do with the finished
    run, so the scheduler-driving logic lives here once.
    """
    if interleaved and turn_order is not None:
        raise ValueError(
            "turn_order dictates a serial schedule; it cannot be "
            "combined with interleaved execution"
        )
    if interleaved:
        scheduler = InterleavedScheduler(
            store, programs, policy_factory, seed=seed
        )
    else:
        scheduler = SerialScheduler(
            store, programs, policy_factory, seed=seed,
            turn_order=turn_order,
        )
    return scheduler.run()


class InMemoryBackend:
    """The in-process :class:`DataStore` backend (MonkeyDB's three roles)."""

    name = "memory"

    #: Canonical selection spec (see ``repro.store.backends``).
    spec = "inmemory"

    def new_store(self, initial: Optional[dict] = None) -> DataStore:
        return DataStore(initial=initial)

    def execute(
        self,
        programs: dict[str, Program],
        policy_factory: PolicyFactory,
        *,
        initial: Optional[dict] = None,
        seed: int = 0,
        interleaved: bool = False,
        turn_order: Optional[Sequence[str]] = None,
    ) -> BackendRun:
        store = self.new_store(initial)
        history = run_programs(
            store,
            programs,
            policy_factory,
            seed=seed,
            interleaved=interleaved,
            turn_order=turn_order,
        )
        return BackendRun(history=history, store=store)


#: The default backend used whenever a caller does not supply one.
DEFAULT_BACKEND = InMemoryBackend()
