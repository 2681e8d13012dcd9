"""Shared machinery for the benchmark applications.

Determinism contract (paper §7.1): given a :class:`WorkloadConfig` and a
seed, every session issues a fixed sequence of transaction *intents*; the
only nondeterminism left is the scheduler's interleaving, which is itself
seeded. Validation replays the same programs with the same seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..history.model import History
from ..isolation.levels import IsolationLevel
from ..store.backend import StoreBackend, execute
from ..store.client import Client
from ..store.kvstore import DataStore
from ..store.policies import LatestWriterPolicy, RandomIsolationPolicy
from ..sqlkv.engine import SqlEngine, build_schemas

__all__ = [
    "WorkloadConfig",
    "AppSpec",
    "RunOutcome",
    "record_observed",
    "run_random_weak",
    "run_interleaved_rc",
]


@dataclass(frozen=True)
class WorkloadConfig:
    """Workload shape: the paper's small/large plus keyspace scale knobs.

    The paper's ported benchmarks issue hundreds to thousands of KV
    accesses per run (Table 3); ``ops_scale`` multiplies the per-transaction
    access counts so laptop-friendly defaults (scale 1) can be raised toward
    paper-scale event counts.
    """

    sessions: int = 3
    txns_per_session: int = 4  # 4 = the paper's small workload, 8 = large
    ops_scale: int = 1
    label: str = "small"

    @classmethod
    def small(cls, ops_scale: int = 1) -> "WorkloadConfig":
        return cls(3, 4, ops_scale, "small")

    @classmethod
    def large(cls, ops_scale: int = 1) -> "WorkloadConfig":
        return cls(3, 8, ops_scale, "large")

    @classmethod
    def tiny(cls) -> "WorkloadConfig":
        """A fast shape for unit tests: 2 sessions × 2 transactions."""
        return cls(2, 2, 1, "tiny")


class AppSpec:
    """A benchmark application: schema, initial data, programs, assertions."""

    name: str = "app"
    ddl: tuple[str, ...] = ()

    def __init__(self, config: Optional[WorkloadConfig] = None):
        self.config = config or WorkloadConfig.small()
        self.schemas = build_schemas(list(self.ddl))

    # -- to implement ---------------------------------------------------
    def initial_state(self) -> dict[str, object]:
        """Pre-loaded rows, keyed ``table:pk`` (t0's writes)."""
        raise NotImplementedError

    def transaction(
        self, engine: SqlEngine, rng: random.Random, session_index: int
    ) -> None:
        """Issue one transaction (ending in commit or rollback)."""
        raise NotImplementedError

    def check_assertions(self, store: DataStore) -> list[str]:
        """MonkeyDB-style invariant checks over the finished run.

        Returns failure descriptions; every failure certifies an
        unserializable execution (sufficient, not necessary — Table 6/7).
        """
        raise NotImplementedError

    # -- provided -------------------------------------------------------
    def engine(self, client: Client) -> SqlEngine:
        return SqlEngine(client, self.schemas)

    def programs(self) -> dict[str, Callable]:
        """One session program per session, deterministic modulo scheduling.

        Each program is a generator that yields after every transaction,
        the points where the serial scheduler may switch sessions.
        """
        out = {}
        for index in range(self.config.sessions):
            session = f"s{index + 1}"

            def program(client, rng, index=index):
                engine = self.engine(client)
                for _ in range(self.config.txns_per_session):
                    self.transaction(engine, rng, index)
                    yield

            out[session] = program
        return out


@dataclass
class RunOutcome:
    """One benchmark execution: its history, store, and assertion failures.

    ``store`` is the backend-specific finished store handle (any object
    presenting the :class:`DataStore` query surface the app's assertions
    consume); ``meta`` carries the backend's provenance (shard topology,
    sqlite execution ids) into the recorded run's meta.
    """

    app: AppSpec
    history: History
    store: DataStore
    failures: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def assertion_failed(self) -> bool:
        return bool(self.failures)


def _run(
    app: AppSpec,
    policy_factory,
    seed: int,
    interleaved=False,
    backend: Optional[StoreBackend] = None,
) -> RunOutcome:
    run = execute(
        app.programs(),
        policy_factory,
        backend=backend,
        initial=app.initial_state(),
        seed=seed,
        interleaved=interleaved,
    )
    return RunOutcome(
        app=app,
        history=run.history,
        store=run.store,
        failures=app.check_assertions(run.store),
        meta=run.meta,
    )


def record_observed(
    app: AppSpec, seed: int, backend: Optional[StoreBackend] = None
) -> RunOutcome:
    """Record a serializable observed execution (§6: serial + latest reads)."""
    return _run(app, lambda s: LatestWriterPolicy(), seed, backend=backend)


def run_random_weak(
    app: AppSpec,
    seed: int,
    level: IsolationLevel,
    backend: Optional[StoreBackend] = None,
) -> RunOutcome:
    """MonkeyDB testing mode: random isolation-legal reads (§7.3)."""
    rng = random.Random(f"weak:{seed}")
    policy = RandomIsolationPolicy(level, rng)
    return _run(app, lambda s: policy, seed, backend=backend)


def run_interleaved_rc(
    app: AppSpec, seed: int, backend: Optional[StoreBackend] = None
) -> RunOutcome:
    """The MySQL stand-in: statement-interleaved, latest-committed reads."""
    return _run(
        app,
        lambda s: LatestWriterPolicy(),
        seed,
        interleaved=True,
        backend=backend,
    )
