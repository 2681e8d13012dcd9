"""Scenario workloads that only make sense over a sharded keyspace.

Two workloads designed for the :class:`~repro.store.backends.ShardedBackend`:

* :class:`ShardTransfer` — a cross-shard money-transfer app. Accounts
  hash across shards, so a ``transfer`` is usually a *cross-shard*
  transaction (read on one shard, writes on two) and the ``audit``
  transaction reads every shard in one go. Under weak isolation a lost
  update between two transfers breaks per-account conservation — and on
  a ``sharded:N:local`` store the anomaly can span shards that never
  coordinated, the workload class the paper's single-store benchmarks
  cannot express.
* :class:`ShardedSmallbank` — the multi-shard Smallbank tier: the classic
  six-transaction mix over a 3× larger account population partitioned
  into per-session "home" regions. Sessions mostly stay home
  (single-shard traffic) and occasionally pay across partitions, so the
  recorded history mixes single- and cross-shard transactions in a
  controlled ratio — exactly what the sharded backend's meta attribution
  (``cross_shard_txns``) is meant to measure.

Both run unchanged on any store backend (an app never knows where its
keys live); "sharded" names the topology they are *designed to stress*,
and the cross-backend equivalence suite relies on them running on the
in-memory store too.
"""
from __future__ import annotations

import random

from ..sqlkv.engine import SqlEngine, row_key
from ..store.kvstore import DataStore
from .base import AppSpec
from .smallbank import Smallbank

__all__ = ["ShardTransfer", "ShardedSmallbank"]

_N_ACCOUNTS = 8
_INITIAL_BALANCE = 100


class ShardTransfer(AppSpec):
    """Cross-shard transfers with a global conservation assertion."""

    name = "shardtransfer"
    ddl = ("CREATE TABLE accounts (name PRIMARY KEY, bal)",)

    accounts = tuple(f"acct{i}" for i in range(_N_ACCOUNTS))

    def __init__(self, config=None):
        super().__init__(config)
        self._deltas: dict[str, int] = {name: 0 for name in self.accounts}

    # ------------------------------------------------------------------
    def initial_state(self) -> dict[str, object]:
        return {
            row_key("accounts", name): {"name": name, "bal": _INITIAL_BALANCE}
            for name in self.accounts
        }

    # ------------------------------------------------------------------
    def transaction(
        self, engine: SqlEngine, rng: random.Random, session_index: int
    ) -> None:
        # transfers dominate; deposits keep balances growing (so transfers
        # rarely abort), audits add the multi-shard read-only shape
        kind = rng.choice(
            ("transfer", "transfer", "transfer", "deposit", "audit")
        )
        getattr(self, f"_{kind}")(engine, rng)

    def _read_balance(self, engine: SqlEngine, name: str) -> int:
        row = engine.query_one(
            "SELECT bal FROM accounts WHERE name = ?", [name]
        )
        return 0 if row is None else row["bal"]

    def _transfer(self, engine: SqlEngine, rng: random.Random) -> None:
        src, dst = rng.sample(list(self.accounts), 2)
        amount = rng.randint(1, 60)
        balance = self._read_balance(engine, src)
        if balance < amount:
            engine.client.rollback()  # application-level abort
            return
        engine.execute(
            "UPDATE accounts SET bal = bal - ? WHERE name = ?",
            [amount, src],
        )
        engine.execute(
            "UPDATE accounts SET bal = bal + ? WHERE name = ?",
            [amount, dst],
        )
        if engine.client.commit() is not None:
            self._deltas[src] -= amount
            self._deltas[dst] += amount

    def _deposit(self, engine: SqlEngine, rng: random.Random) -> None:
        name = rng.choice(self.accounts)
        amount = rng.randint(1, 40)
        engine.execute(
            "UPDATE accounts SET bal = bal + ? WHERE name = ?",
            [amount, name],
        )
        if engine.client.commit() is not None:
            self._deltas[name] += amount

    def _audit(self, engine: SqlEngine, rng: random.Random) -> None:
        # one read-only sweep over the whole (multi-shard) account space
        for _ in range(self.config.ops_scale):
            for name in self.accounts:
                self._read_balance(engine, name)
        engine.client.commit()

    # ------------------------------------------------------------------
    def check_assertions(self, store: DataStore) -> list[str]:
        failures = []
        for name in self.accounts:
            key = row_key("accounts", name)
            row = store.value_written(store.latest_writer(key), key)
            actual = row["bal"] if isinstance(row, dict) else 0
            expected = _INITIAL_BALANCE + self._deltas[name]
            if actual != expected:
                failures.append(
                    f"conservation violated for accounts:{name}: "
                    f"expected {expected}, found {actual}"
                )
        return failures


class ShardedSmallbank(Smallbank):
    """Smallbank over partitioned accounts with per-session home regions.

    Three partitions of the classic five accounts (15 total). A session's
    home partition is ``session_index % 3``; account picks stay home 75%
    of the time, and pair picks (amalgamate / send-payment) cross into a
    foreign partition 40% of the time. The six transaction programs, the
    abort logic, and the money-conservation assertion are inherited
    unchanged from :class:`Smallbank`.
    """

    name = "smallbank_sharded"

    PARTITIONS = 3
    HOME_BIAS = 0.75
    CROSS_PAIR_RATE = 0.4

    accounts = tuple(
        f"{name}_p{p}"
        for p in range(PARTITIONS)
        for name in ("alice", "bob", "carol", "dave", "erin")
    )

    def __init__(self, config=None):
        super().__init__(config)
        self._partitions = tuple(
            tuple(a for a in self.accounts if a.endswith(f"_p{p}"))
            for p in range(self.PARTITIONS)
        )
        self._home = 0

    def transaction(
        self, engine: SqlEngine, rng: random.Random, session_index: int
    ) -> None:
        # Sessions run one at a time. The serial schedulers switch only
        # between transactions (a program yields after each one) and the
        # interleaved one only at store operations, all of which come after
        # the account picks in every program — so setting the home
        # partition here is race-free by construction.
        self._home = session_index % self.PARTITIONS
        super().transaction(engine, rng, session_index)

    def _pick(self, rng: random.Random) -> str:
        pool = (
            self._partitions[self._home]
            if rng.random() < self.HOME_BIAS
            else self.accounts
        )
        return rng.choice(pool)

    def _pick_pair(self, rng: random.Random) -> tuple[str, str]:
        home = self._partitions[self._home]
        if rng.random() < self.CROSS_PAIR_RATE:
            # cross-partition payment: home source, foreign destination
            src = rng.choice(home)
            foreign = tuple(a for a in self.accounts if a not in home)
            return src, rng.choice(foreign)
        src, dst = rng.sample(list(home), 2)
        return src, dst
