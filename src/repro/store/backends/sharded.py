"""The sharded store backend: hash-routed keys over N shard recorders.

Real weakly-isolated deployments serve their keyspace from many shards;
this backend reproduces that topology inside the recording layer. A
:class:`ShardedStore` presents the exact :class:`~repro.store.kvstore.DataStore`
surface to clients, read policies and assertion checks, but routes every
per-key question (who wrote this key, what is its latest value) through
the shard the key hashes to. Each shard is an independent
:class:`ShardStore` recorder with its own commit sub-log, so per-shard
histories can be inspected — and analyzed — in isolation via
:meth:`ShardedStore.shard_history`.

**Equivalence by construction.** ``ShardedStore`` subclasses ``DataStore``
and keeps the *global* bookkeeping (commit log, session positions, tid
allocation) on the inherited code path, mirroring every commit into the
touched shards afterwards. The recorded global history is therefore
byte-identical to an in-memory :class:`~repro.store.kvstore.DataStore` run for
any shard count — sharding changes where data lives, never what the
analysis sees. The routed per-key overrides read their answers from the
shard stores, so the mirror is exercised (not decorative) on every read.

**Cross-shard read policy.** The one semantic knob is what a read-legality
check may look at:

* ``"global"`` (default) — candidate writers are judged against the whole
  multi-shard history, exactly like the in-memory store. Recording,
  exploration and replay all behave identically to ``inmemory``.
* ``"local"`` — legality is judged against the *projection* of the history
  onto the shard of the key being read, modelling a store with per-shard
  consistency and no cross-shard coordination. Random weak exploration
  under ``"local"`` can select read sources that a globally-consistent
  store would forbid, which is precisely the cross-shard anomaly class the
  sharded scenario workloads exist to surface.
"""
from __future__ import annotations

import contextlib
import zlib
from typing import Callable, Optional

from ...faults import guarded_fault_point
from ...history.events import Event, ReadEvent
from ...history.model import History, Transaction
from ...obs import span as obs_span
from ..kvstore import DataStore

#: single-shard commits are the common case; only the cross-shard mirror
#: fan-out earns a span of its own
_NULL_SPAN = contextlib.nullcontext()

__all__ = ["ShardRouter", "ShardStore", "ShardedStore", "ShardedBackend"]

#: Cross-shard read-legality policies.
CROSS_SHARD_POLICIES = ("global", "local")


class ShardRouter:
    """Deterministic key → shard placement.

    Uses CRC-32 rather than Python's string hash so placement is identical
    across processes and interpreter versions (campaign workers must agree
    with the parent on which shard owns a key). A custom routing function
    may be injected for tests (e.g. forcing every key onto one shard).
    """

    def __init__(
        self,
        shards: int,
        route: Optional[Callable[[str], int]] = None,
    ):
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.shards = shards
        self._route = route

    def shard_of(self, key: str) -> int:
        if self._route is not None:
            return self._route(key) % self.shards
        return zlib.crc32(key.encode("utf-8")) % self.shards


class ShardStore(DataStore):
    """One shard's independent recorder.

    A plain :class:`DataStore` fed *projections* of globally committed
    transactions — only the events and writes whose keys live on this
    shard. Its commit sub-log is a valid :class:`History` of its own.
    """

    def install_projection(self, txn: Transaction, writes: dict) -> None:
        """Install a shard-projected committed transaction.

        Bypasses :meth:`DataStore.commit_transaction` on purpose: the
        global store already allocated positions and session indexes, and
        the projection must keep them (a shard history's so-order is the
        global one restricted to this shard's events).
        """
        self._commit_log.append(txn)
        self._writes[txn.tid] = dict(writes)
        for key in writes:
            self._writers_by_key.setdefault(key, []).append(txn.tid)
        for event in txn.events:
            self._initial.setdefault(event.key, None)
        self._history_cache = None


class ShardedStore(DataStore):
    """A multi-shard store presenting the single-store ``DataStore`` surface.

    The inherited state is the *global* view (commit log, session
    positions, tid counter) — the recording layer and history construction
    run on the unmodified ``DataStore`` code path. Every commit is then
    mirrored into the shards it touches, and the per-key query surface
    (``writers_of`` / ``value_written`` / ``wrote`` / ``latest_writer``)
    is overridden to answer from the owning shard store.
    """

    def __init__(
        self,
        initial: Optional[dict[str, object]] = None,
        shards: int = 2,
        router: Optional[ShardRouter] = None,
        cross_shard_reads: str = "global",
    ):
        if cross_shard_reads not in CROSS_SHARD_POLICIES:
            raise ValueError(
                f"unknown cross-shard read policy {cross_shard_reads!r}; "
                f"expected one of {CROSS_SHARD_POLICIES}"
            )
        super().__init__(initial=initial)
        self.router = router or ShardRouter(shards)
        if self.router.shards != shards:
            raise ValueError(
                f"router is built for {self.router.shards} shards, "
                f"backend asked for {shards}"
            )
        self.cross_shard_reads = cross_shard_reads
        self._shards = tuple(
            ShardStore(initial=self._partition(initial, index))
            for index in range(shards)
        )
        #: tid -> sorted tuple of shard indexes the transaction touched.
        self._shards_of_tid: dict[str, tuple[int, ...]] = {}

    def _partition(self, initial: Optional[dict], index: int) -> dict:
        return {
            k: v
            for k, v in (initial or {}).items()
            if self.shard_of(k) == index
        }

    # ------------------------------------------------------------------
    # Topology introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        return len(self._shards)

    def shard_of(self, key: str) -> int:
        return self.router.shard_of(key)

    def shard_store(self, index: int) -> ShardStore:
        return self._shards[index]

    def shard_history(self, index: int) -> History:
        """The shard's own recorded history (its commit sub-log)."""
        return self._shards[index].history()

    def shards_of(self, tid: str) -> tuple[int, ...]:
        """Shard indexes ``tid`` touched (empty tuple for unknown tids)."""
        return self._shards_of_tid.get(tid, ())

    def cross_shard_tids(self) -> list[str]:
        """Committed transactions touching more than one shard, commit order."""
        return [
            txn.tid
            for txn in self._commit_log
            if len(self._shards_of_tid.get(txn.tid, ())) > 1
        ]

    def meta(self) -> dict:
        """Provenance recorded into the run's history meta.

        Carries the topology and the single- vs cross-shard transaction
        attribution, so predictions over a sharded recording can be traced
        back to the shards their transactions spanned.
        """
        cross = self.cross_shard_tids()
        return {
            "store_backend": "sharded",
            "shards": self.shards,
            "cross_shard_reads": self.cross_shard_reads,
            "cross_shard_txns": len(cross),
            "single_shard_txns": len(self._commit_log) - len(cross),
            "cross_shard_tids": cross,
            # per-transaction placement: the triage map the fuzzer's
            # coverage key and docs/fuzzing.md lean on when attributing
            # a find to cross- vs single-shard contention
            "shards_by_tid": {
                tid: list(shards)
                for tid, shards in sorted(self._shards_of_tid.items())
            },
            "shard_committed": [
                len(s.committed()) for s in self._shards
            ],
            "shard_keys": [
                len(s.initial_values) for s in self._shards
            ],
        }

    # ------------------------------------------------------------------
    # Routed per-key queries (answered by the owning shard)
    # ------------------------------------------------------------------
    def writers_of(self, key: str) -> list[str]:
        return self._shards[self.shard_of(key)].writers_of(key)

    def value_written(self, tid: str, key: str) -> object:
        return self._shards[self.shard_of(key)].value_written(tid, key)

    def wrote(self, tid: str, key: str) -> bool:
        return self._shards[self.shard_of(key)].wrote(tid, key)

    def latest_writer(self, key: str) -> str:
        return self._shards[self.shard_of(key)].latest_writer(key)

    # ------------------------------------------------------------------
    # Commit path: global bookkeeping first, then mirror into shards
    # ------------------------------------------------------------------
    def commit_transaction(
        self,
        tid: str,
        session: str,
        events: list[Event],
        writes: dict[str, object],
    ) -> Transaction:
        txn = super().commit_transaction(tid, session, events, writes)
        by_shard_events: dict[int, list[Event]] = {}
        for event in txn.events:
            by_shard_events.setdefault(
                self.shard_of(event.key), []
            ).append(event)
        by_shard_writes: dict[int, dict[str, object]] = {}
        for key, value in writes.items():
            by_shard_writes.setdefault(self.shard_of(key), {})[key] = value
        touched = sorted(set(by_shard_events) | set(by_shard_writes))
        self._shards_of_tid[tid] = tuple(touched)
        # the commit's failure-prone seam: global bookkeeping is already
        # recorded, so a transient injected fault must be absorbed in
        # place (retried) rather than unwinding a half-mirrored commit
        guarded_fault_point(
            "store.sharded.commit", tid=tid, shards=len(touched)
        )
        with obs_span(
            "store.sharded.commit", shards=len(touched)
        ) if len(touched) > 1 else _NULL_SPAN:
            for index in touched:
                projected = Transaction(
                    tid=txn.tid,
                    session=txn.session,
                    index=txn.index,
                    events=tuple(by_shard_events.get(index, ())),
                    commit_pos=txn.commit_pos,
                )
                self._shards[index].install_projection(
                    projected, by_shard_writes.get(index, {})
                )
        return txn

    # ------------------------------------------------------------------
    # Read legality: global or per-shard trial histories
    # ------------------------------------------------------------------
    def trial_history(self, extra: Transaction) -> History:
        if self.cross_shard_reads == "global":
            return super().trial_history(extra)
        key = _candidate_read_key(extra)
        if key is None:  # not a read trial; fall back to the global view
            return super().trial_history(extra)
        return self._project_trial(extra, self.shard_of(key))

    def _project_trial(self, extra: Transaction, index: int) -> History:
        """The (history + fragment) projection onto one shard.

        The committed prefix needs no recomputation — the shard's own
        sub-log *is* that projection, maintained at commit time — so only
        the in-progress fragment is filtered here. Reads and their
        writers share the read key's shard, so the result is always a
        well-formed history: every kept read's writer kept the
        corresponding write event.
        """
        shard = self._shards[index]
        projected = list(shard.committed())
        events = tuple(
            e for e in extra.events if self.shard_of(e.key) == index
        )
        if events:
            projected.append(
                Transaction(
                    tid=extra.tid,
                    session=extra.session,
                    index=extra.index,
                    events=events,
                    commit_pos=extra.commit_pos,
                )
            )
        return History(projected, initial_values=shard.initial_values)


def _candidate_read_key(extra: Transaction) -> Optional[str]:
    """The key of the read under trial (read policies append it last)."""
    if extra.events and isinstance(extra.events[-1], ReadEvent):
        return extra.events[-1].key
    return None


class ShardedBackend:
    """N hash-routed shards behind the :class:`StoreBackend` protocol.

    ``shards=1`` is the degenerate topology used by the equivalence suite;
    any N with the default ``"global"`` read policy records histories
    identical to the in-memory backend (see the module docstring), while
    ``"local"`` unlocks per-shard read legality for exploration runs.
    """

    name = "sharded"

    def __init__(
        self,
        shards: int = 2,
        cross_shard_reads: str = "global",
        router: Optional[ShardRouter] = None,
    ):
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        if cross_shard_reads not in CROSS_SHARD_POLICIES:
            raise ValueError(
                f"unknown cross-shard read policy {cross_shard_reads!r}; "
                f"expected one of {CROSS_SHARD_POLICIES}"
            )
        self.shards = shards
        self.cross_shard_reads = cross_shard_reads
        self.router = router

    @property
    def spec(self) -> str:
        """Canonical selection spec (round ids, JSONL records)."""
        base = f"sharded:{self.shards}"
        if self.cross_shard_reads != "global":
            base += f":{self.cross_shard_reads}"
        return base

    def new_store(self, initial: Optional[dict] = None) -> ShardedStore:
        return ShardedStore(
            initial=initial,
            shards=self.shards,
            router=self.router,
            cross_shard_reads=self.cross_shard_reads,
        )

    def finish(self, store: ShardedStore, history, **_) -> dict:
        """The run's shard topology and cross-shard attribution."""
        return store.meta()
