"""The versioned key–value store and its committed-transaction log."""
from __future__ import annotations

import itertools
from typing import Optional

from ..history.events import Event, ReadEvent, WriteEvent
from ..history.model import History, INIT_TID, Transaction

__all__ = ["DataStore"]


class DataStore:
    """A transactional key–value store that remembers every version.

    Unlike a production store, every committed write is retained together
    with its writer, because weak-isolation read policies may legally return
    *old* versions and the recorder needs the full write–read relation.
    Transactions execute one at a time (the schedulers guarantee mutual
    exclusion), so no internal locking is needed.
    """

    def __init__(self, initial: Optional[dict[str, object]] = None):
        self._initial: dict[str, object] = dict(initial or {})
        # committed transactions in real-time commit order
        self._commit_log: list[Transaction] = []
        self._writes: dict[str, dict[str, object]] = {}  # tid -> key -> value
        self._writers_by_key: dict[str, list[str]] = {}
        self._session_positions: dict[str, int] = {}
        self._session_counts: dict[str, int] = {}
        self._tid_counter = itertools.count(1)
        self._history_cache: Optional[History] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def initial_values(self) -> dict[str, object]:
        return dict(self._initial)

    def next_tid(self) -> str:
        return f"t{next(self._tid_counter)}"

    def committed(self) -> tuple[Transaction, ...]:
        """Committed transactions in real-time commit order."""
        return tuple(self._commit_log)

    def writers_of(self, key: str) -> list[str]:
        """Committed writers of ``key``, oldest first, including ``t0``."""
        return [INIT_TID] + self._writers_by_key.get(key, [])

    def value_written(self, tid: str, key: str) -> object:
        """The value ``tid``'s last write put in ``key``."""
        if tid == INIT_TID:
            return self._initial.get(key)
        return self._writes[tid][key]

    def wrote(self, tid: str, key: str) -> bool:
        if tid == INIT_TID:
            return True  # t0 implicitly writes every key
        return key in self._writes.get(tid, {})

    def latest_writer(self, key: str) -> str:
        writers = self._writers_by_key.get(key)
        return writers[-1] if writers else INIT_TID

    # ------------------------------------------------------------------
    # Session position bookkeeping (events are numbered per session)
    # ------------------------------------------------------------------
    def session_base_position(self, session: str) -> int:
        return self._session_positions.get(session, 0)

    def next_txn_index(self, session: str) -> int:
        return self._session_counts.get(session, 0)

    # ------------------------------------------------------------------
    # Commit path (called by Client)
    # ------------------------------------------------------------------
    def commit_transaction(
        self,
        tid: str,
        session: str,
        events: list[Event],
        writes: dict[str, object],
    ) -> Transaction:
        """Install a transaction's events and writes into the store.

        ``events`` must already be normalized (§2.1: own-write reads elided,
        only last writes) with final per-session positions assigned; the
        commit position is allocated here.
        """
        commit_pos = (
            max((e.pos for e in events), default=self.session_base_position(session) - 1)
            + 1
        )
        txn = Transaction(
            tid=tid,
            session=session,
            index=self.next_txn_index(session),
            events=tuple(events),
            commit_pos=commit_pos,
        )
        self._commit_log.append(txn)
        self._writes[tid] = dict(writes)
        for key in writes:
            self._writers_by_key.setdefault(key, []).append(tid)
        self._session_positions[session] = commit_pos + 1
        self._session_counts[session] = txn.index + 1
        for event in events:
            if isinstance(event, (ReadEvent, WriteEvent)):
                self._initial.setdefault(event.key, None)
        self._history_cache = None
        return txn

    # ------------------------------------------------------------------
    # History construction
    # ------------------------------------------------------------------
    def history(self) -> History:
        """The observed execution history recorded so far."""
        if self._history_cache is None:
            self._history_cache = History(
                self._commit_log, initial_values=self._initial
            )
        return self._history_cache

    def trial_history(self, extra: Transaction) -> History:
        """The history extended with a hypothetical (in-progress) transaction.

        Used by read policies to test whether a candidate write–read choice
        keeps the execution legal under the target isolation level.
        """
        return History(
            list(self._commit_log) + [extra], initial_values=self._initial
        )
