"""Session client: the application-facing get/put/commit/rollback API.

Follows the paper's execution model (§2.1): every operation executes in a
transaction; an operation with no open transaction implicitly starts one;
``commit`` ends it. Reads of a key the transaction itself has written return
the buffered value and produce no event; only the last write to a key
becomes an event.
"""
from __future__ import annotations

import contextlib
from typing import Optional, TYPE_CHECKING

from ..history.events import Event, ReadEvent, WriteEvent
from ..history.model import Transaction
from .kvstore import DataStore

if TYPE_CHECKING:  # pragma: no cover
    from .policies import ReadPolicy

__all__ = ["Client", "SessionHalted"]


class SessionHalted(Exception):
    """Raised inside a session thread when the scheduler stops it early.

    When one session's program raises, the interleaved scheduler halts the
    other sessions' threads by making their next operation raise this
    exception.
    """


class _NoSync:
    """Synchronization stub for single-threaded (direct) use."""

    def op_point(self, session: str) -> None:
        pass


class Client:
    """One session's connection to the data store."""

    def __init__(
        self,
        store: DataStore,
        session: str,
        policy: "ReadPolicy",
        sync=None,
    ):
        self._store = store
        self.session = session
        self._policy = policy
        self._sync = sync if sync is not None else _NoSync()
        self._tid: Optional[str] = None
        self._events: list[Event] = []
        self._writes: dict[str, object] = {}
        self._write_order: list[str] = []
        self._next_offset = 0
        self._stmt_depth = 0
        self.stats = {"reads": 0, "writes": 0, "commits": 0, "aborts": 0}

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def statement(self):
        """Group several operations into one scheduling unit.

        Mirrors per-statement atomicity of real stores: a SQL UPDATE's
        internal read-modify-write takes a row lock, so the interleaved
        scheduler must not context-switch inside it. The group synchronizes
        once on entry; inner operations skip their own sync points.
        """
        self._sync.op_point(self.session)
        self._stmt_depth += 1
        try:
            yield self
        finally:
            self._stmt_depth -= 1

    def _op_point(self) -> None:
        if self._stmt_depth == 0:
            self._sync.op_point(self.session)

    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        return self._tid is not None

    @property
    def current_tid(self) -> Optional[str]:
        return self._tid

    def _begin_if_needed(self) -> None:
        if self._tid is None:
            self._tid = self._store.next_tid()
            self._events = []
            self._writes = {}
            self._write_order = []
            self._next_offset = 0

    def _position(self) -> int:
        pos = self._store.session_base_position(self.session) + self._next_offset
        self._next_offset += 1
        return pos

    def _fragment(self, candidate: Optional[Event] = None) -> Transaction:
        """The in-progress transaction as a hypothetical committed one."""
        events = list(self._events)
        if candidate is not None:
            events.append(candidate)
        return Transaction(
            tid=self._tid,
            session=self.session,
            index=self._store.next_txn_index(self.session),
            events=tuple(events),
            commit_pos=self._store.session_base_position(self.session)
            + self._next_offset
            + 1,
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> object:
        """Read ``key``; the read policy picks the writer."""
        self._op_point()
        self._begin_if_needed()
        self.stats["reads"] += 1
        if key in self._writes:
            # own-write read: not an event (§2.1)
            return self._writes[key]
        from .policies import ReadContext  # local import to avoid a cycle

        ctx = ReadContext(
            store=self._store,
            session=self.session,
            tid=self._tid,
            key=key,
            fragment_builder=self._fragment,
            position=self._store.session_base_position(self.session)
            + self._next_offset,
        )
        writer = self._policy.choose(ctx)
        value = self._store.value_written(writer, key)
        self._events.append(
            ReadEvent(pos=self._position(), key=key, writer=writer, value=value)
        )
        return value

    def put(self, key: str, value: object) -> None:
        """Write ``key``; visible to this transaction immediately."""
        self._op_point()
        self._begin_if_needed()
        self.stats["writes"] += 1
        if key in self._writes:
            # overwrite: drop the superseded write event, keep its order slot
            self._events = [
                e
                for e in self._events
                if not (isinstance(e, WriteEvent) and e.key == key)
            ]
        else:
            self._write_order.append(key)
        self._writes[key] = value
        self._events.append(
            WriteEvent(pos=self._position(), key=key, value=value)
        )

    def commit(self) -> Optional[str]:
        """Commit the open transaction; returns its tid (None if no-op)."""
        self._op_point()
        if self._tid is None:
            return None
        self.stats["commits"] += 1
        tid = self._tid
        txn = self._store.commit_transaction(
            tid, self.session, self._events, self._writes
        )
        self._tid = None
        self._policy.on_commit(tid, self.session, txn.index)
        return tid

    def rollback(self) -> None:
        """Abort the open transaction; it leaves no trace in the history."""
        self._op_point()
        if self._tid is None:
            return
        self.stats["aborts"] += 1
        self._policy.on_abort(self._tid, self.session)
        self._tid = None
