"""Transactions and histories (paper §2.1).

``History`` is immutable once constructed; use
:class:`repro.history.builder.HistoryBuilder` or the store's recorder to
produce one.

Transactions are frozen too, so derived views are computed once and kept:
a transaction's ``reads``/``writes``/``read_keys``/``write_keys``, and a
history's per-key writer and reader indexes. Derived forms (``with_wr``,
``restrict``) are new objects and build their own.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .events import Event, ReadEvent, WriteEvent

__all__ = ["Transaction", "History", "INIT_TID", "INIT_SESSION"]

INIT_TID = "t0"
INIT_SESSION = "s_init"


@dataclass(frozen=True)
class Transaction:
    """A committed transaction: its session, order, and events.

    ``events`` are position-ordered reads and writes; ``commit_pos`` is the
    position of the implicit commit event that ends the transaction.
    """

    tid: str
    session: str
    index: int  # order within the session, 0-based
    events: tuple[Event, ...]
    commit_pos: int

    @cached_property
    def reads(self) -> tuple[ReadEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, ReadEvent))

    @cached_property
    def writes(self) -> tuple[WriteEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, WriteEvent))

    @cached_property
    def read_keys(self) -> frozenset[str]:
        return frozenset(e.key for e in self.reads)

    @cached_property
    def write_keys(self) -> frozenset[str]:
        return frozenset(e.key for e in self.writes)

    def read_positions(self, key: Optional[str] = None) -> tuple[int, ...]:
        """``rdpos_k`` (or ``rdpos_*`` when ``key`` is None) from the paper."""
        return tuple(
            e.pos
            for e in self.reads
            if key is None or e.key == key
        )

    def write_pos(self, key: str) -> Optional[int]:
        """``wrpos_k``: position of the (last) write to ``key``, if any."""
        for e in self.writes:
            if e.key == key:
                return e.pos
        return None

    def is_read_only(self) -> bool:
        return not self.writes


class History:
    """An execution history ⟨T, so, wr⟩ with the initial transaction ``t0``.

    ``transactions`` excludes ``t0``; it is reachable as ``history.t0`` and
    included by iteration helpers that the axioms need (``all_transactions``).
    """

    def __init__(
        self,
        transactions: Sequence[Transaction],
        initial_values: Optional[Mapping[str, object]] = None,
    ):
        self._txns: dict[str, Transaction] = {}
        self._sessions: dict[str, list[Transaction]] = {}
        for txn in transactions:
            if txn.tid in self._txns or txn.tid == INIT_TID:
                raise ValueError(f"duplicate transaction id {txn.tid!r}")
            self._txns[txn.tid] = txn
            self._sessions.setdefault(txn.session, []).append(txn)
        for session, txns in self._sessions.items():
            txns.sort(key=lambda t: t.index)
            positions = [e.pos for t in txns for e in t.events] + [
                t.commit_pos for t in txns
            ]
            if len(set(positions)) != len(positions):
                raise ValueError(f"duplicate positions in session {session!r}")
        keys = {
            e.key
            for t in transactions
            for e in t.events
            if isinstance(e, (ReadEvent, WriteEvent))
        }
        self._initial_values = dict(initial_values or {})
        keys |= set(self._initial_values)
        # t0 writes the initial value of every key, all at position 0 in a
        # pseudo-session of its own (its writes always precede any boundary).
        self.t0 = Transaction(
            tid=INIT_TID,
            session=INIT_SESSION,
            index=0,
            events=tuple(
                WriteEvent(pos=i, key=k, value=self._initial_values.get(k))
                for i, k in enumerate(sorted(keys))
            ),
            commit_pos=len(keys),
        )
        self._writers = self._index(self.all_transactions(), "write_keys")
        self._validate_wr()

    @staticmethod
    def _index(txns, keys: str) -> dict[str, tuple[str, ...]]:
        """Per-key tids, in ``txns`` order; ``keys`` names the key view."""
        index: dict[str, list[str]] = {}
        for txn in txns:
            for key in getattr(txn, keys):
                index.setdefault(key, []).append(txn.tid)
        return {key: tuple(tids) for key, tids in index.items()}

    @cached_property
    def _readers(self) -> dict[str, tuple[str, ...]]:
        return self._index(self._txns.values(), "read_keys")

    def _validate_wr(self) -> None:
        for txn in self.transactions():
            for r in txn.reads:
                writers = self._writers.get(r.key, ())
                if r.writer == txn.tid:
                    raise ValueError(
                        f"{txn.tid} reads {r.key!r} from itself; own-writes "
                        "are not events (paper §2.1)"
                    )
                if r.writer not in writers:
                    raise ValueError(
                        f"{txn.tid} reads {r.key!r} from {r.writer!r}, "
                        f"which never writes it"
                    )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def initial_values(self) -> Mapping[str, object]:
        return dict(self._initial_values)

    def transactions(self) -> tuple[Transaction, ...]:
        """Committed transactions, excluding ``t0``."""
        return tuple(self._txns.values())

    def all_transactions(self) -> tuple[Transaction, ...]:
        """Committed transactions including ``t0``."""
        return (self.t0,) + tuple(self._txns.values())

    def transaction(self, tid: str) -> Transaction:
        if tid == INIT_TID:
            return self.t0
        return self._txns[tid]

    def __contains__(self, tid: str) -> bool:
        return tid == INIT_TID or tid in self._txns

    def sessions(self) -> dict[str, tuple[Transaction, ...]]:
        """Client sessions (excluding t0's pseudo-session), in session order."""
        return {s: tuple(ts) for s, ts in self._sessions.items()}

    def session_of(self, tid: str) -> str:
        return self.transaction(tid).session

    @cached_property
    def keys(self) -> frozenset[str]:
        return frozenset(w.key for w in self.t0.writes)

    def writers_of(self, key: str) -> tuple[str, ...]:
        """Transactions writing ``key``: t0 first, then insertion order."""
        return self._writers.get(key, ())

    def readers_of(self, key: str) -> tuple[str, ...]:
        """Transactions reading ``key``, in insertion order."""
        return self._readers.get(key, ())

    def reads(self) -> list[tuple[Transaction, ReadEvent]]:
        return [
            (t, r) for t in self._txns.values() for r in t.reads
        ]

    def __len__(self) -> int:
        return len(self._txns)

    def __repr__(self) -> str:
        return (
            f"History({len(self._txns)} txns, "
            f"{len(self._sessions)} sessions, {len(self.keys)} keys)"
        )

    # ------------------------------------------------------------------
    # Derived forms
    # ------------------------------------------------------------------
    def with_wr(
        self, new_writers: Mapping[tuple[str, int], str]
    ) -> "History":
        """A copy with some reads repointed: ``(tid, pos) -> writer``."""
        txns = []
        for txn in self._txns.values():
            events = []
            for e in txn.events:
                if isinstance(e, ReadEvent):
                    writer = new_writers.get((txn.tid, e.pos))
                    events.append(
                        e.with_writer(writer, None) if writer else e
                    )
                else:
                    events.append(e)
            txns.append(
                Transaction(
                    tid=txn.tid,
                    session=txn.session,
                    index=txn.index,
                    events=tuple(events),
                    commit_pos=txn.commit_pos,
                )
            )
        return History(txns, self._initial_values)

    def restrict(self, tids: Iterable[str]) -> "History":
        """The sub-history over ``tids`` (used for boundary prefixes)."""
        keep = set(tids) - {INIT_TID}
        return History(
            [t for t in self._txns.values() if t.tid in keep],
            self._initial_values,
        )
