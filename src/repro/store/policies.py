"""Read policies: who does a read read from?

The central check is :meth:`ReadContext.is_legal`, the axiomatic legality
test: a candidate writer is legal when extending the current history with
the in-progress transaction (including the candidate write–read edge) keeps
the execution valid under the target isolation level. Each answer is
memoised for the read, as each costs a trial history and an isolation check.
The paper's observation that "it is always possible to keep executing while
preserving causal or rc" holds here because the latest committed writer is
always legal.

:func:`legal_writers` checks every candidate. Only the random policy needs
that full set; directed replay asks about at most three writers and falls
back to the full set only when none of them is legal.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..history.events import Event, ReadEvent
from ..history.model import History, INIT_TID, Transaction
from ..isolation.checkers import is_valid_under
from ..isolation.levels import IsolationLevel
from .kvstore import DataStore

__all__ = [
    "ReadContext",
    "ReadPolicy",
    "LatestWriterPolicy",
    "RandomIsolationPolicy",
    "DirectedReplayPolicy",
    "legal_writers",
]


@dataclass
class ReadContext:
    """Everything a policy may inspect when choosing a read's writer."""

    store: DataStore
    session: str
    tid: str
    key: str
    position: int
    fragment_builder: Callable[[Optional[Event]], Transaction]
    _legal: dict = field(default_factory=dict, init=False, repr=False)

    def candidates(self) -> list[str]:
        """Committed writers of the key (including t0), excluding self."""
        return [
            w for w in self.store.writers_of(self.key) if w != self.tid
        ]

    def trial(self, writer: str) -> History:
        """History extended with the fragment reading ``key`` from ``writer``."""
        candidate = ReadEvent(
            pos=self.position,
            key=self.key,
            writer=writer,
            value=self.store.value_written(writer, self.key),
        )
        return self.store.trial_history(self.fragment_builder(candidate))

    def is_legal(self, writer: Optional[str], level: IsolationLevel) -> bool:
        """Whether ``writer`` is a candidate whose choice keeps ``level``."""
        if (writer, level) not in self._legal:
            self._legal[writer, level] = writer in self.candidates() and (
                is_valid_under(self.trial(writer), level)
            )
        return self._legal[writer, level]


def legal_writers(ctx: ReadContext, level: IsolationLevel) -> list[str]:
    """Candidate writers whose choice keeps the execution valid under level."""
    return [w for w in ctx.candidates() if ctx.is_legal(w, level)]


class ReadPolicy:
    """Base read policy; subclasses implement :meth:`choose`."""

    def choose(self, ctx: ReadContext) -> str:
        raise NotImplementedError

    def on_commit(self, tid: str, session: str, index: int) -> None:
        """Hook invoked when the session commits ``tid`` at session ``index``."""

    def on_abort(self, tid: str, session: str) -> None:
        """Hook invoked when the session aborts ``tid``."""


class LatestWriterPolicy(ReadPolicy):
    """Always read the most recently committed writer.

    With the serial scheduler this yields serializable observed executions —
    exactly how the paper configures MonkeyDB to record traces (§6). It also
    serves as the read-committed snapshot rule of the interleaved "MySQL"
    executor (reads see the latest committed value).
    """

    def choose(self, ctx: ReadContext) -> str:
        return ctx.store.latest_writer(ctx.key)


class RandomIsolationPolicy(ReadPolicy):
    """MonkeyDB's testing mode: a uniformly random isolation-legal writer."""

    def __init__(self, level: IsolationLevel, rng: random.Random):
        self.level = level
        self.rng = rng
        self.stats = {"choices": 0, "non_latest": 0}

    def choose(self, ctx: ReadContext) -> str:
        legal = legal_writers(ctx, self.level)
        if not legal:
            # the latest committed writer is always a safe fallback
            return ctx.store.latest_writer(ctx.key)
        choice = self.rng.choice(legal)
        self.stats["choices"] += 1
        if choice != ctx.store.latest_writer(ctx.key):
            self.stats["non_latest"] += 1
        return choice


class DirectedReplayPolicy(ReadPolicy):
    """Validation's query engine (§5): steer reads to predicted writers.

    For the i-th read of the currently executing transaction, look up the
    i-th read event of the *predicted* transaction with the same tid and
    follow its writer if (1) the keys match, (2) that writer wrote the key
    in the validating execution too, and (3) the choice is legal under the
    weak isolation model. Otherwise the execution *diverges*: fall back to
    the observed writer when legal, else the latest legal writer.
    Legality is checked only for these writers, in this order.

    Transaction aborts rewind the per-transaction read cursor (§6).
    """

    def __init__(
        self,
        predicted: History,
        level: IsolationLevel,
        observed: Optional[History] = None,
    ):
        self.predicted = predicted
        self.level = level
        self.observed = observed
        self._cursor: dict[str, int] = {}  # tid -> next predicted read index
        self.divergences: list[dict] = []
        # The validating run allocates fresh tids in a different global
        # order, so transactions are matched by (session, index-in-session):
        # the deterministic application re-issues the same n-th transaction
        # per session (same RNG seed).
        self._predicted_by_slot = {
            (t.session, t.index): t for t in predicted.transactions()
        }
        self._observed_by_slot = {
            (t.session, t.index): t
            for t in (observed.transactions() if observed else ())
        }
        # predicted tids are the observed ones; report the slot's tid
        self._slot_of: dict[str, tuple[str, int]] = {}
        # (session, index) -> tid the *validating* run committed there
        self._validating_by_slot: dict[tuple[str, int], str] = {}

    # -- helpers -------------------------------------------------------
    def _slot(self, ctx: ReadContext) -> tuple[str, int]:
        slot = self._slot_of.get(ctx.tid)
        if slot is None:
            slot = (ctx.session, ctx.store.next_txn_index(ctx.session))
            self._slot_of[ctx.tid] = slot
        return slot

    def _predicted_read(self, ctx: ReadContext, index: int):
        txn = self._predicted_by_slot.get(self._slot(ctx))
        if txn is None or index >= len(txn.reads):
            return None
        return txn.reads[index]

    def _observed_read(self, ctx: ReadContext, index: int):
        txn = self._observed_by_slot.get(self._slot(ctx))
        if txn is None or index >= len(txn.reads):
            return None
        return txn.reads[index]

    def predicted_tid_for(self, ctx_session: str, index: int) -> Optional[str]:
        """Predicted-history tid occupying a (session, index) slot."""
        txn = self._predicted_by_slot.get((ctx_session, index))
        return None if txn is None else txn.tid

    def _validating_tid(self, predicted_tid: str) -> Optional[str]:
        """Validating-run tid for a predicted/observed-history tid."""
        if predicted_tid == INIT_TID:
            return INIT_TID
        source = (
            self.predicted
            if predicted_tid in self.predicted
            else self.observed
        )
        if source is None or predicted_tid not in source:
            return None
        txn = source.transaction(predicted_tid)
        return self._validating_by_slot.get((txn.session, txn.index))

    def choose(self, ctx: ReadContext) -> str:
        index = self._cursor.get(ctx.tid, 0)
        self._cursor[ctx.tid] = index + 1
        predicted = self._predicted_read(ctx, index)
        if predicted is not None:
            predicted_writer = self._validating_tid(predicted.writer)
            # the three conditions of §5, checked in order so the
            # divergence record names the first one violated
            if predicted.key != ctx.key:
                reason = "key-mismatch"
            elif predicted_writer is None or not ctx.store.wrote(
                predicted_writer, ctx.key
            ):
                reason = "writer-missing"
            elif predicted_writer == ctx.tid:
                reason = "self-read"
            elif not ctx.is_legal(predicted_writer, self.level):
                reason = "isolation-illegal"
            else:
                return predicted_writer
            # a predicted read existed but could not be honoured (§5):
            # this is a genuine divergence
            self.divergences.append(
                {
                    "tid": ctx.tid,
                    "key": ctx.key,
                    "predicted": predicted.writer,
                    "reason": reason,
                }
            )
        # reads beyond the predicted prefix (the boundary transaction runs
        # in full) have nothing to match and are not divergence
        observed = self._observed_read(ctx, index)
        if observed is not None and observed.key == ctx.key:
            observed_writer = self._validating_tid(observed.writer)
            if ctx.is_legal(observed_writer, self.level):
                return observed_writer
        latest = ctx.store.latest_writer(ctx.key)
        if ctx.is_legal(latest, self.level):
            return latest
        # none of the three preferred writers is legal (should not happen:
        # the latest committed writer is always legal) — degrade gracefully
        legal = legal_writers(ctx, self.level)
        return sorted(legal)[0] if legal else latest

    def on_commit(self, tid: str, session: str, index: int) -> None:
        self._validating_by_slot[(session, index)] = tid

    def on_abort(self, tid: str, session: str) -> None:
        # rewind the predicted trace to the transaction's beginning (§6)
        self._cursor.pop(tid, None)
        self._slot_of.pop(tid, None)

    @property
    def diverged(self) -> bool:
        return bool(self.divergences)
