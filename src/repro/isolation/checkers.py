"""Isolation checkers: polynomial graph checks and serializability decisions.

* :func:`is_causal`, :func:`is_read_atomic`, :func:`is_read_committed` —
  acyclicity of so ∪ wr ∪ ww (paper Equations 3 and 5; hb ∪ ww has the
  same cycles). Polynomial; used by the store's read policies and by
  validation.
* :func:`pco_unserializable` — the sound §4.2.2 witness: a cyclic pco least
  fixpoint proves unserializability.
* :func:`is_serializable` — complete decision by the session-frontier
  search of Biswas & Enea, without the SMT substrate (checking a *fixed*
  history is "more efficient than unserializable" exactly as §5 notes).
* :func:`is_serializable_bruteforce` — permutation search; the test oracle.
"""
from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional

from ..history.model import History
from ..history.relations import is_acyclic, so_pairs, wr_k_pairs, wr_pairs
from .axioms import (
    pco_cycle,
    ww_causal_pairs,
    ww_rc_pairs,
    ww_read_atomic_pairs,
)
from .levels import IsolationLevel

__all__ = [
    "is_causal",
    "is_read_atomic",
    "is_read_committed",
    "is_valid_under",
    "pco_unserializable",
    "is_serializable",
    "is_serializable_bruteforce",
    "SerializabilityReport",
]


def _so_wr(history: History) -> frozenset:
    """so ∪ wr. hb is its closure, so orders and cycles need no closure."""
    return so_pairs(history) | wr_pairs(history)


def is_causal(history: History) -> bool:
    """Whether the history is causally consistent (Equation 3)."""
    return is_acyclic(_so_wr(history) | ww_causal_pairs(history))


def is_read_atomic(history: History) -> bool:
    """Whether the history satisfies read atomic (the §8 extension)."""
    return is_acyclic(_so_wr(history) | ww_read_atomic_pairs(history))


def is_read_committed(history: History) -> bool:
    """Whether the history satisfies read committed (Equation 5)."""
    return is_acyclic(_so_wr(history) | ww_rc_pairs(history))


def is_valid_under(history: History, level: IsolationLevel) -> bool:
    """Whether the history conforms to ``level``."""
    if level is IsolationLevel.CAUSAL:
        return is_causal(history)
    if level is IsolationLevel.READ_ATOMIC:
        return is_read_atomic(history)
    if level is IsolationLevel.READ_COMMITTED:
        return is_read_committed(history)
    return bool(is_serializable(history))


def pco_unserializable(history: History) -> bool:
    """Sound unserializability witness: the pco least fixpoint is cyclic.

    ``True`` proves the history unserializable; ``False`` is inconclusive
    (though in all of the paper's experiments it coincided with serializable).
    """
    return bool(pco_cycle(history))


@dataclass
class SerializabilityReport:
    """Outcome of a serializability decision.

    ``commit_order`` lists transaction ids, ``t0`` first, in a witnessing
    serial order when serializable, and is ``None`` otherwise.
    """

    serializable: bool
    commit_order: Optional[list[str]] = None

    def __bool__(self) -> bool:
        return self.serializable


def is_serializable(history: History) -> SerializabilityReport:
    """Decide serializability by a depth-first search over session frontiers.

    The search of Biswas & Enea (OOPSLA 2019) builds a commit order one
    transaction at a time. Since it extends so, the placed transactions are
    one prefix length per session: a *frontier*. A session's next
    transaction t is appended when everything t reads from is placed and,
    for each key k that t writes, no ``wr_k(w, r)`` with w, r ≠ t has w
    placed and r not (Equation 1's arbitration rule). Dead frontiers are
    memoised, so at most ∏(|session| + 1) are expanded. ``t0`` goes first,
    sessions are tried in sorted-name order, and the loop is iterative:
    traces can hold thousands of transactions.
    """
    sessions = [txns for _, txns in sorted(history.sessions().items())]
    session_of = {t.tid: s for s, txns in enumerate(sessions) for t in txns}
    reads_from = defaultdict(list)  # tid -> [(key, writer)]
    feeds = defaultdict(list)  # tid -> [key, once per reader]
    for key, pairs in wr_k_pairs(history).items():
        for (w, r) in pairs:
            reads_from[r].append((key, w))
            feeds[w].append(key)
    # key -> how many wr_k(w, r) have w placed and r not
    open_reads = Counter(feeds[history.t0.tid])
    frontier = [0] * len(sessions)
    placed = {history.t0.tid}

    def ready(s: int) -> bool:
        if frontier[s] == len(sessions[s]):
            return False
        txn = sessions[s][frontier[s]]
        pairs = reads_from[txn.tid]
        if any(w not in placed for _, w in pairs):
            return False
        own = Counter(key for key, _ in pairs)  # t's reads are open too
        return all(open_reads[k] == own[k] for k in txn.write_keys)

    def move(tid: str, sign: int) -> None:
        frontier[session_of[tid]] += sign
        (placed.add if sign > 0 else placed.remove)(tid)
        for key, _ in reads_from[tid]:
            open_reads[key] -= sign
        for key in feeds[tid]:
            open_reads[key] += sign

    order = [history.t0.tid]
    dead: set[tuple[int, ...]] = set()
    tried = [0]  # per placed transaction: the next session to try after it
    while len(order) <= len(history):
        s = next((s for s in range(tried[-1], len(sessions)) if ready(s)),
                 None)
        if s is None:  # nothing can follow this frontier
            dead.add(tuple(frontier))
            tried.pop()
            if not tried:
                return SerializabilityReport(False)
            move(order.pop(), -1)
            continue
        tried[-1] = s + 1
        order.append(sessions[s][frontier[s]].tid)
        move(order[-1], 1)
        if tuple(frontier) in dead:
            move(order.pop(), -1)
        else:
            tried.append(0)
    return SerializabilityReport(True, order)


def _witnesses(history: History, order: list[str], so_wr=None, wr_k=None) -> bool:
    """Whether a total order witnesses serializability of the history."""
    pos = {tid: i for i, tid in enumerate(order)}
    for (a, b) in so_wr or _so_wr(history):
        if pos[a] >= pos[b]:
            return False
    for key, pairs in (wr_k or wr_k_pairs(history)).items():
        writers = history.writers_of(key)
        for (t2, t3) in pairs:
            for t1 in writers:
                if t1 in (t2, t3):
                    continue
                if pos[t2] < pos[t1] < pos[t3]:
                    return False
    return True


def is_serializable_bruteforce(history: History) -> SerializabilityReport:
    """Permutation-search oracle (only sensible for small histories)."""
    tids = [t.tid for t in history.all_transactions()]
    so_wr, wr_k = _so_wr(history), wr_k_pairs(history)  # once, not per order
    for perm in itertools.permutations(tids[1:]):
        order = [tids[0], *perm]  # t0 first: it is so-before everything
        if _witnesses(history, order, so_wr, wr_k):
            return SerializabilityReport(True, order)
    return SerializabilityReport(False)
