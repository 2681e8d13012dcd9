"""Isolation checkers: polynomial graph checks and serializability decisions.

* :func:`is_causal`, :func:`is_read_committed` — acyclicity of hb ∪ ww
  (paper Equations 3 and 5). Polynomial; used by the store's read policies
  and by validation.
* :func:`pco_unserializable` — the sound §4.2.2 witness: a cyclic pco least
  fixpoint proves unserializability.
* :func:`is_serializable` — complete decision via the SMT substrate
  (an existential commit-order encoding; checking a *fixed* history is
  "more efficient than unserializable" exactly as §5 notes).
* :func:`is_serializable_bruteforce` — permutation search; the test oracle.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from ..history.model import History
from ..history.relations import hb_pairs, is_acyclic, wr_k_pairs
from ..smt import Distinct, Implies, Int, Result, Solver
from .axioms import (
    pco_fixpoint,
    ww_rc_pairs,
    ww_read_atomic_pairs,
    ww_with_support,
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


def is_causal(history: History) -> bool:
    """Whether the history is causally consistent (Equation 3)."""
    hb = hb_pairs(history)
    ww = ww_with_support(history, hb)  # ww_causal_pairs, reusing this hb
    return is_acyclic(set(hb) | set(ww))


def is_read_atomic(history: History) -> bool:
    """Whether the history satisfies read atomic (the §8 extension)."""
    hb = hb_pairs(history)
    ww = ww_read_atomic_pairs(history)
    return is_acyclic(set(hb) | set(ww))


def is_read_committed(history: History) -> bool:
    """Whether the history satisfies read committed (Equation 5)."""
    hb = hb_pairs(history)
    ww = ww_rc_pairs(history)
    return is_acyclic(set(hb) | set(ww))


def is_valid_under(history: History, level: IsolationLevel) -> bool:
    """Whether the history conforms to ``level``."""
    if level is IsolationLevel.CAUSAL:
        return is_causal(history)
    if level is IsolationLevel.READ_ATOMIC:
        return is_read_atomic(history)
    if level is IsolationLevel.READ_COMMITTED:
        return is_read_committed(history)
    report = is_serializable(history)
    return bool(report)


def pco_unserializable(history: History) -> bool:
    """Sound unserializability witness: the pco least fixpoint is cyclic.

    ``True`` proves the history unserializable; ``False`` is inconclusive
    (though in all of the paper's experiments it coincided with serializable).
    """
    pco = pco_fixpoint(history)
    return any(a == b for a, b in pco)


@dataclass
class SerializabilityReport:
    """Outcome of a serializability decision.

    ``commit_order`` lists transaction ids in a witnessing serial order when
    serializable; ``result`` keeps the raw solver answer (UNKNOWN possible
    under tight budgets).
    """

    serializable: bool
    result: Result
    commit_order: Optional[list[str]] = None

    def __bool__(self) -> bool:
        return self.serializable


def is_serializable(
    history: History,
    max_conflicts: Optional[int] = None,
    max_seconds: Optional[float] = None,
) -> SerializabilityReport:
    """Decide serializability of a fixed history via the SMT substrate.

    Encodes an existential commit order ``co``: integer positions per
    transaction, pairwise distinct, respecting hb, with the Equation 1
    arbitration rule as implications ``co(t1) < co(t3) => co(t1) < co(t2)``
    for every wr_k(t2, t3) and third writer t1 of k.
    """
    tids = [t.tid for t in history.all_transactions()]
    co = {tid: Int(f"co[{tid}]") for tid in tids}
    solver = Solver()
    solver.add(Distinct(list(co.values())))
    # sorted: pair sets hash strings, and assertion order fixes the SAT
    # variable numbering — keep trajectories hash-seed-independent
    for (a, b) in sorted(hb_pairs(history)):
        solver.add(co[a] < co[b])
    for key, pairs in sorted(wr_k_pairs(history).items()):
        writers = history.writers_of(key)
        for (t2, t3) in sorted(pairs):
            for t1 in writers:
                if t1 in (t2, t3):
                    continue
                solver.add(
                    Implies(co[t1] < co[t3], co[t1] < co[t2])
                )
    result = solver.check(
        max_conflicts=max_conflicts, max_seconds=max_seconds
    )
    if result is Result.SAT:
        model = solver.model()
        order = sorted(tids, key=lambda tid: model.int_value(f"co[{tid}]"))
        return SerializabilityReport(True, result, order)
    return SerializabilityReport(False, result, None)


def _witnesses(history: History, order: list[str]) -> bool:
    """Whether a total order witnesses serializability of the history."""
    pos = {tid: i for i, tid in enumerate(order)}
    for (a, b) in hb_pairs(history):
        if pos[a] >= pos[b]:
            return False
    for key, pairs in wr_k_pairs(history).items():
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
    rest = tids[1:]
    for perm in itertools.permutations(rest):
        order = [tids[0], *perm]  # t0 first: it is so-before everything
        if _witnesses(history, order):
            return SerializabilityReport(True, Result.SAT, order)
    return SerializabilityReport(False, Result.UNSAT, None)
