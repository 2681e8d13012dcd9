"""Weak-isolation constraints (paper §4.3, Appendix B.3).

Every level asserts the existence of a strict total commit order consistent
with happens-before and the level's arbitration order, as one-sided order
atoms over per-transaction integer positions.
"""
from __future__ import annotations

from ..history.model import INIT_TID
from ..isolation.levels import IsolationLevel
from ..smt import And, Expr, Implies, OneSidedLt, Or, TRUE
from .encoder import Encoding

__all__ = ["isolation_constraints"]


def isolation_constraints(
    enc: Encoding, level: IsolationLevel
) -> list[Expr]:
    """Constraints making the predicted execution valid under ``level``.

    One loop for every level (B.3): for each transaction pair,
    ``hb(t1, t2) ∨ ww(t1, t2)`` forces ``co(t1) < co(t2)``, where ``ww`` is
    the level's arbitration order and ``co`` its own commit-order
    positions. The commit order is an existential witness appearing only
    in implication heads, so one-sided atoms suffice (acyclic forced pairs
    always extend to a strict total order).
    """
    if level not in _LEVELS:
        raise ValueError(
            f"prediction targets weak levels (causal/ra/rc), not {level}"
        )
    ww, prefix = _LEVELS[level]
    co = {tid: f"{prefix}[{tid}]" for tid in enc.tids}
    return [
        Implies(
            Or(enc.hb(t1, t2), ww(enc, t1, t2)), OneSidedLt(co[t1], co[t2])
        )
        for (t1, t2) in enc.pairs()
    ]


def _ww_causal(enc: Encoding, t1: str, t2: str) -> Expr:
    """wwcausal(t1,t2): both write k; some t3 reads k from t2, hb(t1,t3)."""
    shared = enc.txn(t1).write_keys & enc.txn(t2).write_keys
    disjuncts = []
    for key in sorted(shared):
        for t3 in enc.readers_of(key):
            if t3 in (t1, t2):
                continue
            disjuncts.append(
                And(
                    enc.wr_k(key, t2, t3),
                    enc.hb(t1, t3),
                    enc.write_included(t1, key),
                )
            )
    return Or(*disjuncts)


def _ww_ra(enc: Encoding, t1: str, t2: str) -> Expr:
    """ww_ra(t1,t2) (read atomic, §8 extension): like causal with direct
    so/wr support — some t3 reads k from t2 while being *directly*
    so-or-wr-after t1 (no closure), and t1 also writes k."""
    shared = enc.txn(t1).write_keys & enc.txn(t2).write_keys
    disjuncts = []
    for key in sorted(shared):
        for t3 in enc.readers_of(key):
            if t3 in (t1, t2):
                continue
            support = TRUE if enc.so(t1, t3) else enc.wr(t1, t3)
            disjuncts.append(
                And(
                    enc.wr_k(key, t2, t3),
                    support,
                    enc.write_included(t1, key),
                )
            )
    return Or(*disjuncts)


def _ww_rc(enc: Encoding, t1: str, t2: str) -> Expr:
    """wwrc(t1,t2): a transaction reads from t1 then later reads k from t2.

    B.3.2: for every t3 reading key k (written by both t1 and t2) at
    position j, and reading anything at an earlier position i, if
    choice(s3,i)=t1 and choice(s3,j)=t2 with j inside the boundary, then t2
    must commit-order after t1.
    """
    shared = enc.txn(t1).write_keys & enc.txn(t2).write_keys
    if not shared:
        return Or()
    disjuncts = []
    for t3 in enc.tids:
        if t3 in (t1, t2) or t3 == INIT_TID:
            continue
        txn3 = enc.txn(t3)
        session = txn3.session
        for key in sorted(shared & txn3.read_keys):
            for j in txn3.read_positions(key):
                later = enc.choice[(t3, j)]
                if t2 not in later.candidates:
                    continue
                for i in txn3.read_positions():
                    if i >= j:
                        continue
                    earlier = enc.choice[(t3, i)]
                    if t1 not in earlier.candidates:
                        continue
                    disjuncts.append(
                        And(
                            earlier.eq(t1),
                            later.eq(t2),
                            enc.boundary_ge(session, j),
                        )
                    )
    return Or(*disjuncts)


#: level → (its ww builder, its commit-order variable prefix)
_LEVELS = {
    IsolationLevel.CAUSAL: (_ww_causal, "cocausal"),
    IsolationLevel.READ_ATOMIC: (_ww_ra, "cora"),
    IsolationLevel.READ_COMMITTED: (_ww_rc, "corc"),
}
