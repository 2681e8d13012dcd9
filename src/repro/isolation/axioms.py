"""Arbitration/anti-dependency axioms as graph computations (paper §2, §4.2.2).

Given a concrete ⟨T, so, wr⟩ these compute the relations directly: the
Biswas–Enea ww schema per isolation level, the rw anti-dependencies, and
the pco least fixpoint whose cycle is the approximate strategy's
unserializability witness. They are the building blocks of the
polynomial checkers and the graph check that accepts or refines every
CEGIS candidate in :mod:`repro.predict`.
"""
from __future__ import annotations

from itertools import chain

from ..history.model import History
from ..history.relations import (
    find_cycle,
    hb_pairs,
    so_pairs,
    transitive_closure,
    wr_k_pairs,
    wr_pairs,
)

__all__ = [
    "ww_causal_pairs",
    "ww_read_atomic_pairs",
    "ww_rc_pairs",
    "rw_edges",
    "pco_fixpoint",
    "pco_edges",
    "pco_cycle",
    "edges_cycle",
]

Pair = tuple[str, str]


def ww_with_support(
    history: History, support: frozenset[Pair]
) -> frozenset[Pair]:
    """The Biswas–Enea arbitration schema, parameterized by its support.

    Their axioms all share one shape: for every key k written by both t1
    and t2 and every t3 reading k from t2, if ``(t1, t3) ∈ support`` then
    t1 must commit before t2. The support relation *is* the isolation
    level: ``hb`` gives causal (Equation 2), direct ``so ∪ wr`` gives read
    atomic, and the commit order itself gives serializability (Equation 1,
    where the circularity is what makes it NP-hard).
    """
    wr_k = wr_k_pairs(history)
    out: set[Pair] = set()
    for key, pairs in wr_k.items():
        writers = set(history.writers_of(key))
        for (t2, t3) in pairs:
            for t1 in writers:
                if t1 in (t2, t3):
                    continue
                if (t1, t3) in support:
                    out.add((t1, t2))
    return frozenset(out)


def ww_causal_pairs(history: History) -> frozenset[Pair]:
    """Causal arbitration order (Equation 2): support = happens-before."""
    return ww_with_support(history, hb_pairs(history))


def ww_read_atomic_pairs(history: History) -> frozenset[Pair]:
    """Read-atomic arbitration (the §8 extension): support = so ∪ wr.

    Direct session/write-read edges instead of their closure: forbids
    fractured reads while still allowing causal violations through longer
    chains.
    """
    direct = frozenset(set(so_pairs(history)) | set(wr_pairs(history)))
    return ww_with_support(history, direct)


def ww_rc_pairs(history: History) -> frozenset[Pair]:
    """Read-committed arbitration order (Equation 4).

    ``ww_rc(t1, t2)`` iff t1 and t2 write some key k and a transaction t3 has
    two reads β, α with β before α (program order), α reading k from t2, and
    β reading any key from t1.
    """
    out: set[Pair] = set()
    for t3 in history.transactions():
        reads = t3.reads
        for alpha in reads:
            t2 = alpha.writer
            key = alpha.key
            if t2 == t3.tid:
                continue
            writers = set(history.writers_of(key))
            for beta in reads:
                if beta.pos >= alpha.pos:
                    continue
                t1 = beta.writer
                if t1 in (t2, t3.tid):
                    continue
                if t1 in writers:
                    out.add((t1, t2))
    return frozenset(out)


def rw_edges(
    history: History, pco: frozenset[Pair]
) -> frozenset[Pair]:
    """Anti-dependency edges w.r.t. a current pco approximation (§4.2.2).

    ``rw(t1, t2)`` iff t2 writes some key k, t1 reads k from some tw, and
    pco(tw, t2).
    """
    wr_k = wr_k_pairs(history)
    out: set[Pair] = set()
    for key, pairs in wr_k.items():
        writers = set(history.writers_of(key))
        for (tw, t1) in pairs:
            for t2 in writers:
                if t2 in (t1, tw):
                    continue
                if (tw, t2) in pco:
                    out.add((t1, t2))
    return frozenset(out)


def pco_edges(history: History) -> dict[str, frozenset[Pair]]:
    """The labelled base edges of the pco least fixpoint (§4.2.2).

    Monotone iteration from (so ∪ wr)+: derive ww/rw from the current
    approximation and re-close until stable. Starting from the base
    relations and only ever *adding* justified edges yields the least
    relation, so no edge can justify itself (the paper's Fig. 6). Returns
    ``{"so": ..., "wr": ..., "ww": ..., "rw": ...}`` with the last round's
    ww/rw; their transitive closure is :func:`pco_fixpoint`.
    """
    so, wr = so_pairs(history), wr_pairs(history)
    pco = transitive_closure(set(so) | set(wr))
    while True:
        ww = ww_with_support(history, pco)
        rw = rw_edges(history, pco)
        new = transitive_closure(set(pco) | set(ww) | set(rw))
        if new == pco:
            return {"so": so, "wr": wr, "ww": ww, "rw": rw}
        pco = new


def pco_fixpoint(history: History) -> frozenset[Pair]:
    """The least fixpoint pco = (so ∪ wr ∪ ww ∪ rw)+ of §4.2.2."""
    return transitive_closure(chain.from_iterable(pco_edges(history).values()))


def edges_cycle(
    history: History, edges: dict[str, frozenset[Pair]]
) -> list[str]:
    """The cycle over :func:`pco_edges`'s ``edges``: roots in history order,
    successors so, wr, ww, rw, each kind sorted, so the cycle (and every
    fingerprint derived from it) is independent of ``PYTHONHASHSEED``."""
    kinds = (sorted(edges[kind]) for kind in ("so", "wr", "ww", "rw"))
    return find_cycle(
        chain.from_iterable(kinds), [t.tid for t in history.all_transactions()]
    )


def pco_cycle(history: History) -> list[str]:
    """A transaction cycle witnessing unserializability, or [] if none.

    The returned list is a closed walk ``[t_a, t_b, ..., t_a]`` over pco
    base edges, e.g. the paper's Fig. 8 cycle t1 < t3 < t2 < t4 < t1. The
    approximate strategy checks each candidate prediction with this.
    """
    return edges_cycle(history, pco_edges(history))
