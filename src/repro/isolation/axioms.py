"""Arbitration/anti-dependency axioms as graph computations (paper §2, §4.2.2).

These are the *fixed-history* analogues of the SMT encodings in
:mod:`repro.predict`: given a concrete ⟨T, so, wr⟩ they compute the
relations directly, which makes them both the building blocks of the
polynomial checkers and the cross-checking oracle for the solver-based path.
"""
from __future__ import annotations


from ..history.model import History
from ..history.relations import (
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


def _ww_from_pco(
    history: History, pco: frozenset[Pair]
) -> frozenset[Pair]:
    """Arbitration edges w.r.t. a current pco approximation (§4.2.2)."""
    wr_k = wr_k_pairs(history)
    out: set[Pair] = set()
    for key, pairs in wr_k.items():
        writers = set(history.writers_of(key))
        for (t2, t3) in pairs:
            for t1 in writers:
                if t1 in (t2, t3):
                    continue
                if (t1, t3) in pco:
                    out.add((t1, t2))
    return frozenset(out)


def pco_fixpoint(history: History) -> frozenset[Pair]:
    """The least fixpoint pco = (so ∪ wr ∪ ww ∪ rw)+ of §4.2.2.

    Computed by monotone iteration from (so ∪ wr)+, deriving ww/rw from the
    current approximation and re-closing until stable. Starting from the
    base relations and only ever *adding* justified edges yields the least
    relation, so no edge can justify itself (the paper's Fig. 6). The
    approximate strategy checks each candidate prediction with this.
    """
    nodes = [t.tid for t in history.all_transactions()]
    pco = transitive_closure(
        set(so_pairs(history)) | set(wr_pairs(history)), nodes=nodes
    )
    while True:
        ww = _ww_from_pco(history, pco)
        rw = rw_edges(history, pco)
        new = transitive_closure(set(pco) | set(ww) | set(rw), nodes=nodes)
        if new == pco:
            return pco
        pco = new


def pco_edges(history: History) -> dict[str, frozenset[Pair]]:
    """The labelled base edges of the pco least fixpoint.

    Returns ``{"so": ..., "wr": ..., "ww": ..., "rw": ...}``; their
    transitive closure is :func:`pco_fixpoint`. Used for figure-style
    rendering (the paper draws rw/ww edges explicitly) and cycle extraction.
    """
    pco = pco_fixpoint(history)
    return {
        "so": so_pairs(history),
        "wr": wr_pairs(history),
        "ww": _ww_from_pco(history, pco),
        "rw": rw_edges(history, pco),
    }


def pco_cycle(history: History) -> list[str]:
    """A transaction cycle witnessing unserializability, or [] if none.

    The returned list is a closed walk ``[t_a, t_b, ..., t_a]`` over pco
    base edges, e.g. the paper's Fig. 8 cycle t1 < t3 < t2 < t4 < t1.
    """
    import networkx as nx

    edges = pco_edges(history)
    graph = nx.DiGraph()
    graph.add_nodes_from(t.tid for t in history.all_transactions())
    # sorted insertion: the edge sets are frozensets, and adjacency order
    # steers find_cycle's DFS — without this the returned cycle (and any
    # fingerprint derived from it) would vary with PYTHONHASHSEED
    for pairs in edges.values():
        graph.add_edges_from(sorted(pairs))
    try:
        cycle = nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return []
    nodes = [edge[0] for edge in cycle]
    nodes.append(cycle[-1][1])
    return nodes
