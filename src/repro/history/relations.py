"""Relations over histories: so, wr, hb, and closure utilities (paper §2.1)."""
from __future__ import annotations

from typing import Hashable, Iterable, Optional

from .model import History

__all__ = [
    "so_pairs",
    "wr_pairs",
    "wr_k_pairs",
    "hb_pairs",
    "transitive_closure",
    "find_cycle",
    "is_acyclic",
    "topological_order",
]

Pair = tuple[str, str]


def so_pairs(history: History) -> frozenset[Pair]:
    """Session order: t1 before t2 in the same session, plus t0 before all."""
    pairs: set[Pair] = set()
    for txns in history.sessions().values():
        for i in range(len(txns)):
            for j in range(i + 1, len(txns)):
                pairs.add((txns[i].tid, txns[j].tid))
    t0 = history.t0.tid
    for txn in history.transactions():
        pairs.add((t0, txn.tid))
    return frozenset(pairs)


def wr_k_pairs(history: History) -> dict[str, frozenset[Pair]]:
    """Write–read order per key: wr_k(t1, t2) iff t2 reads k from t1."""
    by_key: dict[str, set[Pair]] = {}
    for txn, read in history.reads():
        by_key.setdefault(read.key, set()).add((read.writer, txn.tid))
    return {k: frozenset(v) for k, v in by_key.items()}


def wr_pairs(history: History) -> frozenset[Pair]:
    """Union of wr_k over all keys."""
    pairs: set[Pair] = set()
    for txn, read in history.reads():
        pairs.add((read.writer, txn.tid))
    return frozenset(pairs)


def transitive_closure(
    pairs: Iterable[tuple[Hashable, Hashable]],
    nodes: Optional[Iterable[Hashable]] = None,
) -> frozenset[tuple[Hashable, Hashable]]:
    """Transitive closure by worklist over successor sets."""
    succ: dict[Hashable, set[Hashable]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    if nodes is not None:
        for n in nodes:
            succ.setdefault(n, set())
    changed = True
    while changed:
        changed = False
        for a, outs in succ.items():
            add: set[Hashable] = set()
            for b in outs:
                add |= succ.get(b, set())
            if not add <= outs:
                outs |= add
                changed = True
    return frozenset((a, b) for a, outs in succ.items() for b in outs)


def hb_pairs(history: History) -> frozenset[Pair]:
    """Happens-before: transitive closure of so ∪ wr."""
    return transitive_closure(
        set(so_pairs(history)) | set(wr_pairs(history)),
        nodes=[t.tid for t in history.all_transactions()],
    )


def find_cycle(
    pairs: Iterable[tuple[Hashable, Hashable]],
    nodes: Iterable[Hashable] = (),
) -> list:
    """The first cycle a depth-first search meets, or [] if there is none.

    Roots are tried in ``nodes`` order, then in order of first appearance
    in ``pairs``; successors in the order ``pairs`` lists them, a repeated
    pair keeping its first position. The first edge back onto the current
    path closes the cycle, returned as a closed walk ``[a, ..., a]``.
    """
    succ: dict = {n: {} for n in nodes}
    for a, b in pairs:
        succ.setdefault(a, {})[b] = None
        succ.setdefault(b, {})
    done: set = set()
    for root in succ:
        if root in done:
            continue
        path = {root: iter(succ[root])}  # node -> unexplored successors
        while path:
            for nxt in path[next(reversed(path))]:
                if nxt in path:
                    walk = list(path)
                    return walk[walk.index(nxt):] + [nxt]
                if nxt not in done:
                    path[nxt] = iter(succ[nxt])
                    break
            else:
                done.add(path.popitem()[0])
    return []


def is_acyclic(pairs: Iterable[tuple[Hashable, Hashable]]) -> bool:
    """Whether the relation has no cycle (self-loops included)."""
    return not find_cycle(pairs)


def topological_order(
    nodes: Iterable[Hashable], pairs: Iterable[tuple[Hashable, Hashable]]
) -> list:
    """A deterministic topological order; raises ValueError on a cycle."""
    nodes = list(nodes)
    succ: dict[Hashable, set[Hashable]] = {n: set() for n in nodes}
    indegree: dict[Hashable, int] = {n: 0 for n in nodes}
    for a, b in pairs:
        if a in succ and b in indegree and b not in succ[a]:
            succ[a].add(b)
            indegree[b] += 1
    ready = sorted(
        (n for n in nodes if indegree[n] == 0), key=str, reverse=True
    )
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        inserted = False
        for m in sorted(succ[n], key=str):
            indegree[m] -= 1
            if indegree[m] == 0:
                ready.append(m)
                inserted = True
        if inserted:
            ready.sort(key=str, reverse=True)
    if len(order) != len(nodes):
        raise ValueError("relation is cyclic; no topological order exists")
    return order
