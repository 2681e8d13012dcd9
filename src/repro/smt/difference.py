"""Integer difference-logic theory solver.

Atoms have the form ``x - y <= c`` over integer variables. A set of such
constraints is satisfiable iff the *constraint graph* — an edge ``y -> x``
with weight ``c`` per constraint — has no negative-weight cycle. This module
maintains that graph incrementally as the SAT core asserts and retracts
literals, detecting conflicts eagerly and producing *explanations* (the set
of asserted literals forming the negative cycle).

The implementation follows Cotton & Maler (2006): keep a feasible potential
function ``pi`` with ``pi(x) - pi(y) <= c`` for every active edge. Asserting
an edge that violates its inequality triggers a Dijkstra pass over *reduced
costs* (non-negative by feasibility) that either repairs ``pi`` or walks back
to the new edge's tail, exhibiting a negative cycle.

Only a *true* atom adds an edge. The encoder's order atoms are one-sided
(:func:`repro.smt.ast.OneSidedLt`): a false literal asserts nothing, so the
SAT core decides order atoms negatively without telling the theory.

Backtracking pops edges LIFO. The potential function is *kept* across pops:
a potential feasible for a superset of edges is feasible for any subset.

Model values: after a successful search, ``value(x) = pi(x)`` satisfies every
active constraint directly.
"""
from __future__ import annotations

import heapq
from typing import Optional

__all__ = ["DifferenceTheory"]


class _Edge:
    __slots__ = ("src", "dst", "weight", "lit")

    def __init__(self, src: int, dst: int, weight: int, lit: int):
        self.src = src
        self.dst = dst
        self.weight = weight
        self.lit = lit


class DifferenceTheory:
    """DPLL(T) plugin deciding conjunctions of difference constraints.

    Variables are dense integer ids managed by :meth:`var_id`. Atoms are
    registered up front via :meth:`add_atom`, binding a SAT variable to the
    constraint ``x - y <= c``.
    """

    def __init__(self) -> None:
        self._var_ids: dict[str, int] = {}
        self._pi: list[int] = []
        # atom registry: sat var -> (x, y, c) meaning x - y <= c
        self._atoms: dict[int, tuple[int, int, int]] = {}
        # adjacency: node -> list of edge indices (active ones only)
        self._out: list[list[int]] = []
        self._edges: list[_Edge] = []
        self.stats = {"asserts": 0, "repairs": 0, "conflicts": 0}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def var_id(self, name: str) -> int:
        """Dense id for the integer variable ``name`` (created on demand)."""
        vid = self._var_ids.get(name)
        if vid is None:
            vid = len(self._var_ids)
            self._var_ids[name] = vid
            self._pi.append(0)
            self._out.append([])
        return vid

    def add_atom(self, sat_var: int, x: str, y: str, c: int) -> None:
        """Bind SAT variable ``sat_var`` to the atom ``x - y <= c``.

        The atom constrains only when asserted true; asserted false it
        imposes nothing (see :func:`repro.smt.ast.OneSidedLt`).
        """
        self._atoms[sat_var] = (self.var_id(x), self.var_id(y), c)

    def is_theory_var(self, var: int) -> bool:
        return var in self._atoms

    # ------------------------------------------------------------------
    # Assertion / retraction (called by the SAT core)
    # ------------------------------------------------------------------
    def assert_literal(self, lit: int) -> Optional[list[int]]:
        """Assert a registered atom true, adding its edge.

        Returns ``None`` on success, or the conflict explanation: a list of
        currently-asserted literals (including ``lit``) whose conjunction is
        theory-inconsistent. The assertion is recorded either way; the SAT
        core is expected to backtrack past it after a conflict. A false
        atom has no theory content, so callers never assert one.
        """
        x, y, c = self._atoms[lit]
        src, dst, weight = y, x, c  # x - y <= c : edge y -> x
        self.stats["asserts"] += 1
        edge = _Edge(src, dst, weight, lit)
        ei = len(self._edges)
        self._edges.append(edge)
        self._out[src].append(ei)
        pi = self._pi
        if pi[dst] - pi[src] <= weight:
            return None  # already feasible
        return self._repair(edge)

    def pop_to(self, n_asserted: int) -> None:
        """Retract edges so only the first ``n_asserted`` assertions remain."""
        while len(self._edges) > n_asserted:
            edge = self._edges.pop()
            removed = self._out[edge.src].pop()
            assert removed == len(self._edges)

    # ------------------------------------------------------------------
    # Feasibility repair (Cotton–Maler)
    # ------------------------------------------------------------------
    def _repair(self, new_edge: _Edge) -> Optional[list[int]]:
        """Restore potential feasibility after adding ``new_edge``.

        Let the new edge be ``u -> v`` with weight ``w`` and let
        ``delta = pi(u) + w - pi(v) < 0``. Candidate new potentials are
        ``pi'(z) = min(pi(z), pi(u) + w + D(v, z))`` where ``D`` is the
        shortest-path distance from ``v`` using current edge weights. With
        reduced costs ``rc(a->b) = pi(a) + w(a,b) - pi(b) >= 0`` (feasible for
        all old edges) Dijkstra from ``v`` computes
        ``dr(z) = D(v, z) + pi(v) - pi(z) >= 0``; node ``z`` needs updating
        iff ``dr(z) < -delta``. Reaching ``u`` with ``dr(u) < -delta`` means
        ``D(v, u) + w < pi(v) - pi(u) - w + ... < 0`` — a negative cycle
        through the new edge; the explanation is the Dijkstra path plus the
        new edge's literal.
        """
        self.stats["repairs"] += 1
        pi = self._pi
        u, v, w = new_edge.src, new_edge.dst, new_edge.weight
        delta = pi[u] + w - pi[v]  # < 0
        bound = -delta
        dist: dict[int, int] = {v: 0}
        parent_edge: dict[int, _Edge] = {}
        settled: set[int] = set()
        heap: list[tuple[int, int]] = [(0, v)]
        out = self._out
        edges = self._edges
        updates: list[tuple[int, int]] = []
        while heap:
            dr, node = heapq.heappop(heap)
            if node in settled or dr >= bound:
                continue
            if node == u:
                # negative cycle: path v ->* u plus edge u -> v
                explanation = [new_edge.lit]
                cur = u
                while cur != v:
                    e = parent_edge[cur]
                    explanation.append(e.lit)
                    cur = e.src
                self.stats["conflicts"] += 1
                return explanation
            settled.add(node)
            updates.append((node, pi[node] + delta + dr))
            base = pi[node]
            for ei in out[node]:
                e = edges[ei]
                if e is new_edge:
                    continue
                nxt = e.dst
                if nxt in settled:
                    continue
                ndr = dr + base + e.weight - pi[nxt]
                if ndr < bound and ndr < dist.get(nxt, bound):
                    dist[nxt] = ndr
                    parent_edge[nxt] = e
                    heapq.heappush(heap, (ndr, nxt))
        # no negative cycle: commit the repaired potentials
        for node, val in updates:
            pi[node] = val
        return None

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------
    def value(self, name: str) -> int:
        """Model value of an integer variable under the current potentials."""
        vid = self._var_ids.get(name)
        if vid is None:
            return 0
        return self._pi[vid]
