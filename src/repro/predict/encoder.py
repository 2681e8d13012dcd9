"""Trace encoder: observed history → SMT variable universe and constraints.

Implements Appendix B of the paper for the constraints the solver
asserts: feasibility (B.1) and weak isolation (B.3). Relations that the
paper writes as SMT functions over transaction pairs become:

* **constants** where the observed trace fixes them (``phi_so``,
  ``phi_obs``) — the constant folding in :mod:`repro.smt.ast` then erases
  them from the emitted formula;
* **plain expressions** where the definition is non-recursive
  (``phi_wr_k``, ``phi_wr``, ``phi_wwcausal``, ``phi_wwrc``) — the
  encoding's memo dicts build each subterm once and share that object
  across every use, and the CNF compiler compiles it once;
* **named Boolean variables with containment clauses** for the recursive
  ``phi_hb`` — but only for a cell the solver has something to decide: an
  hb cell that session order fixes is ``TRUE`` or ``FALSE``. Constraints
  over a substituted cell still apply; they fold, so the SAT core never
  has to prove a fact the encoder already knew;
* **one-hot enum variables** for ``choice(s, i)`` and ``boundary(s)``
  (the atom of a single-candidate domain is ``TRUE``);
* **difference-logic integers** for the weak-isolation commit orders.

Unserializability (B.2) is not encoded. Both strategies check it on each
decoded candidate instead (:class:`repro.predict.PredictionEnumeration`):
the approximate one computes the pco least fixpoint on the graph, and
the exact one runs the session-frontier serializability search.

The prediction boundary (§4.5) is woven through every relation exactly as in
Appendix B: reads contribute write–read edges only up to their session's
boundary, and arbitration/causal edges require the writer's write to sit
before its session's boundary.
"""
from __future__ import annotations


from ..history.events import ReadEvent
from ..history.model import History, INIT_TID, Transaction
from ..history.relations import so_pairs
from ..smt import (
    And,
    Bool,
    EnumSort,
    EnumVar,
    Expr,
    FALSE,
    Implies,
    Not,
    Or,
    TRUE,
)
from .strategies import BoundaryMode

__all__ = ["Encoding", "INFINITY_POS"]

# stands for the paper's "position infinity" (the end-of-session boundary)
INFINITY_POS = 10**9


class Encoding:
    """The shared constraint universe for one observed history.

    Build one per prediction query; hand it to the unserializability and
    weak-isolation constraint generators, then to the decoder.

    **Determinism invariant**: expression generation never iterates a
    ``set``/``frozenset`` of strings directly — key sets are sorted first.
    String hashing is salted per process (``PYTHONHASHSEED``), so raw set
    order would make CNF variable numbering, and with it the entire
    search trajectory and solver counters, differ from run to run.
    """

    def __init__(
        self,
        observed: History,
        boundary: BoundaryMode = BoundaryMode.STRICT,
    ):
        self.observed = observed
        self.boundary_mode = boundary
        self.tids: list[str] = [t.tid for t in observed.all_transactions()]
        self._txn: dict[str, Transaction] = {
            t.tid: t for t in observed.all_transactions()
        }
        self._so = so_pairs(observed)
        self._writer_sort = EnumSort("txn", self.tids)
        self.sessions = sorted(observed.sessions())
        # --- precomputed pair/key structures ----------------------------
        # every constraint family iterates these; build them once instead
        # of regenerating generators and membership scans per family
        self._pairs: list[tuple[str, str]] = [
            (t1, t2) for t1 in self.tids for t2 in self.tids if t1 != t2
        ]
        # --- boundary variables: one per session ------------------------
        # Only boundary-candidate values ever enter the positions sort:
        # strict boundaries range over read positions, relaxed ones over
        # commit positions, so the remaining event positions would be dead
        # weight in the sort (pruned before any one-hot clause is emitted).
        boundary_candidates: dict[str, list[int]] = {}
        for session, txns in observed.sessions().items():
            if boundary is BoundaryMode.STRICT:
                candidates = sorted(
                    {r.pos for t in txns for r in t.reads} | {INFINITY_POS}
                )
            else:
                candidates = sorted(
                    {t.commit_pos for t in txns} | {INFINITY_POS}
                )
            boundary_candidates[session] = candidates
        self._positions_sort = EnumSort(
            "pos",
            sorted(
                {p for cs in boundary_candidates.values() for p in cs}
                | {INFINITY_POS}
            ),
        )
        self.boundary: dict[str, EnumVar] = {}
        for session, candidates in boundary_candidates.items():
            self.boundary[session] = EnumVar(
                f"boundary[{session}]", self._positions_sort, candidates
            )
        # --- choice variables: one per read event ----------------------
        # reads[(tid, pos)] = (ReadEvent, EnumVar)
        self.choice: dict[tuple[str, int], EnumVar] = {}
        self._reads: list[tuple[Transaction, ReadEvent]] = []
        for txn in observed.transactions():
            for read in txn.reads:
                # The full writer set stays as the domain on purpose: the
                # hb constraints already exclude session-order-later
                # writers for included reads, and statically pruning them
                # here measurably *hurts* — see docs/performance.md
                # ("choice-domain pruning") for the experiment.
                candidates = [
                    w
                    for w in observed.writers_of(read.key)
                    if w != txn.tid
                ]
                var = EnumVar(
                    f"choice[{txn.session},{read.pos}]",
                    self._writer_sort,
                    candidates=candidates,
                )
                self.choice[(txn.tid, read.pos)] = var
                self._reads.append((txn, read))
        # --- hb cells and their pending containment clauses -------------
        self._defs: list[Expr] = []
        self._hb: dict[tuple[str, str], Expr] = {}
        self._wr_cache: dict[tuple[str, str, str], Expr] = {}
        self._wr_union_cache: dict[tuple[str, str], Expr] = {}
        self._boundary_ge_cache: dict[tuple[str, int], Expr] = {}
        self._included_cache: dict[tuple[str, str], Expr] = {}
        self._built_hb = False

    # ------------------------------------------------------------------
    # Static relation access
    # ------------------------------------------------------------------
    def txn(self, tid: str) -> Transaction:
        return self._txn[tid]

    def so(self, t1: str, t2: str) -> bool:
        return (t1, t2) in self._so

    def session_of(self, tid: str) -> str:
        return self._txn[tid].session

    def pairs(self) -> list[tuple[str, str]]:
        """All ordered pairs of distinct transactions (t0 included)."""
        return self._pairs

    def readers_of(self, key: str) -> tuple[str, ...]:
        """Transactions reading ``key``, in ``tids`` order."""
        return self.observed.readers_of(key)

    # ------------------------------------------------------------------
    # Boundary helpers
    # ------------------------------------------------------------------
    def boundary_gt(self, session: str, pos: int) -> Expr:
        """``boundary(session) > pos``: positions are integers."""
        return self.boundary_ge(session, pos + 1)

    def boundary_ge(self, session: str, pos: int) -> Expr:
        """``boundary(session) >= pos`` — t0's pseudo-session is unbounded."""
        var = self.boundary.get(session)
        if var is None:  # t0's session: boundary fixed at infinity
            return TRUE
        cached = self._boundary_ge_cache.get((session, pos))
        if cached is None:
            cached = Or(*[var.eq(p) for p in var.candidates if p >= pos])
            self._boundary_ge_cache[(session, pos)] = cached
        return cached

    def write_included(self, tid: str, key: str) -> Expr:
        """``wrpos_k(t) < boundary(session(t))`` — write inside the prefix."""
        if tid == INIT_TID:
            return TRUE
        cached = self._included_cache.get((tid, key))
        if cached is not None:
            return cached
        pos = self._txn[tid].write_pos(key)
        if pos is None:
            expr = FALSE
        else:
            expr = self.boundary_gt(self.session_of(tid), pos)
        self._included_cache[(tid, key)] = expr
        return expr

    # ------------------------------------------------------------------
    # Write–read relation (B.1)
    # ------------------------------------------------------------------
    def wr_k(self, key: str, t1: str, t2: str) -> Expr:
        """``phi_wr_k(t1, t2)``: t2 reads key from t1 within the boundary."""
        cached = self._wr_cache.get((key, t1, t2))
        if cached is not None:
            return cached
        expr = FALSE
        txn2 = self._txn.get(t2)
        if txn2 is not None and t1 != t2 and t2 != INIT_TID:
            session = txn2.session
            disjuncts = []
            for read in txn2.reads:
                if read.key != key:
                    continue
                var = self.choice[(t2, read.pos)]
                disjuncts.append(
                    And(var.eq(t1), self.boundary_ge(session, read.pos))
                )
            expr = Or(*disjuncts)
        self._wr_cache[(key, t1, t2)] = expr
        return expr

    def wr(self, t1: str, t2: str) -> Expr:
        """``phi_wr(t1, t2)``: union of wr_k over all keys."""
        cached = self._wr_union_cache.get((t1, t2))
        if cached is not None:
            return cached
        txn2 = self._txn.get(t2)
        # sorted: frozenset iteration is hash-seed-dependent, and disjunct
        # order shapes the emitted CNF (see the class invariant note)
        keys = sorted(txn2.read_keys) if txn2 is not None else ()
        expr = Or(*[self.wr_k(k, t1, t2) for k in keys])
        self._wr_union_cache[(t1, t2)] = expr
        return expr

    # ------------------------------------------------------------------
    # Feasibility constraints (B.1)
    # ------------------------------------------------------------------
    def feasibility_constraints(self) -> list[Expr]:
        out: list[Expr] = []
        for txn, read in self._reads:
            var = self.choice[(txn.tid, read.pos)]
            session = txn.session
            # (a) reads pinned to the observed writer before the boundary
            pin_guard = self._pin_guard(txn, read)
            out.append(Implies(pin_guard, var.eq(read.writer)))
            # (b) included reads read included writes
            for candidate in var.candidates:
                out.append(
                    Implies(
                        And(
                            var.eq(candidate),
                            self.boundary_ge(session, read.pos),
                        ),
                        self.write_included(candidate, read.key),
                    )
                )
        return out

    def _pin_guard(self, txn: Transaction, read: ReadEvent) -> Expr:
        """When must this read match the observed writer?

        Strict: whenever the read sits strictly before the boundary.
        Relaxed: whenever the read's *transaction commit* sits strictly
        before the boundary (reads inside the boundary transaction float).
        """
        if self.boundary_mode is BoundaryMode.STRICT:
            return self.boundary_gt(txn.session, read.pos)
        return self.boundary_gt(txn.session, txn.commit_pos)

    # ------------------------------------------------------------------
    # Happens-before (B.3)
    # ------------------------------------------------------------------
    def hb(self, t1: str, t2: str) -> Expr:
        """``phi_hb``: the recursive happens-before cell (B.3)."""
        if not self._built_hb:
            self._build_hb()
        return self._hb.get((t1, t2), FALSE)

    def _build_hb(self) -> None:
        """Happens-before as a lower-bounded over-approximation.

        The paper defines ``phi_hb`` with an equality (B.3); only the
        containment direction ``so ∪ wr ∪ (hb ; hb)  ⊆  hb`` is logically
        load-bearing, because hb occurs solely in *restricting* positions
        (antecedents forcing commit-order edges). Encoding just that
        direction keeps hb a sound over-approximation — the solver minimizes
        it to the true closure when that helps satisfiability — and emits
        plain 3-literal transitivity clauses instead of one Tseitin
        auxiliary per chain, which measurably shrinks the search space.
        """
        self._built_hb = True
        for (t1, t2) in self.pairs():
            if self.so(t1, t2):
                cell = TRUE
            elif self.so(t2, t1):
                # hb both ways is impossible under any weak level the
                # analysis targets
                cell = FALSE
            else:
                cell = Bool(f"hb[{t1},{t2}]")
            self._hb[(t1, t2)] = cell
        for (t1, t2) in self.pairs():
            # substituted, never dropped: a FALSE cell still forbids its
            # wr edge and folds into its transitivity clauses
            cell = self._hb[(t1, t2)]
            self._defs.append(Implies(self.wr(t1, t2), cell))
            for t in self.tids:
                if t in (t1, t2):
                    continue
                self._defs.append(
                    Or(
                        Not(self._hb[(t1, t)]),
                        Not(self._hb[(t, t2)]),
                        cell,
                    )
                )

    # ------------------------------------------------------------------
    def definitions(self) -> list[Expr]:
        """The hb containment clauses built so far.

        Call after building (``hb`` builds on first use). Clauses that
        folded to TRUE are left out.
        """
        return [d for d in self._defs if d is not TRUE]
