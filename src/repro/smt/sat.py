"""CDCL SAT core.

A conflict-driven clause-learning solver in the MiniSat tradition:

* two-watched-literal propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS decision heuristic with phase saving,
* Luby-sequence restarts,
* LBD-scored learned-clause database reduction,
* incremental clause addition between ``solve()`` calls, and
* an optional *theory* hook (DPLL(T)): after every propagation fixpoint the
  solver feeds newly true theory atoms to the theory, which may answer
  with a conflict explanation (a set of asserted literals that are jointly
  theory-inconsistent).

Literals cross the public API as signed DIMACS-style integers (``+v`` /
``-v``, variables numbered from 1). Internally literals are encoded as
``2*v`` (positive) and ``2*v + 1`` (negative) so watch lists can live in a
flat list.

Clause storage is a single flat literal arena (``_arena``) indexed by
per-clause base offsets (``_cbase``) and sizes (``_csize``) instead of a
list of per-clause list objects: clause access in the propagation inner
loop is two int-list reads, there is no per-clause object churn, and the
arena prefix below ``_learned_from`` is stable so learned-clause reduction
only ever compacts the tail. The watched literals of clause ``ci`` are
always ``_arena[_cbase[ci]]`` and ``_arena[_cbase[ci] + 1]``.

The propagation loop binds everything it touches to locals and inlines
literal evaluation: with assignments stored as 0/1/-1, an internal literal
``q`` is true iff ``assign[q >> 1] ^ (q & 1) == 1`` and false iff that
expression is 0 (the unassigned case yields a negative number, matching
neither), so no helper call sits on the hot path.
"""
from __future__ import annotations

import heapq
import time
from typing import Iterable, Optional, Protocol

from .errors import Result

__all__ = ["SatSolver", "Theory", "luby"]


class Theory(Protocol):
    """Interface the SAT core expects from a theory solver."""

    def is_theory_var(self, var: int) -> bool:
        """Whether ``var`` is a theory atom (asserted when it becomes true)."""

    def assert_literal(self, lit: int) -> Optional[list[int]]:
        """Assert atom ``lit`` true; return a conflicting literal set or None.

        Only true atoms are asserted: an atom assigned false constrains
        nothing (the atoms are one-sided), so ``lit`` is always positive.
        The returned conflict must contain only literals previously asserted
        via this method (including ``lit`` itself), all currently true.
        """

    def pop_to(self, n_asserted: int) -> None:
        """Undo assertions so that only the first ``n_asserted`` remain."""


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


_UNASSIGNED = -1

#: VSIDS activity decay: every conflict grows the bump increment by 1/0.95.
VAR_DECAY = 0.95
#: Conflicts per unit of the Luby restart schedule.
RESTART_BASE = 100


class SatSolver:
    """A CDCL SAT solver with an optional difference-logic theory plugin."""

    def __init__(
        self,
        theory: Optional[Theory] = None,
        enable_vsids: bool = True,
        enable_learning: bool = True,
        enable_restarts: bool = True,
    ):
        """``enable_*`` flags exist for the solver-feature ablation bench.

        Disabling learning keeps conflict analysis (the backjump level and
        asserting literal still need it) but caps the learned-clause DB at
        a handful of clauses, approximating a non-learning DPLL search.
        """
        self.theory = theory
        self.enable_vsids = enable_vsids
        self.enable_learning = enable_learning
        self.enable_restarts = enable_restarts
        self._nvars = 0
        # flat clause arena: clause ci is _arena[_cbase[ci] : _cbase[ci] +
        # _csize[ci]]; _clbd[ci] is its LBD score (0 for problem clauses)
        self._arena: list[int] = []
        self._cbase: list[int] = []
        self._csize: list[int] = []
        self._clbd: list[int] = []
        # clauses below _learned_from are all problem clauses (the stable
        # arena prefix); CEGIS adds may interleave problem clauses with
        # learned ones past it, so problem clauses are counted on their own
        self._learned_from = 0
        self._num_problem = 0
        self._watches: list[list[int]] = [[], []]  # indexed by internal lit
        self._assign: list[int] = [_UNASSIGNED]  # per var: 0/1 value
        self._level: list[int] = [0]
        self._reason: list[int] = [-1]
        self._activity: list[float] = [0.0]
        self._phase: list[int] = [0]
        self._trail: list[int] = []  # internal lits
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._thead = 0  # next trail index to hand to the theory
        self._theory_trail: list[int] = []  # trail idx of each theory assert
        self._order: list[tuple[float, int]] = []  # (-activity, var) heap
        # duplicate suppression for the order heap: the newest entry pushed
        # per var (its activity, and whether it is still in the heap).
        # Re-pushing an exact duplicate of a live entry cannot change which
        # variable any future _decide pops, so those pushes are skipped —
        # backjumps and restarts re-push only variables whose activity
        # actually moved since their last push.
        self._heap_act: list[float] = [0.0]
        self._heap_live: list[bool] = [False]
        self._seen: list[bool] = [False]  # scratch for _analyze, kept clean
        self._var_inc = 1.0
        self._ok = True
        self.stats = {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
            "learned": 0,
            "learned_dropped": 0,
            "theory_conflicts": 0,
        }
        # learned-clause DB reduction bookkeeping
        self._max_learnts = 4000.0 if self.enable_learning else 8.0
        self._learnt_bump = 1.15 if self.enable_learning else 1.0

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable, returning its (positive) index."""
        self._nvars += 1
        self._assign.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(-1)
        self._phase.append(0)
        self._watches.append([])
        self._watches.append([])
        self._seen.append(False)
        self._activity.append(0.0)
        self._heap_act.append(0.0)
        heapq.heappush(self._order, (0.0, self._nvars))
        self._heap_live.append(True)
        return self._nvars

    @property
    def num_vars(self) -> int:
        return self._nvars

    @property
    def num_clauses(self) -> int:
        """Problem (non-unit) clauses added; learned clauses not included."""
        return self._num_problem

    @staticmethod
    def _to_internal(lit: int) -> int:
        return (lit << 1) if lit > 0 else ((-lit) << 1) | 1

    def _push_clause(self, clause: list[int], lbd: int) -> int:
        """Append a clause to the arena and watch its first two literals."""
        ci = len(self._cbase)
        self._cbase.append(len(self._arena))
        self._csize.append(len(clause))
        self._clbd.append(lbd)
        self._arena.extend(clause)
        self._watches[clause[0]].append(ci)
        self._watches[clause[1]].append(ci)
        return ci

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause of signed external literals.

        Returns False if the formula became trivially unsatisfiable. May be
        called between ``solve()`` calls (incremental use); the solver resets
        to decision level 0 first.
        """
        if self._trail_lim:
            self._cancel_until(0)
        nvars = self._nvars
        assign = self._assign
        level = self._level
        seen: set[int] = set()
        clause: list[int] = []
        for lit in lits:
            if lit == 0 or lit > nvars or lit < -nvars:
                raise ValueError(f"literal {lit} out of range")
            ilit = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
            if ilit ^ 1 in seen:  # tautology
                return True
            if ilit in seen:
                continue
            var = ilit >> 1
            val = assign[var]
            if val >= 0 and level[var] == 0:
                if val ^ (ilit & 1) == 1:
                    return True  # already satisfied at root
                continue  # falsified at root: drop literal
            seen.add(ilit)
            clause.append(ilit)
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], -1):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return False
            return True
        # inline _push_clause: this is the bulk-load hot path
        cbase = self._cbase
        ci = len(cbase)
        cbase.append(len(self._arena))
        self._csize.append(len(clause))
        self._clbd.append(0)
        self._arena.extend(clause)
        self._watches[clause[0]].append(ci)
        self._watches[clause[1]].append(ci)
        self._num_problem += 1
        if self._learned_from == ci:
            self._learned_from = ci + 1
        return True

    def add_clause_trusted(self, lits: list[int]) -> bool:
        """``add_clause`` for callers guaranteeing clean input.

        The Tseitin compiler's clauses contain in-range literals over
        pairwise-distinct variables by construction (connective arguments
        are deduplicated and complement-folded by structural equality,
        and the compiler maps structurally equal nodes to one literal), so
        the duplicate/tautology bookkeeping of :meth:`add_clause` is
        skipped. Root-level simplification and unit handling are kept —
        they carry incremental-solving semantics, not validation.
        """
        if self._trail_lim:
            self._cancel_until(0)
        if not self._trail:
            # nothing is assigned yet: root-level simplification is a
            # no-op, encode in one pass
            clause = [
                (lit << 1) if lit > 0 else ((-lit) << 1) | 1 for lit in lits
            ]
        else:
            assign = self._assign
            level = self._level
            clause = []
            for lit in lits:
                ilit = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
                var = ilit >> 1
                val = assign[var]
                if val >= 0 and level[var] == 0:
                    if val ^ (ilit & 1) == 1:
                        return True  # already satisfied at root
                    continue  # falsified at root: drop literal
                clause.append(ilit)
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], -1):
                self._ok = False
                return False
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        cbase = self._cbase
        ci = len(cbase)
        cbase.append(len(self._arena))
        self._csize.append(len(clause))
        self._clbd.append(0)
        self._arena.extend(clause)
        self._watches[clause[0]].append(ci)
        self._watches[clause[1]].append(ci)
        self._num_problem += 1
        if self._learned_from == ci:
            self._learned_from = ci + 1
        return True

    # ------------------------------------------------------------------
    # Assignment plumbing
    # ------------------------------------------------------------------
    def _value(self, ilit: int) -> int:
        """1 true, 0 false, -1 unassigned, for an internal literal."""
        v = self._assign[ilit >> 1]
        if v == _UNASSIGNED:
            return -1
        return v ^ (ilit & 1)

    def _enqueue(self, ilit: int, reason: int) -> bool:
        var = ilit >> 1
        val = self._assign[var]
        if val >= 0:
            return val ^ (ilit & 1) == 1
        self._assign[var] = 1 - (ilit & 1)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(ilit)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        assign = self._assign
        phase = self._phase
        activity = self._activity
        order = self._order
        heap_act = self._heap_act
        heap_live = self._heap_live
        push = heapq.heappush
        trail = self._trail
        for i in range(len(trail) - 1, limit - 1, -1):
            var = trail[i] >> 1
            phase[var] = assign[var]
            assign[var] = _UNASSIGNED
            act = activity[var]
            if not heap_live[var] or heap_act[var] != act:
                heap_act[var] = act
                heap_live[var] = True
                push(order, (-act, var))
        del trail[limit:]
        del self._trail_lim[level:]
        if self._qhead > limit:
            self._qhead = limit
        if self._thead > limit:
            tt = self._theory_trail
            while tt and tt[-1] >= limit:
                tt.pop()
            if self.theory is not None:
                self.theory.pop_to(len(tt))
            self._thead = limit

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[list[int]]:
        """Boolean constraint propagation; returns a conflicting clause.

        The inner loop works directly on the flat arena with every lookup
        bound to a local; unit enqueueing is inlined (the trail append is
        visible to the outer loop through ``trail`` itself).
        """
        watches = self._watches
        arena = self._arena
        cbase = self._cbase
        csize = self._csize
        assign = self._assign
        level = self._level
        reason = self._reason
        trail = self._trail
        dlevel = len(self._trail_lim)
        qhead = self._qhead
        ntrail = len(trail)
        props = 0
        while qhead < ntrail:
            ilit = trail[qhead]
            qhead += 1
            props += 1
            false_lit = ilit ^ 1
            wl = watches[false_lit]
            i = 0
            j = 0
            n = len(wl)
            while i < n:
                ci = wl[i]
                i += 1
                base = cbase[ci]
                # make sure false_lit is at slot base+1
                first = arena[base]
                if first == false_lit:
                    first = arena[base + 1]
                    arena[base] = first
                    arena[base + 1] = false_lit
                if assign[first >> 1] ^ (first & 1) == 1:  # satisfied
                    wl[j] = ci
                    j += 1
                    continue
                # search replacement watch (binary clauses have none and
                # skip straight to the unit/conflict path)
                size = csize[ci]
                if size > 2:
                    moved = False
                    for k in range(base + 2, base + size):
                        lk = arena[k]
                        if assign[lk >> 1] ^ (lk & 1) != 0:  # not false
                            arena[base + 1] = lk
                            arena[k] = false_lit
                            watches[lk].append(ci)
                            moved = True
                            break
                    if moved:
                        continue
                # clause is unit or conflicting
                wl[j] = ci
                j += 1
                var = first >> 1
                val = assign[var]
                if val < 0:
                    assign[var] = 1 - (first & 1)
                    level[var] = dlevel
                    reason[var] = ci
                    trail.append(first)
                    ntrail += 1
                elif val ^ (first & 1) == 0:
                    # conflict: compact remaining watches and report
                    while i < n:
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    del wl[j:]
                    self._qhead = ntrail
                    self.stats["propagations"] += props
                    return arena[base : base + size]
            del wl[j:]
        self._qhead = qhead
        self.stats["propagations"] += props
        return None

    def _theory_check(self) -> Optional[list[int]]:
        """Feed newly assigned true theory atoms to the theory solver.

        Returns a conflict as a *clause* of internal literals, or None.
        """
        theory = self.theory
        if theory is None:
            self._thead = len(self._trail)
            return None
        trail = self._trail
        # membership in the theory's atom registry is the whole test; ask
        # the dict directly when the theory exposes one (saves a Python
        # call per trail literal on this warm path)
        atoms = getattr(theory, "_atoms", None)
        if not isinstance(atoms, dict):
            atoms = None
        is_theory_var = theory.is_theory_var
        while self._thead < len(trail):
            idx = self._thead
            ilit = trail[idx]
            self._thead += 1
            if ilit & 1:
                continue  # a false atom asserts nothing
            var = ilit >> 1
            if atoms is not None:
                if var not in atoms:
                    continue
            elif not is_theory_var(var):
                continue
            self._theory_trail.append(idx)
            conflict = theory.assert_literal(var)
            if conflict is not None:
                self.stats["theory_conflicts"] += 1
                # theory reports true literals; conflict clause negates them
                return [self._to_internal(-l) for l in conflict]
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _bump(self, var: int) -> None:
        if not self.enable_vsids:
            return
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            inv = 1e-100
            act = self._activity
            for v in range(1, self._nvars + 1):
                act[v] *= inv
            self._var_inc *= inv

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """1UIP analysis. Returns (learned clause, backjump level)."""
        level = self._level
        reason = self._reason
        arena = self._arena
        cbase = self._cbase
        csize = self._csize
        seen = self._seen  # all-False between calls; cleared before return
        touched: list[int] = []
        learned: list[int] = [0]  # slot 0 for the asserting literal
        counter = 0
        cur_level = self._decision_level()
        p = -1  # internal lit being resolved on
        trail = self._trail
        index = len(trail) - 1
        reason_clause: Optional[list[int]] = conflict
        while True:
            assert reason_clause is not None
            for q in reason_clause:
                if p != -1 and q == p:
                    continue
                var = q >> 1
                if seen[var] or level[var] == 0:
                    continue
                seen[var] = True
                touched.append(var)
                self._bump(var)
                if level[var] >= cur_level:
                    counter += 1
                else:
                    learned.append(q)
            # walk back to next marked literal on the trail
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            var = p >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                learned[0] = p ^ 1
                break
            ri = reason[var]
            if ri == -1:
                raise AssertionError("resolving on a decision literal")
            base = cbase[ri]
            reason_clause = arena[base : base + csize[ri]]
        for var in touched:
            seen[var] = False
        # conflict-clause minimization: drop literals implied by the rest
        marked = {q >> 1 for q in learned[1:]}
        kept = [learned[0]]
        for q in learned[1:]:
            ri = reason[q >> 1]
            if ri != -1:
                base = cbase[ri]
                for idx in range(base, base + csize[ri]):
                    r = arena[idx]
                    if r == q ^ 1:
                        continue
                    if (r >> 1) not in marked and level[r >> 1] != 0:
                        break
                else:
                    continue  # dominated: implied by other learned literals
            kept.append(q)
        learned = kept
        if len(learned) == 1:
            return learned, 0
        # backjump to the second-highest level in the clause
        max_i = 1
        for i in range(2, len(learned)):
            if level[learned[i] >> 1] > level[learned[max_i] >> 1]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, level[learned[1] >> 1]

    def _lbd(self, clause: list[int]) -> int:
        """Literal block distance: distinct decision levels in the clause."""
        level = self._level
        return len({level[q >> 1] for q in clause})

    def _record_learned(self, learned: list[int]) -> None:
        self.stats["learned"] += 1
        if len(learned) == 1:
            self._enqueue(learned[0], -1)
            return
        ci = self._push_clause(learned, self._lbd(learned))
        self._enqueue(learned[0], ci)

    def _reduce_learned(self) -> None:
        """Drop unhelpful learned clauses when the DB grows too large.

        Scored by LBD (literal block distance — the number of distinct
        decision levels in the clause when it was learned; Glucose's
        quality measure): *glue* clauses (LBD <= 2), binary clauses and
        clauses currently locked as propagation reasons always survive;
        the rest are ranked by (LBD, size) and the worst half beyond the
        quota is dropped, then the arena past the problem-clause prefix is
        compacted in place. Problem clauses added after a learned clause
        (LBD 0) are kept and never ranked.
        """
        keep_from = self._learned_from
        n_clauses = len(self._cbase)
        n_learned = n_clauses - self._num_problem
        if n_learned <= self._max_learnts:
            return
        reason = self._reason
        csize = self._csize
        clbd = self._clbd
        locked = {
            reason[ilit >> 1]
            for ilit in self._trail
            if reason[ilit >> 1] != -1
        }
        by_score = sorted(
            (ci for ci in range(keep_from, n_clauses) if clbd[ci]),
            key=lambda ci: (clbd[ci], csize[ci]),
        )
        quota = int(self._max_learnts // 2)
        dropped: set[int] = set()
        for rank, ci in enumerate(by_score):
            if (
                ci in locked
                or csize[ci] <= 2
                or clbd[ci] <= 2
                or rank < quota
            ):
                continue
            dropped.add(ci)
        if not dropped:
            # every clause is protected: loosen the cap so the check does
            # not fire again immediately
            self._max_learnts *= self._learnt_bump
            return
        # compact the learned tail of the arena + remap clause indices
        arena = self._arena
        cbase = self._cbase
        write = cbase[keep_from]
        remap: dict[int, int] = {}
        new_cbase = cbase[:keep_from]
        new_csize = csize[:keep_from]
        new_clbd = clbd[:keep_from]
        for ci in range(keep_from, n_clauses):
            if ci in dropped:
                continue
            size = csize[ci]
            base = cbase[ci]
            remap[ci] = len(new_cbase)
            new_cbase.append(write)
            new_csize.append(size)
            new_clbd.append(clbd[ci])
            arena[write : write + size] = arena[base : base + size]
            write += size
        del arena[write:]
        self._cbase = new_cbase
        self._csize = new_csize
        self._clbd = new_clbd
        for lit in range(len(self._watches)):
            wl = self._watches[lit]
            out = []
            for ci in wl:
                if ci < keep_from:
                    out.append(ci)
                else:
                    new_ci = remap.get(ci)
                    if new_ci is not None:
                        out.append(new_ci)
            self._watches[lit] = out
        for var in range(1, self._nvars + 1):
            ri = reason[var]
            if ri >= keep_from:
                reason[var] = remap.get(ri, -1)
        self.stats["learned_dropped"] += len(dropped)
        self._max_learnts *= self._learnt_bump

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _decide(self) -> int:
        """Pick an unassigned variable by activity; 0 when all assigned.

        Entries in the order heap may be stale (the variable was assigned, or
        its activity changed since the entry was pushed). Every unassigned
        variable always has at least one entry — one is pushed at creation and
        on every unassignment — so popping until an unassigned variable
        appears is safe; a stale priority only weakens the heuristic.
        """
        order = self._order
        assign = self._assign
        heap_act = self._heap_act
        heap_live = self._heap_live
        pop = heapq.heappop
        while order:
            prio, var = pop(order)
            if heap_act[var] == -prio:
                heap_live[var] = False
            if assign[var] == _UNASSIGNED:
                return var
        return 0

    # ------------------------------------------------------------------
    # Main search loop
    # ------------------------------------------------------------------
    def solve(
        self,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> Result:
        """Decide the clause set within optional conflict/wall budgets."""
        if not self._ok:
            return Result.UNSAT
        self._cancel_until(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return Result.UNSAT
        tconf = self._theory_check()
        if tconf is not None:
            self._ok = False
            return Result.UNSAT

        deadline = None if max_seconds is None else time.monotonic() + max_seconds
        restart_idx = 1
        budget = RESTART_BASE * luby(restart_idx)
        conflicts_here = 0
        # conflict budgets are per-call, like wall budgets: an incremental
        # caller re-checking the same solver grants each check its own
        # allowance
        conflicts_at_entry = self.stats["conflicts"]

        while True:
            conflict = self._propagate()
            if conflict is None:
                conflict = self._theory_check()
                if conflict is None and self._qhead < len(self._trail):
                    continue  # theory OK but BCP has new work? (defensive)
            if conflict is not None:
                self.stats["conflicts"] += 1
                conflicts_here += 1
                # A theory conflict may involve only literals below the
                # current decision level (e.g. assigned during re-propagation
                # after a backjump); 1UIP analysis needs the conflict to sit
                # at the top level, so fall back there first.
                top = max(
                    (self._level[q >> 1] for q in conflict), default=0
                )
                if top == 0:
                    self._ok = False
                    return Result.UNSAT
                if top < self._decision_level():
                    self._cancel_until(top)
                learned, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                self._record_learned(learned)
                self._var_inc /= VAR_DECAY
                continue
            # no conflict
            if max_conflicts is not None and (
                self.stats["conflicts"] - conflicts_at_entry >= max_conflicts
            ):
                self._cancel_until(0)
                return Result.UNKNOWN
            if deadline is not None and time.monotonic() >= deadline:
                self._cancel_until(0)
                return Result.UNKNOWN
            if self.enable_restarts and conflicts_here >= budget:
                conflicts_here = 0
                restart_idx += 1
                budget = RESTART_BASE * luby(restart_idx)
                self.stats["restarts"] += 1
                self._cancel_until(0)
                self._reduce_learned()
                continue
            if not self.enable_restarts and conflicts_here >= budget:
                conflicts_here = 0  # still trim the clause DB periodically
                self._reduce_learned()
            var = self._decide()
            if var == 0:
                return Result.SAT  # full assignment, theory-consistent
            self.stats["decisions"] += 1
            self._trail_lim.append(len(self._trail))
            ilit = (var << 1) | (1 if self._phase[var] == 0 else 0)
            self._enqueue(ilit, -1)

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def model_value(self, var: int) -> Optional[bool]:
        v = self._assign[var]
        if v == _UNASSIGNED:
            return None
        return bool(v)
