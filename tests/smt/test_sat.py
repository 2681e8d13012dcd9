"""CDCL core tests: hand-picked formulas, pigeonhole, random cross-checks."""
import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import Result, SatSolver, luby


def make_solver(nvars: int) -> SatSolver:
    s = SatSolver()
    for _ in range(nvars):
        s.new_var()
    return s


class TestBasics:
    def test_empty_formula_sat(self):
        s = make_solver(0)
        assert s.solve() is Result.SAT

    def test_unit(self):
        s = make_solver(1)
        s.add_clause([1])
        assert s.solve() is Result.SAT
        assert s.model_value(1) is True

    def test_contradictory_units(self):
        s = make_solver(1)
        s.add_clause([1])
        assert s.add_clause([-1]) is False
        assert s.solve() is Result.UNSAT

    def test_simple_implication_chain(self):
        s = make_solver(3)
        s.add_clause([1])
        s.add_clause([-1, 2])
        s.add_clause([-2, 3])
        assert s.solve() is Result.SAT
        assert s.model_value(3) is True

    def test_two_var_unsat(self):
        s = make_solver(2)
        for clause in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
            s.add_clause(clause)
        assert s.solve() is Result.UNSAT

    def test_tautology_ignored(self):
        s = make_solver(1)
        assert s.add_clause([1, -1]) is True
        assert s.solve() is Result.SAT

    def test_duplicate_literals_collapse(self):
        s = make_solver(1)
        s.add_clause([1, 1, 1])
        assert s.solve() is Result.SAT
        assert s.model_value(1) is True

    def test_out_of_range_literal(self):
        s = make_solver(1)
        try:
            s.add_clause([2])
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")

    def test_incremental_blocking(self):
        """Enumerate all four models of a 2-var formula by blocking."""
        s = make_solver(2)
        models = set()
        while s.solve() is Result.SAT:
            model = (s.model_value(1), s.model_value(2))
            models.add(model)
            blocking = [
                (-1 if model[0] else 1),
                (-2 if model[1] else 2),
            ]
            s.add_clause(blocking)
        assert len(models) == 4


def pigeonhole_clauses(holes: int):
    """PHP(holes+1, holes): unsatisfiable; var p*holes+h+1 = pigeon p in h."""
    pigeons = holes + 1

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = []
    for p in range(pigeons):
        clauses.append([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


class TestPigeonhole:
    def test_php_3_unsat(self):
        nvars, clauses = pigeonhole_clauses(3)
        s = make_solver(nvars)
        for c in clauses:
            s.add_clause(c)
        assert s.solve() is Result.UNSAT

    def test_php_4_unsat(self):
        nvars, clauses = pigeonhole_clauses(4)
        s = make_solver(nvars)
        for c in clauses:
            s.add_clause(c)
        assert s.solve() is Result.UNSAT

    def test_php_satisfiable_variant(self):
        """n pigeons in n holes is satisfiable."""
        holes = 4

        def var(p: int, h: int) -> int:
            return p * holes + h + 1

        s = make_solver(holes * holes)
        for p in range(holes):
            s.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(holes):
                for p2 in range(p1 + 1, holes):
                    s.add_clause([-var(p1, h), -var(p2, h)])
        assert s.solve() is Result.SAT

    def test_model_satisfies_every_clause(self):
        """n pigeons in n holes: the reported model is a placement."""
        holes = 5

        def var(p: int, h: int) -> int:
            return p * holes + h + 1

        clauses = [[var(p, h) for h in range(holes)] for p in range(holes)]
        for h in range(holes):
            for p1 in range(holes):
                for p2 in range(p1 + 1, holes):
                    clauses.append([-var(p1, h), -var(p2, h)])
        s = make_solver(holes * holes)
        for c in clauses:
            s.add_clause(c)
        assert s.solve() is Result.SAT
        for clause in clauses:
            assert any(
                s.model_value(abs(lit)) is (lit > 0) for lit in clause
            ), clause


def brute_force_sat(nvars: int, clauses: list[list[int]]) -> bool:
    for bits in itertools.product([False, True], repeat=nvars):
        def value(lit: int) -> bool:
            v = bits[abs(lit) - 1]
            return v if lit > 0 else not v

        if all(any(value(l) for l in c) for c in clauses):
            return True
    return False


@st.composite
def random_cnf(draw):
    nvars = draw(st.integers(min_value=1, max_value=6))
    nclauses = draw(st.integers(min_value=1, max_value=24))
    clauses = []
    for _ in range(nclauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clause = [
            draw(st.integers(min_value=1, max_value=nvars))
            * (1 if draw(st.booleans()) else -1)
            for _ in range(width)
        ]
        clauses.append(clause)
    return nvars, clauses


class TestRandomCrossCheck:
    @given(random_cnf())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_brute_force(self, problem):
        nvars, clauses = problem
        s = make_solver(nvars)
        ok = True
        for c in clauses:
            ok = s.add_clause(c) and ok
        result = s.solve()
        expected = brute_force_sat(nvars, clauses)
        if expected:
            assert result is Result.SAT
            # the returned model must satisfy every clause
            for c in clauses:
                assert any(
                    (s.model_value(abs(l)) is (l > 0)) for l in c
                ), f"model violates clause {c}"
        else:
            assert result is Result.UNSAT

    @given(random_cnf(), st.integers(min_value=0, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_incremental_agrees(self, problem, split):
        """Adding clauses in two batches gives the same answer."""
        nvars, clauses = problem
        split = min(split, len(clauses))
        s = make_solver(nvars)
        for c in clauses[:split]:
            s.add_clause(c)
        s.solve()
        for c in clauses[split:]:
            s.add_clause(c)
        result = s.solve()
        expected = brute_force_sat(nvars, clauses)
        assert (result is Result.SAT) == expected


class TestLuby:
    def test_prefix(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby(i) for i in range(1, 16)] == expected


class TestBudgets:
    def test_conflict_budget_unknown(self):
        nvars, clauses = pigeonhole_clauses(5)
        s = make_solver(nvars)
        for c in clauses:
            s.add_clause(c)
        result = s.solve(max_conflicts=1)
        assert result in (Result.UNKNOWN, Result.UNSAT)

    def test_wall_budget_reports_unknown(self):
        nvars, clauses = pigeonhole_clauses(8)  # far beyond 50 ms of search
        s = make_solver(nvars)
        for c in clauses:
            s.add_clause(c)
        start = time.monotonic()
        assert s.solve(max_seconds=0.05) is Result.UNKNOWN
        assert time.monotonic() - start < 10.0  # stopped, not awaited

    def test_zero_wall_budget_reports_unknown(self):
        """A 0-second budget is spent before the search starts; it is not
        the absence of a budget."""
        nvars, clauses = pigeonhole_clauses(6)  # UNSAT, but not at level 0
        s = make_solver(nvars)
        for c in clauses:
            s.add_clause(c)
        assert s.solve(max_seconds=0) is Result.UNKNOWN
        assert s.solve() is Result.UNSAT  # the budget did not stick

    def test_conflict_budget_then_full_solve_recovers(self):
        nvars, clauses = pigeonhole_clauses(5)  # UNSAT, not at level 0
        s = make_solver(nvars)
        for c in clauses:
            s.add_clause(c)
        assert s.solve(max_conflicts=1) is Result.UNKNOWN
        assert s.solve() is Result.UNSAT  # the budget did not stick


class TestFeatureFlags:
    """The ablation switches must preserve correctness (only speed varies)."""

    def run_php(self, **flags):
        nvars, clauses = pigeonhole_clauses(4)
        s = SatSolver(**flags)
        for _ in range(nvars):
            s.new_var()
        for c in clauses:
            s.add_clause(c)
        return s.solve()

    def test_no_vsids_still_correct(self):
        assert self.run_php(enable_vsids=False) is Result.UNSAT

    def test_no_restarts_still_correct(self):
        assert self.run_php(enable_restarts=False) is Result.UNSAT

    def test_no_learning_still_correct(self):
        assert self.run_php(enable_learning=False) is Result.UNSAT

    def test_all_disabled_still_correct(self):
        assert (
            self.run_php(
                enable_vsids=False,
                enable_restarts=False,
                enable_learning=False,
            )
            is Result.UNSAT
        )

    @given(random_cnf())
    @settings(max_examples=60, deadline=None)
    def test_flags_never_change_verdicts(self, problem):
        nvars, clauses = problem
        expected = brute_force_sat(nvars, clauses)
        for flags in (
            {"enable_vsids": False},
            {"enable_learning": False},
            {"enable_restarts": False},
        ):
            s = SatSolver(**flags)
            for _ in range(nvars):
                s.new_var()
            for c in clauses:
                s.add_clause(c)
            assert (s.solve() is Result.SAT) == expected, flags


class TestPerSolveConflictBudget:
    def _pigeonhole(self, pigeons, holes):
        def var(p, h):
            return p * holes + h + 1

        clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-var(p1, h), -var(p2, h)])
        return pigeons * holes, clauses

    def test_conflict_budget_is_per_call_not_lifetime(self):
        """Each solve() gets its own conflict allowance.

        Incremental callers (blocking-clause enumeration) re-check one
        solver many times; a lifetime cap would let the first check eat
        the whole budget and starve every later one — and would make the
        same --budget spec mean different things on the in-process
        backend (one long-lived solver) vs the fresh-start backends.
        """
        nvars, clauses = self._pigeonhole(6, 5)
        solver = SatSolver()
        for _ in range(nvars):
            solver.new_var()
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve(max_conflicts=1) is Result.UNKNOWN
        spent = solver.stats["conflicts"]
        assert spent >= 1
        # a later call must search again (same fresh allowance), not
        # return UNKNOWN instantly because the lifetime count is high
        assert solver.solve(max_conflicts=1) is Result.UNKNOWN
        assert solver.stats["conflicts"] > spent
        # and with no budget the same solver still finishes the proof
        assert solver.solve() is Result.UNSAT


def _php(pigeons: int, holes: int):
    """PHP(pigeons, holes): UNSAT exactly when pigeons > holes."""
    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def _random_3sat(seed: int, nvars: int, nclauses: int):
    rng = random.Random(seed)
    return nvars, [
        [rng.choice((1, -1)) * v for v in rng.sample(range(1, nvars + 1), 3)]
        for _ in range(nclauses)
    ]


def _model_digest(solver: SatSolver, nvars: int) -> str:
    bits = "".join(
        "1" if solver.model_value(v) else "0" for v in range(1, nvars + 1)
    )
    return hashlib.sha256(bits.encode()).hexdigest()[:16]


class TestDefaultTrajectory:
    """The default CDCL search trajectory is pinned.

    VSIDS decay, the Luby restart unit, zero initial activities and the
    negative default phase are constants, not constructor knobs. These
    figures were recorded when they still were knobs (at their defaults);
    any drift in them moves every BENCH counter and every golden
    prediction, so it must be deliberate.
    """

    PINNED = {
        # name: (instance, verdict, conflicts, decisions, propagations,
        #        restarts, learned, model digest or None)
        "php-5-5": (
            lambda: _php(5, 5), Result.SAT, 0, 10, 25, 0, 0,
            "7834fb7427eaaaa4",
        ),
        "php-4-3": (
            lambda: _php(4, 3), Result.UNSAT, 7, 9, 55, 0, 6, None,
        ),
        "php-6-5": (
            lambda: _php(6, 5), Result.UNSAT, 151, 184, 1808, 1, 150, None,
        ),
        "rand3-60-250": (
            lambda: _random_3sat(7, 60, 250), Result.SAT, 66, 86, 1217, 0,
            66, "77d24d948cd53056",
        ),
        "rand3-80-340": (
            lambda: _random_3sat(11, 80, 340), Result.UNSAT, 342, 419, 6761,
            2, 341, None,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_counters_and_model_pinned(self, name):
        build, verdict, conflicts, decisions, props, restarts, learned, \
            digest = self.PINNED[name]
        nvars, clauses = build()
        solver = make_solver(nvars)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is verdict
        stats = solver.stats
        assert (
            stats["conflicts"],
            stats["decisions"],
            stats["propagations"],
            stats["restarts"],
            stats["learned"],
        ) == (conflicts, decisions, props, restarts, learned)
        if digest is not None:
            assert _model_digest(solver, nvars) == digest

    @pytest.mark.parametrize(
        "knob", ["seed", "var_decay", "restart_base", "default_phase"]
    )
    def test_search_knobs_are_not_constructor_options(self, knob):
        with pytest.raises(TypeError, match=knob):
            SatSolver(**{knob: 1})

    def test_fresh_variables_start_cold_and_negative(self):
        solver = make_solver(3)
        assert solver._activity[1:] == [0.0, 0.0, 0.0]
        assert solver._phase[1:] == [0, 0, 0]
        # an unconstrained variable takes the default (negative) phase
        solver.add_clause([1])
        assert solver.solve() is Result.SAT
        assert solver.model_value(1) is True
        assert solver.model_value(2) is False
        assert solver.model_value(3) is False


class TestClausesAddedAfterLearning:
    """A clause added between solves (a CEGIS refinement or blocking
    clause) leaves the clauses learned before it learned: they are not
    counted as problem clauses and learned-clause reduction ranks them."""

    def _learned_then_blocked(self):
        nvars, clauses = _random_3sat(7, 60, 250)
        solver = make_solver(nvars)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is Result.SAT
        learned = sum(1 for lbd in solver._clbd if lbd)
        assert learned > 0
        # block the model on its first ten variables
        solver.add_clause([
            -v if solver.model_value(v) else v for v in range(1, 11)
        ])
        return solver, len(clauses) + 1, learned

    def test_num_clauses_counts_problem_clauses_only(self):
        solver, problem, learned = self._learned_then_blocked()
        assert solver.num_clauses == problem
        assert len(solver._cbase) == problem + learned

    def test_reduction_ranks_clauses_learned_before_the_add(self):
        solver, problem, learned = self._learned_then_blocked()
        solver._max_learnts = 0
        solver._reduce_learned()
        dropped = solver.stats["learned_dropped"]
        assert dropped > 0
        assert solver.num_clauses == problem
        assert sum(1 for lbd in solver._clbd if lbd == 0) == problem
        assert len(solver._cbase) == problem + learned - dropped
        # the compacted database still decides the blocked formula
        assert solver.solve() is Result.SAT
