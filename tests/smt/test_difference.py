"""Difference-logic theory tests, including a Bellman–Ford oracle."""
from hypothesis import given, settings, strategies as st

from repro.smt import Result
from repro.smt.difference import DifferenceTheory
from repro.smt.sat import SatSolver


def feasible_bellman_ford(constraints: list[tuple[int, int, int]], nvars: int):
    """Oracle: is the conjunction of ``x - y <= c`` constraints satisfiable?

    Constraint (x, y, c) becomes edge y -> x with weight c; run Bellman-Ford
    from a virtual source connected to every node with weight 0.
    """
    dist = [0] * nvars
    edges = [(y, x, c) for (x, y, c) in constraints]
    for _ in range(nvars):
        changed = False
        for (src, dst, w) in edges:
            if dist[src] + w < dist[dst]:
                dist[dst] = dist[src] + w
                changed = True
        if not changed:
            return True, dist
    return False, None


def fresh_theory(nvars: int) -> DifferenceTheory:
    th = DifferenceTheory()
    for i in range(nvars):
        th.var_id(f"v{i}")
    return th


class TestUnit:
    def test_single_constraint_feasible(self):
        th = fresh_theory(2)
        th.add_atom(1, "v0", "v1", 5)
        assert th.assert_literal(1) is None
        assert th.value("v0") - th.value("v1") <= 5

    def test_false_atom_never_reaches_the_theory(self):
        # a false atom asserts nothing: not(v0 < v1) does not force
        # v1 <= v0, so a second atom ordering v0 < v1 stays consistent,
        # and the SAT core hands the theory the true atom alone
        th = fresh_theory(2)
        asserted = []
        assert_literal = th.assert_literal
        th.assert_literal = lambda lit: (
            asserted.append(lit) or assert_literal(lit)
        )
        sat = SatSolver(theory=th)
        for var in (sat.new_var(), sat.new_var()):
            th.add_atom(var, "v0", "v1", -1)
        sat.add_clause([-1])
        sat.add_clause([2])
        assert sat.solve() is Result.SAT
        assert asserted == [2]
        assert th.value("v0") < th.value("v1")
        assert th.stats["asserts"] == 1

    def test_two_edge_cycle_conflict(self):
        # v0 - v1 <= -1 and v1 - v0 <= -1: negative cycle
        th = fresh_theory(2)
        th.add_atom(1, "v0", "v1", -1)
        th.add_atom(2, "v1", "v0", -1)
        assert th.assert_literal(1) is None
        conflict = th.assert_literal(2)
        assert conflict is not None
        assert set(conflict) == {1, 2}

    def test_three_edge_cycle_explanation(self):
        # v0 < v1 < v2 < v0
        th = fresh_theory(3)
        th.add_atom(1, "v0", "v1", -1)  # v0 - v1 <= -1, i.e. v0 < v1
        th.add_atom(2, "v1", "v2", -1)
        th.add_atom(3, "v2", "v0", -1)
        assert th.assert_literal(1) is None
        assert th.assert_literal(2) is None
        conflict = th.assert_literal(3)
        assert conflict is not None
        assert set(conflict) == {1, 2, 3}

    def test_zero_cycle_is_fine(self):
        # v0 - v1 <= 0 and v1 - v0 <= 0 forces equality, not a conflict
        th = fresh_theory(2)
        th.add_atom(1, "v0", "v1", 0)
        th.add_atom(2, "v1", "v0", 0)
        assert th.assert_literal(1) is None
        assert th.assert_literal(2) is None
        assert th.value("v0") == th.value("v1")

    def test_pop_restores_feasibility(self):
        th = fresh_theory(2)
        th.add_atom(1, "v0", "v1", -1)
        th.add_atom(2, "v1", "v0", -1)
        assert th.assert_literal(1) is None
        assert th.assert_literal(2) is not None
        th.pop_to(1)  # retract the conflicting edge
        th.add_atom(3, "v1", "v0", 5)
        assert th.assert_literal(3) is None

    def test_explanation_excludes_irrelevant_edges(self):
        th = fresh_theory(4)
        th.add_atom(1, "v2", "v3", 7)  # unrelated
        th.add_atom(2, "v0", "v1", -1)
        th.add_atom(3, "v1", "v0", -1)
        assert th.assert_literal(1) is None
        assert th.assert_literal(2) is None
        conflict = th.assert_literal(3)
        assert conflict is not None
        assert 1 not in set(conflict)


@st.composite
def random_dl_problem(draw):
    nvars = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=1, max_value=12))
    constraints = []
    for _ in range(n):
        x = draw(st.integers(min_value=0, max_value=nvars - 1))
        y = draw(st.integers(min_value=0, max_value=nvars - 1))
        if x == y:
            y = (y + 1) % nvars
        c = draw(st.integers(min_value=-4, max_value=4))
        constraints.append((x, y, c))
    return nvars, constraints


class TestRandomCrossCheck:
    @given(random_dl_problem())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_bellman_ford(self, problem):
        nvars, constraints = problem
        th = fresh_theory(nvars)
        ok = True
        for i, (x, y, c) in enumerate(constraints, start=1):
            th.add_atom(i, f"v{x}", f"v{y}", c)
        conflict_at = None
        for i in range(1, len(constraints) + 1):
            if th.assert_literal(i) is not None:
                conflict_at = i
                break
        expected_all, _ = feasible_bellman_ford(constraints, nvars)
        if conflict_at is None:
            assert expected_all
            # model satisfies every constraint
            for (x, y, c) in constraints:
                assert th.value(f"v{x}") - th.value(f"v{y}") <= c
        else:
            # the asserted prefix must be infeasible
            prefix = constraints[:conflict_at]
            expected_prefix, _ = feasible_bellman_ford(prefix, nvars)
            assert not expected_prefix

    @given(random_dl_problem())
    @settings(max_examples=150, deadline=None)
    def test_conflict_explanations_are_infeasible(self, problem):
        nvars, constraints = problem
        th = fresh_theory(nvars)
        for i, (x, y, c) in enumerate(constraints, start=1):
            th.add_atom(i, f"v{x}", f"v{y}", c)
        for i in range(1, len(constraints) + 1):
            conflict = th.assert_literal(i)
            if conflict is None:
                continue
            subset = [constraints[abs(l) - 1] for l in conflict]
            feasible, _ = feasible_bellman_ford(subset, nvars)
            assert not feasible, "explanation must itself be infeasible"
            break

    @given(random_dl_problem(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_pop_then_reassert_matches_fresh(self, problem, data):
        """Backtracking then re-asserting behaves like a fresh theory."""
        nvars, constraints = problem
        th = fresh_theory(nvars)
        for i, (x, y, c) in enumerate(constraints, start=1):
            th.add_atom(i, f"v{x}", f"v{y}", c)
        asserted = 0
        for i in range(1, len(constraints) + 1):
            if th.assert_literal(i) is not None:
                th.pop_to(asserted)
                break
            asserted += 1
        keep = data.draw(
            st.integers(min_value=0, max_value=asserted), label="keep"
        )
        th.pop_to(keep)
        # re-assert the retracted prefix portion: must succeed again
        for i in range(keep + 1, asserted + 1):
            assert th.assert_literal(i) is None
        for (x, y, c) in constraints[:asserted]:
            assert th.value(f"v{x}") - th.value(f"v{y}") <= c
