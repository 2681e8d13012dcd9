"""End-to-end Solver tests over the Bool/Enum/one-sided order fragment."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import (
    And,
    Bool,
    EnumSort,
    EnumVar,
    Implies,
    ModelUnavailable,
    Not,
    OneSidedLt,
    Or,
    Result,
    Solver,
)


class TestBooleanLayer:
    def test_trivial_sat(self):
        s = Solver()
        s.add(Bool("p"))
        assert s.check() is Result.SAT
        assert s.model().bool_value("p") is True

    def test_trivial_unsat(self):
        s = Solver()
        p = Bool("p")
        s.add(p, Not(p))
        assert s.check() is Result.UNSAT

    def test_model_unavailable_after_unsat(self):
        s = Solver()
        p = Bool("p")
        s.add(p, Not(p))
        s.check()
        with pytest.raises(ModelUnavailable):
            s.model()

    def test_nested_structure(self):
        s = Solver()
        p, q, r = Bool("p"), Bool("q"), Bool("r")
        s.add(Or(And(p, q), And(Not(p), r)))
        s.add(Not(q))
        assert s.check() is Result.SAT
        m = s.model()
        assert m.bool_value("r") is True
        assert m.bool_value("p") is False

    def test_implication_chain(self):
        s = Solver()
        ps = [Bool(f"p{i}") for i in range(6)]
        for a, b in zip(ps, ps[1:]):
            s.add(Implies(a, b))
        s.add(ps[0])
        assert s.check() is Result.SAT
        assert all(s.model().bool_value(f"p{i}") for i in range(6))

    def test_incremental_blocking_enumerates_models(self):
        s = Solver()
        p, q = Bool("p"), Bool("q")
        s.add(Or(p, q))
        count = 0
        while s.check() is Result.SAT:
            m = s.model()
            count += 1
            s.add(
                Or(
                    p if not m.bool_value("p") else Not(p),
                    q if not m.bool_value("q") else Not(q),
                )
            )
        assert count == 3


class TestIntegerLayer:
    def test_chain_of_strict_inequalities(self):
        s = Solver()
        xs = [f"x{i}" for i in range(5)]
        for a, b in zip(xs, xs[1:]):
            s.add(OneSidedLt(a, b))
        assert s.check() is Result.SAT
        m = s.model()
        values = [m.int_value(x) for x in xs]
        assert values == sorted(values)
        assert len(set(values)) == 5

    def test_cycle_unsat(self):
        s = Solver()
        s.add(OneSidedLt("x", "y"), OneSidedLt("y", "z"), OneSidedLt("z", "x"))
        assert s.check() is Result.UNSAT

    def test_forced_one_sided_cycle_unsat(self):
        """A cycle forced through Boolean guards is a theory conflict."""
        s = Solver()
        p, q = Bool("p"), Bool("q")
        s.add(Or(p, q))
        s.add(Implies(p, OneSidedLt("x", "y")))
        s.add(Implies(q, OneSidedLt("x", "y")))
        s.add(OneSidedLt("y", "z"), OneSidedLt("z", "x"))
        assert s.check() is Result.UNSAT

    def test_false_one_sided_literal_imposes_no_order(self):
        """``not (x < y)`` does not assert ``y <= x``, so it coexists with
        an order that puts x below y; a two-sided atom would be UNSAT here."""
        s = Solver()
        s.add(Not(OneSidedLt("x", "y")))
        s.add(OneSidedLt("x", "z"), OneSidedLt("z", "y"))
        assert s.check() is Result.SAT
        m = s.model()
        assert m.int_value("x") < m.int_value("z") < m.int_value("y")

    def test_conditional_ordering(self):
        s = Solver()
        p = Bool("p")
        s.add(
            Implies(p, OneSidedLt("x", "y")),
            Implies(Not(p), OneSidedLt("y", "x")),
            OneSidedLt("x", "y"),
        )
        assert s.check() is Result.SAT
        assert s.model().bool_value("p") is True

    def test_boolean_choice_of_cycle(self):
        """Solver must flip the boolean to avoid the theory conflict."""
        s = Solver()
        p = Bool("p")
        s.add(Or(Not(p), OneSidedLt("x", "y")))
        s.add(Or(Not(p), OneSidedLt("y", "x")))
        s.add(Or(p, OneSidedLt("x", "y")))
        assert s.check() is Result.SAT
        m = s.model()
        assert m.bool_value("p") is False
        assert m.int_value("x") < m.int_value("y")

    def test_evaluate_reads_a_compiled_atom_from_its_literal(self):
        """A one-sided atom the model assigns false evaluates false, even
        where the integer values happen to order it true; an atom never
        compiled reads the integer values."""
        s = Solver()
        p = Bool("p")
        lt = OneSidedLt("x", "y")
        asserted = [
            Implies(p, lt), Not(lt), OneSidedLt("x", "z"), OneSidedLt("z", "y")
        ]
        s.add(*asserted)
        assert s.check() is Result.SAT
        m = s.model()
        assert m.int_value("x") < m.int_value("y")
        assert m.bool_value("p") is False
        for e in asserted:
            assert m.evaluate(e) is True, f"model falsifies {e!r}"
        assert m.evaluate(lt) is False
        assert m.evaluate(OneSidedLt("y", "x")) is False  # never compiled


class TestEnumLayer:
    def test_exactly_one_enforced(self):
        sort = EnumSort("writer", ["t0", "t1", "t2"])
        v = EnumVar("choice", sort)
        s = Solver()
        s.add(Or(v.eq("t0"), v.eq("t1"), v.eq("t2")))
        assert s.check() is Result.SAT
        value = s.model().enum_value(v)
        assert value in ("t0", "t1", "t2")

    def test_forced_value(self):
        sort = EnumSort("writer", ["t0", "t1", "t2"])
        v = EnumVar("choice", sort)
        s = Solver()
        s.add(v.ne("t0"), v.ne("t2"))
        assert s.check() is Result.SAT
        assert s.model().enum_value(v) == "t1"

    def test_all_excluded_unsat(self):
        sort = EnumSort("writer", ["t0", "t1"])
        v = EnumVar("choice", sort)
        s = Solver()
        s.add(v.ne("t0"), v.ne("t1"))
        assert s.check() is Result.UNSAT

    def test_restricted_candidates(self):
        sort = EnumSort("writer", ["t0", "t1", "t2"])
        v = EnumVar("choice", sort, candidates=["t1"])
        s = Solver()
        s.add(v.eq("t1"))
        assert s.check() is Result.SAT
        assert s.model().enum_value(v) == "t1"

    def test_two_vars_different_values(self):
        sort = EnumSort("writer", ["a", "b"])
        u = EnumVar("u", sort)
        v = EnumVar("v", sort)
        s = Solver()
        s.add(Or(And(u.eq("a"), v.eq("b")), And(u.eq("b"), v.eq("a"))))
        assert s.check() is Result.SAT
        m = s.model()
        assert m.enum_value(u) != m.enum_value(v)


class TestMixed:
    def test_enum_selects_order(self):
        """Enum choice drives order atoms, like phi_choice."""
        sort = EnumSort("writer", ["w1", "w2"])
        v = EnumVar("choice", sort)
        s = Solver()
        s.add(Implies(v.eq("w1"), OneSidedLt("x", "y")))
        s.add(Implies(v.eq("w2"), OneSidedLt("y", "x")))
        s.add(OneSidedLt("x", "y"))
        assert s.check() is Result.SAT
        assert s.model().enum_value(v) == "w1"

    def test_model_evaluates_assertions(self):
        s = Solver()
        p, q = Bool("p"), Bool("q")
        sort = EnumSort("k", ["u", "v", "w"])
        e = EnumVar("e", sort)
        assertions = [
            Or(p, q),
            Implies(p, OneSidedLt("x", "y")),
            Implies(q, OneSidedLt("y", "z")),
            Or(e.eq("u"), e.eq("w")),
            Implies(e.eq("u"), Not(p)),
        ]
        for a in assertions:
            s.add(a)
        assert s.check() is Result.SAT
        m = s.model()
        for a in assertions:
            assert m.evaluate(a), f"model does not satisfy {a!r}"


@st.composite
def mixed_problem(draw):
    """Random guarded one-sided order atoms: ``guard => i_a < i_b``."""
    n_bool = draw(st.integers(min_value=1, max_value=3))
    n_int = draw(st.integers(min_value=2, max_value=4))
    n_constraints = draw(st.integers(min_value=1, max_value=10))
    constraints = []
    for _ in range(n_constraints):
        guard_var = draw(st.integers(min_value=0, max_value=n_bool - 1))
        guard_pos = draw(st.booleans())
        a = draw(st.integers(min_value=0, max_value=n_int - 1))
        b = draw(st.integers(min_value=0, max_value=n_int - 1))
        if a == b:
            b = (b + 1) % n_int
        constraints.append((guard_var, guard_pos, a, b))
    return n_bool, n_int, constraints


class TestPropertyMixed:
    @staticmethod
    def _oracle(n_bool, n_int, constraints) -> bool:
        """Brute force over guards; required strict orders must be acyclic."""
        import itertools

        for bits in itertools.product([False, True], repeat=n_bool):
            required = [
                (a, b)
                for (g, pos, a, b) in constraints
                if (bits[g] if pos else not bits[g])
            ]
            # i_a < i_b constraints satisfiable iff the order graph is acyclic
            graph = {i: set() for i in range(n_int)}
            for (a, b) in required:
                graph[a].add(b)
            visited, stack = set(), set()

            def cyclic(node):
                if node in stack:
                    return True
                if node in visited:
                    return False
                visited.add(node)
                stack.add(node)
                if any(cyclic(m) for m in graph[node]):
                    return True
                stack.discard(node)
                return False

            if not any(cyclic(i) for i in range(n_int)):
                return True
        return False

    @given(mixed_problem())
    @settings(max_examples=100, deadline=None)
    def test_sat_agrees_with_oracle_and_models_satisfy(self, problem):
        n_bool, n_int, constraints = problem
        s = Solver()
        exprs = []
        for (g, pos, a, b) in constraints:
            guard = Bool(f"g{g}") if pos else Not(Bool(f"g{g}"))
            atom = OneSidedLt(f"i{a}", f"i{b}")
            exprs.append(Or(Not(guard), atom))
            s.add(exprs[-1])
        result = s.check()
        expected = self._oracle(n_bool, n_int, constraints)
        assert (result is Result.SAT) == expected
        if result is Result.SAT:
            m = s.model()
            for e in exprs:
                assert m.evaluate(e)


class TestInstrumentationSeam:
    def test_search_core_imports_no_instrumentation(self):
        """Spans and fault points live at ``Solver.check``: the CDCL core
        and the difference-logic theory import neither ``repro.obs`` nor
        ``repro.faults``, so no instrumentation call can reach the
        propagation or repair loops."""
        from pathlib import Path

        import repro.smt
        from tests.isolation.test_property import imported_modules

        package = Path(repro.smt.__file__).parent
        for name in ("sat.py", "difference.py"):
            for module in imported_modules(package / name, "repro.smt"):
                assert module.split(".")[:2] not in (
                    ["repro", "obs"],
                    ["repro", "faults"],
                ), f"{name} imports {module}"
