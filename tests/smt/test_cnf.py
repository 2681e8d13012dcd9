"""Tseitin compiler tests: sharing, enum expansion, literal accounting."""

from repro.smt import (
    And,
    Bool,
    EnumSort,
    EnumVar,
    FALSE,
    Implies,
    Not,
    OneSidedLt,
    Or,
    Result,
    Solver,
    TRUE,
)


def fresh():
    """A solver and its compiler; models are read through ``Solver.model``."""
    s = Solver()
    return s, s._compiler


class TestTopLevelDestructuring:
    def test_top_level_and_asserts_conjuncts(self):
        s, cnf = fresh()
        cnf.assert_expr(And(Bool("a"), Bool("b")))
        assert s.check() is Result.SAT
        m = s.model()
        assert m.bool_value("a") and m.bool_value("b")

    def test_top_level_or_is_one_clause(self):
        s, cnf = fresh()
        before = s.num_clauses
        cnf.assert_expr(Or(Bool("a"), Bool("b"), Bool("c")))
        assert s.num_clauses == before + 1

    def test_true_asserts_nothing(self):
        s, cnf = fresh()
        cnf.assert_expr(TRUE)
        assert s.num_clauses == 0

    def test_false_makes_unsat(self):
        s, cnf = fresh()
        cnf.assert_expr(FALSE)
        assert s.check() is Result.UNSAT


class TestSharing:
    def test_shared_subterm_compiled_once(self):
        s, cnf = fresh()
        shared = And(Bool("a"), Bool("b"))
        cnf.assert_expr(Or(shared, Bool("c")))
        vars_after_first = s.num_vars
        cnf.assert_expr(Or(shared, Bool("d")))
        # the shared conjunction must not allocate a second auxiliary var;
        # only 'd' is new
        assert s.num_vars == vars_after_first + 1

    def test_negation_shares_literal(self):
        s, cnf = fresh()
        a = Bool("a")
        l1 = cnf.literal(a)
        l2 = cnf.literal(Not(a))
        assert l1 == -l2


class TestEnumExpansion:
    def test_exactly_one_clauses_emitted_once(self):
        s, cnf = fresh()
        sort = EnumSort("s", ["a", "b", "c"])
        v = EnumVar("v", sort)
        cnf.assert_expr(Or(v.eq("a"), v.eq("b")))
        clauses_after = s.num_clauses
        cnf.assert_expr(Or(v.ne("c"), Bool("g")))
        # one new clause for the disjunction; no repeated exactly-one set
        assert s.num_clauses == clauses_after + 1
        assert s.check() is Result.SAT
        assert s.model().enum_value(v) in ("a", "b")

    def test_model_assigns_exactly_one(self):
        s, cnf = fresh()
        sort = EnumSort("s", ["a", "b", "c"])
        v = EnumVar("v", sort)
        cnf.assert_expr(v.ne("b"))
        assert s.check() is Result.SAT
        assert s.model().enum_value(v) in ("a", "c")

    def test_unmentioned_enum_defaults(self):
        s, cnf = fresh()
        sort = EnumSort("s", ["a", "b"])
        v = EnumVar("unused", sort)
        assert s.check() is Result.SAT
        assert s.model().enum_value(v) == "a"


class TestLiteralAccounting:
    def test_counter_monotone(self):
        s, cnf = fresh()
        cnf.assert_expr(Or(Bool("a"), Bool("b")))
        first = cnf.num_literals
        cnf.assert_expr(Implies(Bool("c"), And(Bool("a"), Bool("b"))))
        assert cnf.num_literals > first


class TestExprValue:
    def test_compiled_subexpression_value(self):
        s, cnf = fresh()
        conj = And(Bool("a"), Bool("b"))
        # nested (not top-level) so the conjunction gets its own literal
        cnf.assert_expr(Or(conj, Bool("g")))
        cnf.assert_expr(Not(Bool("g")))
        cnf.assert_expr(Bool("a"))
        cnf.assert_expr(Bool("b"))
        assert s.check() is Result.SAT
        assert s.model()._compiled_value(conj) is True

    def test_top_level_and_is_destructured_not_compiled(self):
        s, cnf = fresh()
        conj = And(Bool("a"), Bool("b"))
        cnf.assert_expr(conj)
        assert s.check() is Result.SAT
        m = s.model()
        # destructured: the conjunction itself has no literal of its own
        assert m._compiled_value(conj) is None
        assert m.bool_value("a") and m.bool_value("b")

    def test_uncompiled_returns_none(self):
        s, cnf = fresh()
        assert s.check() is Result.SAT
        assert s.model()._compiled_value(And(Bool("x"), Bool("y"))) is None


class TestOrderAtoms:
    def test_order_atom_registers_a_difference_constraint(self):
        s, cnf = fresh()
        lit = cnf.literal(OneSidedLt("x", "y"))
        theory = s._theory
        x, y = theory.var_id("x"), theory.var_id("y")
        assert theory._atoms[lit] == (x, y, -1)  # x - y <= -1

    def test_order_atom_compiled_once(self):
        s, cnf = fresh()
        atom = OneSidedLt("x", "y")
        assert cnf.literal(atom) == cnf.literal(atom)
        assert cnf.literal(Not(atom)) == -cnf.literal(atom)
