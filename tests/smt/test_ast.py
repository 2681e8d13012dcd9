"""Unit tests for the expression AST: folding, interning, atoms."""
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
    SortError,
    TRUE,
)
import pytest


class TestConstantFolding:
    def test_and_empty_is_true(self):
        assert And() is TRUE

    def test_or_empty_is_false(self):
        assert Or() is FALSE

    def test_and_false_annihilates(self):
        p = Bool("p")
        assert And(p, FALSE) is FALSE

    def test_or_true_annihilates(self):
        p = Bool("p")
        assert Or(p, TRUE) is TRUE

    def test_and_true_identity(self):
        p = Bool("p")
        assert And(p, TRUE) is p

    def test_or_false_identity(self):
        p = Bool("p")
        assert Or(p, FALSE) is p

    def test_double_negation(self):
        p = Bool("p")
        assert Not(Not(p)) is p

    def test_not_constants(self):
        assert Not(TRUE) is FALSE
        assert Not(FALSE) is TRUE

    def test_complementary_and(self):
        p = Bool("p")
        assert And(p, Not(p)) is FALSE

    def test_complementary_or(self):
        p = Bool("p")
        assert Or(p, Not(p)) is TRUE

    def test_dedup(self):
        p, q = Bool("p"), Bool("q")
        assert And(p, q, p) is And(p, q)

    def test_flattening(self):
        p, q, r = Bool("p"), Bool("q"), Bool("r")
        assert And(And(p, q), r) is And(p, q, r)
        assert Or(Or(p, q), r) is Or(p, q, r)


class TestInterning:
    def test_same_structure_same_object(self):
        p, q = Bool("p"), Bool("q")
        assert And(p, q) is And(p, q)
        assert Or(p, q) is Or(p, q)

    def test_var_interned_by_name(self):
        assert Bool("zzz") is Bool("zzz")

    def test_implies_expands(self):
        p, q = Bool("p"), Bool("q")
        assert Implies(p, q) is Or(Not(p), q)


class TestOrderAtoms:
    def test_one_sided_lt_builds_lt_atom(self):
        atom = OneSidedLt("x", "y")
        assert atom.kind == "lt"
        assert atom.args == ("x", "y")
        assert repr(atom) == "(x < y)"

    def test_one_sided_lt_is_interned_and_directed(self):
        assert OneSidedLt("x", "y") is OneSidedLt("x", "y")
        assert OneSidedLt("x", "y") is not OneSidedLt("y", "x")

    def test_reflexive_comparison_folds(self):
        assert OneSidedLt("x", "x") is FALSE


class TestEnums:
    def test_eq_atom(self):
        sort = EnumSort("color", ["r", "g", "b"])
        v = EnumVar("c", sort)
        assert v.eq("r") is v.eq("r")
        assert v.eq("r") is not v.eq("g")

    def test_eq_non_candidate_is_false(self):
        sort = EnumSort("color", ["r", "g", "b"])
        v = EnumVar("c", sort, candidates=["r", "g"])
        assert v.eq("b") is FALSE

    def test_eq_sole_candidate_is_true(self):
        sort = EnumSort("color", ["r", "g", "b"])
        v = EnumVar("c", sort, candidates=["g"])
        assert v.eq("g") is TRUE
        assert v.eq("r") is FALSE

    def test_eq_non_member_raises(self):
        sort = EnumSort("color", ["r", "g", "b"])
        v = EnumVar("c", sort)
        with pytest.raises(SortError):
            v.eq("purple")

    def test_duplicate_sort_values_raise(self):
        with pytest.raises(SortError):
            EnumSort("bad", ["x", "x"])

    def test_empty_domain_raises(self):
        sort = EnumSort("color", ["r"])
        with pytest.raises(SortError):
            EnumVar("c", sort, candidates=[])

    def test_ne(self):
        sort = EnumSort("color", ["r", "g"])
        v = EnumVar("c", sort)
        assert v.ne("r") is Not(v.eq("r"))


class TestSortChecks:
    def test_and_rejects_non_expr(self):
        with pytest.raises(SortError):
            And(Bool("p"), "q")  # type: ignore[arg-type]
