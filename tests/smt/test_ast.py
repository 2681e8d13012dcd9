"""Unit tests for the expression AST: folding, structural equality, atoms."""
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


def assert_same(a, b):
    """Structurally equal terms compare equal and hash alike."""
    assert a == b
    assert hash(a) == hash(b)


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
        assert_same(And(p, q, p), And(p, q))
        assert And(p, q, p).args == (p, q)

    def test_flattening(self):
        p, q, r = Bool("p"), Bool("q"), Bool("r")
        assert_same(And(And(p, q), r), And(p, q, r))
        assert_same(Or(Or(p, q), r), Or(p, q, r))


class TestStructuralEquality:
    def test_same_structure_is_equal(self):
        p, q = Bool("p"), Bool("q")
        assert_same(And(p, q), And(p, q))
        assert_same(Or(p, q), Or(p, q))
        assert And(p, q) != Or(p, q)
        assert And(p, q) != And(q, p)

    def test_terms_are_not_interned(self):
        # equal terms built twice are two objects: nothing outlives the
        # encoding that built it
        assert Bool("zzz") is not Bool("zzz")
        assert And(Bool("p"), Bool("q")) is not And(Bool("p"), Bool("q"))

    def test_var_equal_by_name(self):
        assert_same(Bool("zzz"), Bool("zzz"))
        assert Bool("zzz") != Bool("zz")

    def test_implies_expands(self):
        p, q = Bool("p"), Bool("q")
        assert_same(Implies(p, q), Or(Not(p), q))

    def test_dedup_and_complements_across_copies(self):
        # separately built copies dedupe and fold like one object would
        p = Bool("p")
        assert And(p, Bool("p")) == p
        assert And(Bool("p"), Bool("q"), Bool("p")).args == (p, Bool("q"))
        assert And(p, Not(Bool("p"))) is FALSE
        assert And(Not(Bool("p")), p) is FALSE
        assert Or(Bool("q"), p, Not(Bool("p"))) is TRUE
        assert And(Bool("q"), Not(Bool("p")), Bool("p")) is FALSE
        assert_same(Not(Not(Bool("p"))), p)


class TestOrderAtoms:
    def test_one_sided_lt_builds_lt_atom(self):
        atom = OneSidedLt("x", "y")
        assert atom.kind == "lt"
        assert atom.args == ("x", "y")
        assert repr(atom) == "(x < y)"

    def test_one_sided_lt_is_structural_and_directed(self):
        assert_same(OneSidedLt("x", "y"), OneSidedLt("x", "y"))
        assert OneSidedLt("x", "y") != OneSidedLt("y", "x")

    def test_reflexive_comparison_folds(self):
        assert OneSidedLt("x", "x") is FALSE


class TestEnums:
    def test_eq_atom(self):
        sort = EnumSort("color", ["r", "g", "b"])
        v = EnumVar("c", sort)
        assert_same(v.eq("r"), v.eq("r"))
        assert v.eq("r") != v.eq("g")

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
        assert_same(v.ne("r"), Not(v.eq("r")))


class TestSortChecks:
    def test_and_rejects_non_expr(self):
        with pytest.raises(SortError):
            And(Bool("p"), "q")  # type: ignore[arg-type]
