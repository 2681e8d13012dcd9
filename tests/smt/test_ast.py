"""Unit tests for the expression AST: folding, interning, atoms."""
from repro.smt import (
    And,
    Bool,
    BoolVal,
    Distinct,
    EnumSort,
    EnumVar,
    FALSE,
    Iff,
    Implies,
    Int,
    Not,
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

    def test_bool_val(self):
        assert BoolVal(True) is TRUE
        assert BoolVal(False) is FALSE


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

    def test_iff_constants(self):
        p = Bool("p")
        assert Iff(p, TRUE) is p
        assert Iff(p, FALSE) is Not(p)
        assert Iff(p, p) is TRUE


class TestIntTerms:
    def test_lt_builds_le_atom(self):
        x, y = Int("x"), Int("y")
        atom = x < y
        assert atom.kind == "le"
        assert atom.args == ("x", "y", -1)

    def test_le_with_offset(self):
        x, y = Int("x"), Int("y")
        atom = x <= y + 3
        assert atom.args == ("x", "y", 3)

    def test_gt_swaps(self):
        x, y = Int("x"), Int("y")
        assert (x > y) is (y < x)

    def test_compare_to_constant(self):
        x = Int("x")
        atom = x <= 5
        assert atom.kind == "le"
        assert atom.args[1] == "$zero"

    def test_reflexive_comparison_folds(self):
        x = Int("x")
        assert (x <= x + 1) is TRUE
        assert (x < x) is FALSE

    def test_zero_name_reserved(self):
        with pytest.raises(SortError):
            Int("$zero")

    def test_distinct_two(self):
        x, y = Int("x"), Int("y")
        d = Distinct([x, y])
        assert d is Or(x < y, y < x)

    def test_distinct_empty_and_single(self):
        assert Distinct([]) is TRUE
        assert Distinct([Int("x")]) is TRUE


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


class TestOperatorSugar:
    def test_invert_and_or(self):
        p, q = Bool("p"), Bool("q")
        assert (~p) is Not(p)
        assert (p & q) is And(p, q)
        assert (p | q) is Or(p, q)

    def test_and_rejects_non_expr(self):
        with pytest.raises(SortError):
            And(Bool("p"), "q")  # type: ignore[arg-type]
