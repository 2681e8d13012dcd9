"""Relation computation tests: so, wr, hb, closures, topological order."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.history import (
    HistoryBuilder,
    hb_pairs,
    is_acyclic,
    so_pairs,
    topological_order,
    transitive_closure,
    wr_pairs,
)
from repro.history.relations import find_cycle, wr_k_pairs


def chain_history():
    b = HistoryBuilder(initial={"x": 0})
    b.txn("t1", "s1").write("x", 1)
    b.txn("t2", "s1").write("x", 2)
    b.txn("t3", "s2").read("x", writer="t2", value=2)
    return b.build()


class TestSessionOrder:
    def test_same_session_ordered(self):
        h = chain_history()
        so = so_pairs(h)
        assert ("t1", "t2") in so
        assert ("t2", "t1") not in so

    def test_t0_before_everything(self):
        h = chain_history()
        so = so_pairs(h)
        for tid in ("t1", "t2", "t3"):
            assert ("t0", tid) in so

    def test_cross_session_unordered(self):
        h = chain_history()
        so = so_pairs(h)
        assert ("t1", "t3") not in so
        assert ("t3", "t1") not in so


class TestWriteRead:
    def test_wr_pairs(self):
        h = chain_history()
        assert ("t2", "t3") in wr_pairs(h)

    def test_wr_k_pairs(self):
        h = chain_history()
        by_key = wr_k_pairs(h)
        assert by_key == {"x": frozenset({("t2", "t3")})}


class TestHappensBefore:
    def test_hb_includes_so_and_wr(self):
        h = chain_history()
        hb = hb_pairs(h)
        assert ("t1", "t2") in hb
        assert ("t2", "t3") in hb

    def test_hb_transitive(self):
        h = chain_history()
        hb = hb_pairs(h)
        assert ("t1", "t3") in hb  # t1 -so-> t2 -wr-> t3


class TestClosureUtilities:
    def test_transitive_closure_simple(self):
        closed = transitive_closure([("a", "b"), ("b", "c")])
        assert ("a", "c") in closed

    def test_closure_detects_cycle_as_reflexive_pair(self):
        closed = transitive_closure([("a", "b"), ("b", "a")])
        assert ("a", "a") in closed

    def test_is_acyclic(self):
        assert is_acyclic([("a", "b"), ("b", "c")])
        assert not is_acyclic([("a", "b"), ("b", "a")])
        assert not is_acyclic([("a", "a")])
        assert find_cycle([("b", "b")], nodes=["a", "b"]) == ["b", "b"]
        # the walk starts where the cycle does, not at the acyclic prefix
        behind = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")]
        assert not is_acyclic(behind)
        assert find_cycle(behind) == ["b", "c", "d", "b"]

    def test_empty_relation_acyclic(self):
        assert is_acyclic([])

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=15,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_closure_is_idempotent_and_transitive(self, pairs):
        pairs = [(a, b) for a, b in pairs if a != b]
        closed = transitive_closure(pairs)
        assert transitive_closure(closed) == closed
        for (a, b) in closed:
            for (c, d) in closed:
                if b == c:
                    assert (a, d) in closed


class TestTopologicalOrder:
    def test_respects_pairs(self):
        order = topological_order(
            ["a", "b", "c"], [("a", "b"), ("b", "c")]
        )
        assert order == ["a", "b", "c"]

    def test_cycle_raises(self):
        with pytest.raises(ValueError, match="cyclic"):
            topological_order(["a", "b"], [("a", "b"), ("b", "a")])

    def test_deterministic(self):
        nodes = ["d", "b", "a", "c"]
        assert topological_order(nodes, []) == topological_order(nodes, [])

    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=10,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_order_linearizes_acyclic_relations(self, n, pairs):
        nodes = list(range(n))
        pairs = [(a, b) for a, b in pairs if a < b and b < n]
        order = topological_order(nodes, pairs)
        pos = {v: i for i, v in enumerate(order)}
        assert sorted(order) == nodes
        for (a, b) in pairs:
            assert pos[a] < pos[b]
