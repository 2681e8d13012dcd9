"""Figure 5: anti-dependency (rw) edges are what make pco cyclic.

The ablation the figure motivates: on the deposit history, the pco least
fixpoint is acyclic without rw edges and cyclic with them. The approximate
strategy checks each candidate with that fixpoint, rw edges included.
"""
from harness import format_table
from repro import gallery
from repro.history.relations import so_pairs, transitive_closure, wr_pairs
from repro.isolation import pco_unserializable
from repro.isolation.axioms import pco_edges, ww_with_support


def fixpoint_without_rw(history):
    nodes = [t.tid for t in history.all_transactions()]
    pco = transitive_closure(
        set(so_pairs(history)) | set(wr_pairs(history)), nodes=nodes
    )
    while True:
        ww = ww_with_support(history, pco)
        new = transitive_closure(set(pco) | set(ww), nodes=nodes)
        if new == pco:
            return pco
        pco = new


def test_fig5_rw_makes_pco_cyclic(benchmark, capsys):
    h = gallery.fig5_history()
    without = benchmark.pedantic(
        fixpoint_without_rw, args=(h,), rounds=1, iterations=1
    )
    acyclic_without = all(a != b for a, b in without)
    cyclic_with = pco_unserializable(h)
    edges = pco_edges(h)
    with capsys.disabled():
        print(
            format_table(
                "Fig. 5: pco cyclicity with/without rw",
                ["variant", "cyclic"],
                [
                    ["so+wr+ww only", str(not acyclic_without)],
                    ["with rw edges", str(cyclic_with)],
                ],
            )
        )
        print(f"rw edges: {sorted(edges['rw'])}")
    assert acyclic_without and cyclic_with

