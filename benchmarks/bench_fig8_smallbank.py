"""Figure 8: the Smallbank write-skew prediction and its pco cycle.

Both repointed reads live in read-only transactions, so even the strict
boundary keeps the full cycle t1 < t3 < t2 < t4 < t1 (two so edges, the
rw_y edge t3->t2 and the rw_x edge t4->t1).
"""
from repro import gallery
from repro.isolation import IsolationLevel, pco_unserializable
from repro.isolation.axioms import pco_cycle, pco_edges
from repro.predict import IsoPredict, PredictionStrategy
from repro.viz import history_to_dot


def predict_strict():
    return IsoPredict(
        IsolationLevel.CAUSAL, PredictionStrategy.APPROX_STRICT
    ).predict(gallery.fig8a_smallbank_observed())


def test_fig8_prediction_under_strict(benchmark, capsys):
    result = benchmark.pedantic(predict_strict, rounds=1, iterations=1)
    assert result.found
    with capsys.disabled():
        print("\n[fig8b] predicted execution:")
        print(history_to_dot(result.predicted, include_pco=True))


def test_fig8_cycle_matches_paper(capsys):
    """The paper reports the cycle t1 < t3 < t2 < t4 < t1."""
    predicted = gallery.fig8b_smallbank_predicted()
    assert pco_unserializable(predicted)
    assert pco_cycle(predicted) == ["t1", "t3", "t2", "t4", "t1"]
    edges = pco_edges(predicted)
    assert ("t3", "t2") in edges["rw"]
    assert ("t4", "t1") in edges["rw"]
    with capsys.disabled():
        print("\n[fig8b] pco cycle t1 < t3 < t2 < t4 < t1 via rw edges "
              f"{sorted(edges['rw'])}")
