"""IsoPredict.predict_many: k-prediction enumeration on one solver."""
import pytest

from repro.bench_apps import ALL_APPS, WorkloadConfig, record_observed
from repro.isolation import IsolationLevel, is_serializable
from repro.predict import IsoPredict, PredictionStrategy
from repro.smt import Result

SMALLBANK = {a.name: a for a in ALL_APPS}["smallbank"]


def _observed(seed):
    return record_observed(SMALLBANK(WorkloadConfig.tiny()), seed).history


def _reads(history):
    return tuple(
        sorted(
            (t.tid, r.key, r.writer)
            for t in history.transactions()
            for r in t.reads
        )
    )


def _fingerprint(prediction):
    """Identity of a prediction: read→writer choices plus boundaries.

    This is the space the blocking clause ranges over — two predictions
    may decode to the same visible reads yet truncate sessions at
    different boundaries.
    """
    return (
        _reads(prediction.predicted),
        tuple(sorted(prediction.boundaries.items())),
    )


@pytest.fixture(scope="module")
def sat_history():
    return _observed(2)  # tiny smallbank seed 2 admits >= 3 predictions


def test_enumerates_distinct_unserializable_predictions(sat_history):
    analyzer = IsoPredict(
        IsolationLevel.CAUSAL,
        PredictionStrategy.APPROX_RELAXED,
        max_seconds=30.0,
    )
    batch = analyzer.predict_many(sat_history, k=3)
    assert batch.found and len(batch) == 3
    assert batch.status is Result.SAT
    fingerprints = {_fingerprint(p) for p in batch}
    assert len(fingerprints) == 3  # pairwise distinct
    for prediction in batch:
        assert not is_serializable(prediction.predicted)
        assert prediction.cycle  # each carries its pco witness


def test_one_encoding_for_the_whole_batch(sat_history):
    analyzer = IsoPredict(
        IsolationLevel.CAUSAL,
        PredictionStrategy.APPROX_RELAXED,
        max_seconds=30.0,
    )
    single = analyzer.predict(sat_history)
    batch = analyzer.predict_many(sat_history, k=3)
    # the blocking clauses are tiny next to the base encoding: enumerating
    # three predictions must cost nowhere near three encodings
    assert batch.stats["literals"] < 1.2 * single.stats["literals"]
    # candidates count every CEGIS candidate checked: the three predictions
    # and one pco-acyclic candidate the walk refined away
    assert batch.stats["predictions"] == 3
    assert batch.stats["candidates"] == 4


def test_exhaustion_reports_unsat_with_partial_results():
    analyzer = IsoPredict(
        IsolationLevel.CAUSAL,
        PredictionStrategy.APPROX_RELAXED,
        max_seconds=30.0,
    )
    batch = analyzer.predict_many(_observed(3), k=50)
    # tiny smallbank seed 3 has exactly 2 approx predictions
    assert len(batch) == 2
    assert batch.status is Result.UNSAT  # space exhausted before k


def test_unsat_history_yields_empty_batch():
    analyzer = IsoPredict(
        IsolationLevel.CAUSAL,
        PredictionStrategy.APPROX_RELAXED,
        max_seconds=30.0,
    )
    batch = analyzer.predict_many(_observed(0), k=4)
    assert not batch
    assert len(batch) == 0 and batch.best is None
    assert batch.status is Result.UNSAT


@pytest.mark.parametrize(
    "isolation", [IsolationLevel.CAUSAL, IsolationLevel.READ_COMMITTED],
    ids=str,
)
@pytest.mark.parametrize(
    "strategy",
    ["exact-strict", "exact-relaxed", "approx-strict", "approx-relaxed"],
)
def test_k1_equals_predict(sat_history, isolation, strategy):
    analyzer = IsoPredict(
        isolation, PredictionStrategy.parse(strategy), max_seconds=30.0
    )
    single = analyzer.predict(sat_history)
    best = analyzer.predict_many(sat_history, k=1).primary
    assert best.status is single.status
    assert best.boundaries == single.boundaries
    if single.found:
        assert _fingerprint(best) == _fingerprint(single)


def test_primary_carries_batch_totals(sat_history):
    analyzer = IsoPredict(
        IsolationLevel.CAUSAL,
        PredictionStrategy.APPROX_RELAXED,
        max_seconds=30.0,
    )
    batch = analyzer.predict_many(sat_history, k=3)
    primary = batch.primary
    # the best prediction, with the enumeration totals winning over its
    # find-time snapshot (the second candidate: the first was pco-acyclic)
    assert batch.best.stats["candidates"] == 2
    assert primary.predicted is batch.best.predicted
    assert primary.boundaries == batch.best.boundaries
    assert primary.stats["candidates"] == batch.stats["candidates"] == 4
    assert primary.stats["literals"] == batch.stats["literals"]
    assert batch.best.stats == {"candidates": 2}  # left untouched


def test_primary_of_empty_batch_reports_status_and_stats():
    analyzer = IsoPredict(
        IsolationLevel.CAUSAL,
        PredictionStrategy.APPROX_RELAXED,
        max_seconds=30.0,
    )
    batch = analyzer.predict_many(_observed(0), k=2)
    primary = batch.primary
    assert not primary.found and primary.predicted is None
    assert primary.status is Result.UNSAT
    assert primary.isolation is IsolationLevel.CAUSAL
    assert primary.strategy is PredictionStrategy.APPROX_RELAXED
    assert primary.stats == batch.stats
    assert primary.stats is not batch.stats  # a copy, not an alias


def test_predict_reports_single_prediction_enumeration_totals(sat_history):
    analyzer = IsoPredict(
        IsolationLevel.CAUSAL,
        PredictionStrategy.APPROX_RELAXED,
        max_seconds=30.0,
    )
    single = analyzer.predict(sat_history)
    batch = analyzer.predict_many(sat_history, k=1)
    for key in ("literals", "clauses", "vars", "candidates", "predictions",
                "conflicts", "decisions"):
        assert single.stats[key] == batch.stats[key], key
    assert single.stats["predictions"] == 1


def test_enumeration_released_flag_lifecycle(sat_history):
    analyzer = IsoPredict(
        IsolationLevel.CAUSAL,
        PredictionStrategy.APPROX_RELAXED,
        max_seconds=30.0,
    )
    enum = analyzer.enumerator(sat_history)
    assert enum.released is False
    enum.ensure(1)
    assert enum.released is False
    enum.release()
    assert enum.released is True
    enum.ensure(1)  # already found: served without a solver
    with pytest.raises(RuntimeError):
        enum.ensure(2)


def test_exact_strategy_enumeration(sat_history):
    # tiny smallbank admits no predictions under causal+strict, so use rc
    # (the Table 5 configuration) where the strict boundary is satisfiable
    analyzer = IsoPredict(
        IsolationLevel.READ_COMMITTED,
        PredictionStrategy.EXACT_STRICT,
        max_seconds=30.0,
    )
    batch = analyzer.predict_many(sat_history, k=2)
    assert len(batch) == 2
    assert batch.status is Result.SAT
    for prediction in batch:
        assert not is_serializable(prediction.predicted)
    assert len({_fingerprint(p) for p in batch}) == 2


def test_k_must_be_positive(sat_history):
    analyzer = IsoPredict(
        IsolationLevel.CAUSAL, PredictionStrategy.APPROX_RELAXED
    )
    with pytest.raises(ValueError):
        analyzer.predict_many(sat_history, k=0)


def test_enumeration_resumes_past_candidate_cap():
    """A serializable candidate at the cap must be excluded, not re-served.

    A single-session history is serializable under every writer choice, so
    the exact strategy's CEGIS walk rejects every candidate; with
    max_candidates=1 each ensure() call gives up after one rejection.
    Repeated calls must drain the finite candidate space (each call's
    witness-order refinement excludes its rejected model) instead of
    re-receiving the same model forever.
    """
    from repro.history import HistoryBuilder
    from repro.predict.strategies import BoundaryMode, EncodingMode

    b = HistoryBuilder(initial={"x": 0})
    b.txn("t1", "s1").write("x", 1)
    b.txn("t2", "s1").read("x", writer="t1").write("x", 2)
    b.txn("t3", "s1").read("x", writer="t2")
    history = b.build()

    analyzer = IsoPredict(
        IsolationLevel.CAUSAL,
        PredictionStrategy(EncodingMode.EXACT, BoundaryMode.RELAXED),
        max_seconds=30.0,
        max_candidates=1,
    )
    enum = analyzer.enumerator(history)
    for _ in range(50):
        enum.ensure(1)
        if enum.batch(1).status is Result.UNSAT:
            break
    else:
        raise AssertionError("enumeration never drained: cap not resumable")
    assert not enum.predictions  # single-session: nothing unserializable


@pytest.mark.parametrize(
    "level, verdict", [("rc", Result.SAT), ("causal", Result.UNSAT)]
)
def test_candidate_budget_bounds_exact_walks_only(level, verdict):
    """An approximate verdict does not depend on ``max_candidates``.

    tpcc tiny seed 2 rejects at least three candidates under approx-strict
    before it is decided (SAT under rc, UNSAT under causal). With one
    candidate allowed, the approximate walk still reaches that verdict in
    one ``ensure`` call, while the exact walk stops with UNKNOWN.
    """
    tpcc = {a.name: a for a in ALL_APPS}["tpcc"]
    history = record_observed(tpcc(WorkloadConfig.tiny()), 2).history

    def batch(strategy, max_candidates):
        return IsoPredict(
            IsolationLevel.parse(level),
            PredictionStrategy.parse(strategy),
            max_candidates=max_candidates,
        ).predict_many(history, k=1)

    unbounded = batch("approx-strict", 10**6)
    assert unbounded.status is verdict
    assert unbounded.stats["candidates"] >= 4
    capped = batch("approx-strict", 1)
    assert capped.status is verdict
    assert capped.stats["candidates"] == unbounded.stats["candidates"]
    assert batch("exact-strict", 1).status is Result.UNKNOWN
