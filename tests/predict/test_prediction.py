"""Predictive-analysis tests over every paper figure plus invariants.

Each SAT prediction is cross-checked with the independent graph-side
oracles: the decoded history must be valid under the target isolation level
and pco-cyclic (hence unserializable).
"""
import pytest

from repro import gallery
from repro.isolation import (
    IsolationLevel,
    is_causal,
    is_read_committed,
    is_serializable,
    pco_unserializable,
)
from repro.history.relations import so_pairs, transitive_closure, wr_pairs
from repro.isolation.axioms import ww_with_support
from repro.predict import IsoPredict, PredictionStrategy, analysis
from repro.smt import Result
from tests.predict.test_encoding_oracle import by_fingerprint, drain

CAUSAL = IsolationLevel.CAUSAL
RC = IsolationLevel.READ_COMMITTED


def predict(observed, level=CAUSAL, strategy=PredictionStrategy.APPROX_RELAXED,
            **kw):
    return IsoPredict(level, strategy, **kw).predict(observed)


def assert_valid_prediction(result, level):
    assert result.found
    predicted = result.predicted
    if level is CAUSAL:
        assert is_causal(predicted)
    assert is_read_committed(predicted)
    assert not is_serializable(predicted)
    assert pco_unserializable(predicted)
    assert result.cycle, "a pco cycle witness must be reported"


class TestDepositExample:
    """§3's running example: Fig. 2a observed, Fig. 3a predicted."""

    def test_relaxed_finds_fig3a(self):
        result = predict(gallery.deposit_observed(), CAUSAL)
        assert_valid_prediction(result, CAUSAL)
        t2 = result.predicted.transaction("t2")
        assert t2.reads[0].writer == "t0"  # both deposits read initial state

    def test_strict_finds_nothing(self):
        """Fig. 9e's effect: truncating after the changed read kills the
        cycle, so the deposit anomaly is beyond the strict boundary."""
        result = predict(
            gallery.deposit_observed(),
            CAUSAL,
            PredictionStrategy.APPROX_STRICT,
        )
        assert result.status is Result.UNSAT

    def test_rc_also_finds_it(self):
        result = predict(gallery.deposit_observed(), RC)
        assert_valid_prediction(result, RC)


class TestFig7Wikipedia:
    def test_7a_has_causal_prediction(self):
        result = predict(gallery.fig7a_wikipedia_observed(), CAUSAL)
        assert_valid_prediction(result, CAUSAL)
        # the prediction repoints t3's read of x to the initial state
        t3 = result.predicted.transaction("t3")
        assert t3.reads[0].writer == "t0"

    def test_7c_has_no_causal_prediction(self):
        result = predict(gallery.fig7c_wikipedia_observed(), CAUSAL)
        assert result.status is Result.UNSAT

    def test_7c_has_rc_prediction(self):
        """Under rc a transaction may read both initial state and the
        writer (§7.2) — the non-causal Fig. 7d shape is rc-legal."""
        result = predict(gallery.fig7c_wikipedia_observed(), RC)
        assert_valid_prediction(result, RC)


class TestFig8Smallbank:
    @pytest.mark.parametrize(
        "strategy",
        [PredictionStrategy.APPROX_STRICT, PredictionStrategy.APPROX_RELAXED],
        ids=str,
    )
    def test_prediction_exists_even_strict(self, strategy):
        """Both changed reads live in read-only transactions, so the strict
        boundary keeps the whole write-skew cycle."""
        result = predict(gallery.fig8a_smallbank_observed(), CAUSAL, strategy)
        assert_valid_prediction(result, CAUSAL)

    def test_cycle_matches_paper(self):
        result = predict(
            gallery.fig8a_smallbank_observed(),
            CAUSAL,
            PredictionStrategy.APPROX_STRICT,
        )
        assert set(result.cycle) >= {"t1", "t2", "t3", "t4"}


class TestFig9Boundary:
    def test_strict_rejects_the_abort_prone_prediction(self):
        result = predict(
            gallery.fig9_observed(), CAUSAL, PredictionStrategy.APPROX_STRICT
        )
        assert result.status is Result.UNSAT

    def test_relaxed_accepts_a_prediction(self):
        """Fig. 9f: the relaxed boundary admits predictions here. The
        solver may return the paper's (withdraw reads the initial state) or
        another satisfying one (e.g. the second deposit bypassing the
        withdraw) — any model must pass the graph oracles."""
        result = predict(
            gallery.fig9_observed(), CAUSAL, PredictionStrategy.APPROX_RELAXED
        )
        assert_valid_prediction(result, CAUSAL)

    def test_paper_fig9c_model_is_admitted(self):
        """The paper's Fig. 9c choices (t2 reads acct from t0) are one of
        the relaxed strategy's predictions, under some boundary."""
        observed = gallery.fig9_observed()
        wanted = {
            (txn.tid, read.pos): read.writer
            for txn in gallery.fig9c_predicted().transactions()
            for read in txn.reads
        }
        assert wanted[("t2", 0)] == "t0"
        predictions = drain(
            observed, CAUSAL, PredictionStrategy.APPROX_RELAXED
        ).predictions
        assert any(
            ("t2", 0, "t0") in reads
            and all(wanted[(tid, pos)] == w for tid, pos, w in reads)
            for reads in (
                {
                    (txn.tid, read.pos, read.writer)
                    for txn in p.predicted.transactions()
                    for read in txn.reads
                }
                for p in predictions
            )
        )


class TestFig10Patterns:
    @pytest.mark.parametrize(
        "name", list(gallery.fig10_patterns()), ids=lambda n: n
    )
    def test_prediction_found(self, name):
        observed, _expected = gallery.fig10_patterns()[name]
        result = predict(observed, CAUSAL)
        assert_valid_prediction(result, CAUSAL)


class TestExactStrategy:
    def test_exact_agrees_with_approx_on_sat(self):
        result = IsoPredict(
            CAUSAL, PredictionStrategy.EXACT_STRICT
        ).predict(gallery.fig8a_smallbank_observed())
        assert_valid_prediction(result, CAUSAL)

    def test_exact_agrees_with_approx_on_unsat(self):
        """§7.2: Exact never found more than Approx in the evaluation; the
        CEGIS walk confirms UNSAT by exhausting candidates."""
        result = IsoPredict(
            CAUSAL,
            PredictionStrategy.EXACT_STRICT,
            max_candidates=200,
        ).predict(gallery.fig7c_wikipedia_observed())
        assert result.status is Result.UNSAT


class TestBoundaries:
    def test_boundary_reported_per_session(self):
        result = predict(gallery.deposit_observed(), CAUSAL)
        assert set(result.boundaries) == {"s1", "s2"}

    def test_predicted_is_prefix_of_observed(self):
        observed = gallery.fig9_observed()
        result = predict(observed, CAUSAL)
        for txn in result.predicted.transactions():
            original = observed.transaction(txn.tid)
            orig_positions = [e.pos for e in original.events]
            for event in txn.events:
                assert event.pos in orig_positions

    def test_pinned_reads_match_observed(self):
        """Reads strictly before the boundary keep their observed writer."""
        observed = gallery.fig8a_smallbank_observed()
        result = predict(observed, CAUSAL, PredictionStrategy.APPROX_STRICT)
        for txn in result.predicted.transactions():
            bound = result.boundaries[txn.session]
            for read in txn.reads:
                if read.pos < bound:
                    original = observed.transaction(txn.tid)
                    obs_read = [
                        r for r in original.reads if r.pos == read.pos
                    ][0]
                    assert read.writer == obs_read.writer


class TestAblations:
    """What rank guards and rw edges did in the encoding, on the graph.

    An approximate prediction is a feasibility+isolation candidate whose
    pco least fixpoint is cyclic. The fixpoint is built bottom-up from
    so ∪ wr, so no edge can justify itself (Fig. 6), and the deposit
    cycle closes only through its rw edges (Fig. 5).
    """

    def test_fig6_self_justification_is_not_a_prediction(self):
        history = gallery.fig6_history()
        assert not pco_unserializable(history)
        assert predict(history).status is Result.UNSAT

    def test_fig5_cycle_needs_rw(self):
        result = predict(gallery.deposit_observed())
        assert_valid_prediction(result, CAUSAL)
        predicted = result.predicted
        nodes = [t.tid for t in predicted.all_transactions()]
        pco = transitive_closure(
            so_pairs(predicted) | wr_pairs(predicted), nodes=nodes
        )
        while True:  # the least fixpoint with ww edges but no rw edges
            grown = transitive_closure(
                pco | ww_with_support(predicted, pco), nodes=nodes
            )
            if grown == pco:
                break
            pco = grown
        assert all(a != b for a, b in pco)

    @pytest.mark.parametrize(
        "make",
        [
            gallery.deposit_observed,
            gallery.fig6_history,
            gallery.fig7a_wikipedia_observed,
            gallery.fig7c_wikipedia_observed,
            gallery.fig8a_smallbank_observed,
            gallery.fig9_observed,
        ],
        ids=lambda make: make.__name__,
    )
    @pytest.mark.parametrize("level", [CAUSAL, RC], ids=str)
    @pytest.mark.parametrize("boundary", ["strict", "relaxed"])
    def test_approx_predictions_are_the_pco_cyclic_exact_ones(
        self, make, level, boundary
    ):
        """approx-X predicts ⇔ exact-X predicts and the pco is cyclic."""
        observed = make()
        approx = by_fingerprint(drain(observed, level, f"approx-{boundary}"))
        exact = by_fingerprint(drain(observed, level, f"exact-{boundary}"))
        for prediction in approx.values():
            assert prediction.cycle
            assert pco_unserializable(prediction.predicted)
        assert set(approx) == {
            fingerprint
            for fingerprint, prediction in exact.items()
            if pco_unserializable(prediction.predicted)
        }


class TestApproxCheck:
    def test_acyclic_unserializable_candidate_is_blocked(self, monkeypatch):
        """A candidate the approximation cannot see as unserializable is
        no prediction; it is excluded alone, so the walk still ends.

        No small history is known to be isolation-valid, unserializable
        and pco-acyclic, so ``pco_cycle`` is stubbed to find no cycle:
        every unserializable candidate then falls in that gap.
        """
        observed = gallery.deposit_observed()
        exact = drain(observed, CAUSAL, "exact-relaxed").predictions
        assert exact
        monkeypatch.setattr(analysis, "pco_cycle", lambda history: [])
        enum = IsoPredict(CAUSAL, PredictionStrategy.APPROX_RELAXED)
        enum = enum.enumerator(observed)
        while True:
            enum.ensure(4096)
            if enum.batch().status is Result.UNSAT:
                break
        assert not enum.predictions
        assert enum.stats["candidates"] >= len(exact)

    def test_batch_is_sat_only_with_k_of_its_own(self, monkeypatch):
        """An exact walk that stops at a pco-acyclic prediction leaves the
        approximate count open: that batch is no SAT with nothing in it."""
        monkeypatch.setattr(analysis, "pco_cycle", lambda history: [])
        exact = PredictionStrategy.parse("exact-relaxed")
        approx = PredictionStrategy.APPROX_RELAXED
        enum = IsoPredict(CAUSAL, approx).enumerator(
            gallery.deposit_observed()
        )
        enum.ensure(1, strategy=exact)
        assert enum.batch(1, exact).status is Result.SAT
        assert not enum.predictions
        for k in (1, None):
            batch = enum.batch(k, approx)
            assert batch.status is Result.UNKNOWN
            assert not batch.predictions and batch.strategy is approx


class TestReport:
    def test_report_mentions_outcome_and_cycle(self):
        observed = gallery.deposit_observed()
        result = predict(observed, CAUSAL)
        text = result.report(observed)
        assert "sat" in text
        assert "pco cycle" in text
        assert "changed: t" in text  # the repointed read appears

    def test_unsat_report_is_short(self):
        result = predict(
            gallery.deposit_observed(), CAUSAL,
            PredictionStrategy.APPROX_STRICT,
        )
        text = result.report()
        assert "unsat" in text
        assert "cycle" not in text


def canon(history):
    """Structural image of a history (History compares by identity)."""
    return tuple(
        (t.tid, t.session, t.commit_pos, tuple(t.events))
        for t in history.all_transactions()
    )


DETERMINISM_GALLERY = {
    "deposit-observed": gallery.deposit_observed,
    "deposit-unserializable": gallery.deposit_unserializable,
    "fig7a-wikipedia": gallery.fig7a_wikipedia_observed,
    "fig8a-smallbank": gallery.fig8a_smallbank_observed,
}


class TestDeterministicModels:
    """The solver is reproducible down to the model.

    Campaign resume, fleet merging and the BENCH counters all assume two
    fresh analyses of one history decode the same prediction.
    """

    @pytest.mark.parametrize(
        "name", sorted(DETERMINISM_GALLERY), ids=sorted(DETERMINISM_GALLERY)
    )
    def test_fresh_analyses_decode_identical_predictions(self, name):
        def run():
            return IsoPredict(
                CAUSAL,
                PredictionStrategy.APPROX_STRICT,
                max_candidates=8,
            ).predict(DETERMINISM_GALLERY[name]())

        first, second = run(), run()
        assert first.status is second.status
        if first.status is Result.SAT:
            assert first.boundaries == second.boundaries
            assert canon(first.predicted) == canon(second.predicted)

    def test_repeated_runs_stable(self):
        history = gallery.deposit_unserializable()
        outcomes = set()
        for _ in range(3):
            result = IsoPredict(
                CAUSAL, PredictionStrategy.APPROX_STRICT
            ).predict(history)
            outcomes.add(
                (result.status, tuple(sorted(result.boundaries.items())))
            )
        assert len(outcomes) == 1
