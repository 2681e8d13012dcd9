"""The quantifier-expansion exact encoding as an oracle for CEGIS.

On small histories the literal B.2.1 semantics ("no commit order
serializes the prediction") is decidable by expanding the universal
quantifier over all permutations. The exact strategy runs CEGIS alone,
on SAT histories as well as UNSAT ones, so its verdict is checked
against the expansion's either way. The approximate pco encoding must
agree too — the paper's empirical finding that approx never missed an
exact prediction, made into a test.
"""
import pytest
from hypothesis import given, settings

from repro import gallery
from repro.isolation import IsolationLevel
from repro.predict import IsoPredict, PredictionStrategy
from repro.isolation.checkers import _witnesses, is_serializable
from repro.predict.decode import decode_history
from repro.predict.encoder import Encoding
from repro.predict.strategies import BoundaryMode, EncodingMode
from repro.predict.unserializability import (
    blocking_clause,
    exact_expansion_constraints,
    not_serialized_by,
    witness_order,
)
from repro.predict.weak_isolation import isolation_constraints
from repro.smt import Not, Result, Solver
from tests.predict.test_encoding_oracle import random_history

CAUSAL = IsolationLevel.CAUSAL


def _base_solver(enc, isolation):
    """Feasibility + isolation: the CEGIS walk's candidate space."""
    solver = Solver()
    for c in enc.feasibility_constraints():
        solver.add(c)
    for c in isolation_constraints(enc, isolation):
        solver.add(c)
    for c in enc.definitions():
        solver.add(c)
    return solver


def expansion_verdict(
    observed, boundary=BoundaryMode.RELAXED, isolation=CAUSAL
) -> Result:
    enc = Encoding(observed, boundary=boundary)
    solver = _base_solver(enc, isolation)
    for c in exact_expansion_constraints(enc):
        solver.add(c)
    return solver.check(max_seconds=60)


class TestAgainstPaperExamples:
    def test_deposit_relaxed_sat(self):
        assert expansion_verdict(gallery.deposit_observed()) is Result.SAT

    def test_deposit_strict_unsat(self):
        assert (
            expansion_verdict(
                gallery.deposit_observed(), BoundaryMode.STRICT
            )
            is Result.UNSAT
        )

    def test_fig8_strict_sat(self):
        assert (
            expansion_verdict(
                gallery.fig8a_smallbank_observed(), BoundaryMode.STRICT
            )
            is Result.SAT
        )

    def test_fig7c_unsat(self):
        assert (
            expansion_verdict(gallery.fig7c_wikipedia_observed())
            is Result.UNSAT
        )

    def test_size_guard(self):
        from repro.bench_apps import Smallbank, WorkloadConfig, record_observed

        observed = record_observed(
            Smallbank(WorkloadConfig.small()), 0
        ).history
        enc = Encoding(observed)
        with pytest.raises(ValueError, match="exceeds"):
            exact_expansion_constraints(enc, max_txns=5)


LEVELS = [CAUSAL, IsolationLevel.READ_COMMITTED]
BOUNDARIES = [BoundaryMode.STRICT, BoundaryMode.RELAXED]


class TestAgreementWithOtherEncodings:
    @pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.value)
    @pytest.mark.parametrize("isolation", LEVELS, ids=str)
    @given(observed=random_history())
    @settings(max_examples=20, deadline=None)
    def test_expansion_agrees_with_cegis_and_approx(
        self, isolation, boundary, observed
    ):
        expansion = expansion_verdict(observed, boundary, isolation)
        approx = IsoPredict(
            isolation,
            PredictionStrategy(EncodingMode.APPROX, boundary),
            max_seconds=30,
        ).predict(observed)
        exact = IsoPredict(
            isolation,
            PredictionStrategy(EncodingMode.EXACT, boundary),
            max_candidates=256,
            max_seconds=30,
        ).predict(observed)
        # the exact expansion is the ground truth for unserializability;
        # approx is sufficient-but-unnecessary, so SAT implies expansion SAT
        if approx.status is Result.SAT:
            assert expansion is Result.SAT
        # CEGIS decides, and realizes the same semantics as the expansion
        assert exact.status is expansion
        # the paper's empirical finding: approx never misses
        if expansion is Result.SAT:
            assert approx.status is Result.SAT


class TestWitnessRefinement:
    """CEGIS refines by ``not_serialized_by(enc, witness order)``.

    The clause must exclude the serializable candidate it was built from
    (or the walk would re-serve it) and must never exclude an
    unserializable one (or a prediction would be lost).
    """

    @pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.value)
    @pytest.mark.parametrize("isolation", LEVELS, ids=str)
    @given(observed=random_history())
    @settings(max_examples=15, deadline=None)
    def test_refinement_is_sound(self, isolation, boundary, observed):
        enc = Encoding(observed, boundary=boundary)
        solver = _base_solver(enc, isolation)
        for _ in range(8):  # the first few candidates of the walk
            if solver.check(max_seconds=30) is not Result.SAT:
                break
            model = solver.model()
            candidate = decode_history(enc, model)
            report = is_serializable(candidate)
            if not report:
                solver.add(blocking_clause(enc, model))
                continue
            order = witness_order(enc, report.commit_order)
            assert sorted(order) == sorted(enc.tids)
            refinement = not_serialized_by(enc, order)
            # the candidate that produced the witness is excluded ...
            assert not model.evaluate(refinement)
            # ... and so is only what the witness order serializes
            self._assert_excluded_are_serialized(
                enc, isolation, refinement, order
            )
            solver.add(refinement)

    @staticmethod
    def _assert_excluded_are_serialized(enc, isolation, refinement, order):
        excluded = _base_solver(enc, isolation)
        excluded.add(Not(refinement))
        for _ in range(16):
            if excluded.check(max_seconds=30) is not Result.SAT:
                return
            model = excluded.model()
            assert _witnesses(decode_history(enc, model), order)
            excluded.add(blocking_clause(enc, model))

    def test_witness_order_appends_excluded_suffixes_in_session_order(self):
        from repro.history import HistoryBuilder

        b = HistoryBuilder(initial={"x": 0})
        b.txn("a1", "s1").write("x", 1)
        b.txn("b1", "s2").read("x", writer="a1")
        b.txn("a2", "s1").write("x", 2)
        b.txn("b2", "s2").read("x", writer="a2")
        b.txn("a3", "s1").read("x", writer="a2")
        enc = Encoding(b.build(), boundary=BoundaryMode.RELAXED)
        # the candidate kept only t0, a1 and b1
        assert witness_order(enc, ["t0", "a1", "b1"]) == [
            "t0", "a1", "b1", "a2", "a3", "b2"
        ]
