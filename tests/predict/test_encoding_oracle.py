"""Approximate predictions against the graph-side pco fixpoint oracle.

The approximate strategy asserts no unserializability constraint: it
checks each feasibility+isolation candidate's decoded history with the
pco least fixpoint. Draining it must therefore yield exactly the exact
strategy's predictions whose decoded history is ``pco_unserializable``:
no cyclic candidate is lost to a witness-order refinement, and no
acyclic one slips through.
"""
from hypothesis import given, settings, strategies as st

from repro.history import HistoryBuilder
from repro.isolation import IsolationLevel, pco_unserializable
from repro.predict import IsoPredict, PredictionStrategy
from repro.smt import Result

KEYS = ["x", "y"]


@st.composite
def random_history(draw):
    n_sessions = draw(st.integers(min_value=1, max_value=3))
    n_txns = draw(st.integers(min_value=2, max_value=5))
    plans = []
    for i in range(n_txns):
        session = draw(st.integers(min_value=0, max_value=n_sessions - 1))
        n_ops = draw(st.integers(min_value=1, max_value=3))
        ops = [
            (draw(st.sampled_from(["r", "w"])), draw(st.sampled_from(KEYS)))
            for _ in range(n_ops)
        ]
        plans.append((f"t{i + 1}", f"s{session}", ops))
    writers = {k: ["t0"] for k in KEYS}
    for tid, _, ops in plans:
        for kind, key in ops:
            if kind == "w" and tid not in writers[key]:
                writers[key].append(tid)
    b = HistoryBuilder(initial={k: 0 for k in KEYS})
    for tid, session, ops in plans:
        tb = b.txn(tid, session)
        for kind, key in ops:
            if kind == "w":
                tb.write(key, 1)
            else:
                candidates = [w for w in writers[key] if w != tid]
                tb.read(key, writer=draw(st.sampled_from(candidates)))
    return b.build()


def drain(history, level, strategy):
    """One configuration's prediction enumeration, run until UNSAT."""
    if isinstance(level, str):
        level = IsolationLevel.parse(level)
    if isinstance(strategy, str):
        strategy = PredictionStrategy.parse(strategy)
    enum = IsoPredict(level, strategy).enumerator(history)
    while True:
        enum.ensure(4096)
        if enum.batch().status is Result.UNSAT:
            return enum


def by_fingerprint(enum) -> dict:
    """Each prediction, keyed by its decoded reads and boundaries."""
    return {
        (
            tuple(
                (t.tid, r.pos, r.writer)
                for t in p.predicted.transactions()
                for r in t.reads
            ),
            tuple(sorted(p.boundaries.items())),
        ): p
        for p in enum.predictions
    }


class TestApproxMatchesGraphFixpoint:
    @given(
        random_history(),
        st.sampled_from(["causal", "rc"]),
        st.sampled_from(["strict", "relaxed"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_approx_is_exact_filtered_by_pco_cycle(
        self, history, level, boundary
    ):
        approx = by_fingerprint(drain(history, level, f"approx-{boundary}"))
        exact = by_fingerprint(drain(history, level, f"exact-{boundary}"))
        assert all(pco_unserializable(p.predicted) for p in approx.values())
        assert set(approx) == {
            fingerprint
            for fingerprint, p in exact.items()
            if pco_unserializable(p.predicted)
        }


class TestPredictionSoundness:
    @given(random_history(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_any_prediction_is_genuinely_unserializable(
        self, history, relaxed
    ):
        """Free-choice predictions must decode to pco-cyclic histories."""
        from repro.isolation import (
            is_causal,
            is_serializable_bruteforce,
        )
        from repro.isolation.levels import IsolationLevel
        from repro.predict import IsoPredict, PredictionStrategy

        strategy = (
            PredictionStrategy.APPROX_RELAXED
            if relaxed
            else PredictionStrategy.APPROX_STRICT
        )
        result = IsoPredict(
            IsolationLevel.CAUSAL, strategy, max_seconds=30
        ).predict(history)
        if result.found:
            assert is_causal(result.predicted)
            assert not is_serializable_bruteforce(result.predicted)
            assert pco_unserializable(result.predicted)
