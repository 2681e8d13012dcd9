"""Feedback signals: cycle signatures, shape fingerprints, coverage keys."""
import pytest

from repro import gallery
from repro.api import Analysis
from repro.fuzz import (
    batch_fingerprints,
    coverage_key,
    cycle_signature,
    shape_fingerprint,
)
from repro.fuzz import ProgramPlan
from repro.fuzz.feedback import bucket
from repro.sources import FuzzSource


@pytest.fixture(scope="module")
def session():
    """One analyzed fuzz scenario shared by the signal tests.

    Its space holds exactly two distinct predictions, so asking for two
    ends SAT.
    """
    analysis = Analysis(FuzzSource(shape_seed=0, seed=0)).under("causal")
    analysis.using("approx-relaxed", max_seconds=None, max_conflicts=20_000)
    batch = analysis.predict(2)
    assert batch.found
    return analysis, batch


class TestCycleSignature:
    def test_serializable_history_has_no_signature(self):
        assert cycle_signature(gallery.deposit_observed()) == ""

    def test_known_galleries(self):
        # the lost deposit: pco's cycle search closes it through session
        # order and the write-write conflict
        assert cycle_signature(gallery.deposit_unserializable()) == "so.ww"
        # the mined session-stale-read kernel: anti-dependency closed by
        # session order (transcribed from the checked-in corpus)
        assert (
            cycle_signature(gallery.mined_session_stale_read_predicted())
            == "rw.so"
        )

    def test_signature_is_rotation_canonical(self):
        """The signature is the minimal rotation, so any history whose
        cycle walk starts elsewhere still reports the same string."""
        sig = cycle_signature(gallery.mined_session_stale_read_predicted())
        labels = sig.split(".")
        rotations = {
            ".".join(labels[i:] + labels[:i]) for i in range(len(labels))
        }
        assert sig == min(rotations)

    def test_labels_are_base_relations(self):
        for history in (
            gallery.deposit_unserializable(),
            gallery.fig7d_wikipedia_noncausal(),
            gallery.shard_transfer_predicted(),
        ):
            sig = cycle_signature(history)
            assert sig
            assert set(sig.split(".")) <= {"so", "wr", "ww", "rw"}


class TestBucket:
    def test_log2_buckets(self):
        assert bucket(0) == 0
        assert bucket(1) == 1
        assert bucket(2) == 2
        assert bucket(3) == 2
        assert bucket(4) == 3
        assert bucket(1000) == 10


class TestShapeFingerprint:
    def test_format(self, session):
        analysis, batch = session
        fp = shape_fingerprint(batch.predictions[0], analysis.history)
        parts = dict(p.split("=", 1) for p in fp.split("|"))
        assert set(parts) == {"iso", "cycle", "rep", "cut"}
        assert parts["iso"] == "causal"
        assert parts["cycle"]
        assert int(parts["rep"]) >= 1  # a prediction repoints something
        assert int(parts["cut"]) >= 0

    def test_requires_a_predicted_history(self, session):
        _, batch = session
        empty = [p for p in batch.predictions if p.predicted is None]
        if not empty:
            pytest.skip("every enumerated prediction was SAT")
        with pytest.raises(ValueError):
            shape_fingerprint(empty[0])

    def test_fingerprint_is_backend_free(self, session):
        """Nothing backend-specific may leak into the portable shape."""
        analysis, batch = session
        for fp in batch_fingerprints(batch, analysis.history):
            assert "shard" not in fp
            assert "sqlite" not in fp

    def test_batch_fingerprints_skip_unsat_rows(self, session):
        analysis, batch = session
        fps = batch_fingerprints(batch, analysis.history)
        assert len(fps) == sum(
            1 for p in batch.predictions if p.predicted is not None
        )


class TestCoverageKey:
    def test_extends_shapes_with_scheduling_signals(self, session):
        analysis, batch = session
        meta = dict(analysis.recorded.meta)
        key = coverage_key(batch, analysis.history, meta)
        shapes = ",".join(
            sorted(set(batch_fingerprints(batch, analysis.history)))
        )
        assert key.startswith(shapes)
        assert "|verdict=sat" in key
        assert "|shard=-" in key  # inmemory: no shard attribution
        assert "|conf=" in key and "|lit=" in key

    def test_cross_shard_attribution(self, session):
        _, batch = session
        single = coverage_key(batch, None, {"cross_shard_txns": 0})
        cross = coverage_key(batch, None, {"cross_shard_txns": 2})
        assert "|shard=single|" in single
        assert "|shard=cross|" in cross

    def test_no_find_still_produces_a_key(self):
        # a single-transaction plan cannot be unserializable: no shapes,
        # but the verdict and solver buckets still feed the scheduler
        plan = ProgramPlan(
            keys=("k0",), sessions=(((("write", "k0", 1),),),)
        )
        analysis = Analysis(FuzzSource(plan=plan, seed=0)).under("causal")
        analysis.using(
            "approx-relaxed", max_seconds=None, max_conflicts=5_000
        )
        batch = analysis.predict(1)
        assert not batch.found
        key = coverage_key(batch, analysis.history, {})
        assert key.startswith("none|")
