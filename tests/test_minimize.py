"""Witness minimization tests."""
import pytest

from repro import gallery
from repro.isolation import is_serializable, pco_unserializable
from repro.minimize import minimize_witness


class TestBasics:
    def test_already_minimal_stays(self):
        h = gallery.deposit_unserializable()
        minimal = minimize_witness(h)
        assert len(minimal) == 2  # both deposits are needed for the cycle

    def test_serializable_input_rejected(self):
        with pytest.raises(ValueError, match="witness"):
            minimize_witness(gallery.deposit_observed())

    def test_fig8_kernel_is_the_four_cycle(self):
        minimal = minimize_witness(gallery.fig8b_smallbank_predicted())
        assert {t.tid for t in minimal.transactions()} == {
            "t1", "t2", "t3", "t4",
        }

    def test_result_is_still_unserializable(self):
        for make in (
            gallery.deposit_unserializable,
            gallery.fig7b_wikipedia_predicted,
            gallery.fig9c_predicted,
        ):
            minimal = minimize_witness(make())
            assert pco_unserializable(minimal)
            assert not is_serializable(minimal)


class TestIrrelevantTransactionsDropped:
    def test_bystander_removed(self):
        from repro.history import HistoryBuilder

        b = HistoryBuilder(initial={"acct": 0, "other": 0})
        b.txn("t1", "s1").read("acct", writer="t0").write("acct", 50)
        b.txn("t2", "s2").read("acct", writer="t0").write("acct", 60)
        b.txn("t3", "s3").read("other", writer="t0").write("other", 1)
        minimal = minimize_witness(b.build())
        assert "t3" not in minimal
        assert len(minimal) == 2

    def test_irrelevant_reads_removed(self):
        from repro.history import HistoryBuilder

        b = HistoryBuilder(initial={"acct": 0, "noise": 0})
        t1 = b.txn("t1", "s1")
        t1.read("noise", writer="t0")
        t1.read("acct", writer="t0").write("acct", 50)
        b.txn("t2", "s2").read("acct", writer="t0").write("acct", 60)
        minimal = minimize_witness(b.build())
        kept_reads = [
            r.key for t in minimal.transactions() for r in t.reads
        ]
        assert "noise" not in kept_reads


class TestEndToEnd:
    def test_minimized_benchmark_prediction(self):
        """Shrink a real Smallbank prediction down to its witness kernel."""
        from repro.api import Analysis
        from repro.bench_apps import Smallbank
        from repro.sources import BenchAppSource

        for seed in range(4):
            result = (
                Analysis(BenchAppSource(Smallbank, seed=seed))
                .under("rc")
                .using("approx-strict")
                .run(validate=False)
            )
            if not result.prediction.found:
                continue
            predicted = result.prediction.predicted
            minimal = minimize_witness(predicted)
            assert len(minimal) <= len(predicted)
            assert pco_unserializable(minimal)
            # 1-minimality: removing any remaining transaction breaks it
            from repro.minimize import _drop_txn

            for txn in minimal.transactions():
                candidate = _drop_txn(minimal, txn.tid)
                if candidate is not None and len(candidate):
                    assert not pco_unserializable(candidate)
            return
        pytest.skip("no prediction in the first four seeds")
