"""Isolation checkers against every paper example, plus oracles."""
import pytest

from repro import gallery
from repro.isolation import (
    IsolationLevel,
    is_causal,
    is_read_committed,
    is_serializable,
    is_serializable_bruteforce,
    is_valid_under,
    pco_unserializable,
)


class TestDepositExample:
    """Fig. 1/2/3: the motivating deposit histories."""

    def test_observed_is_serializable(self):
        h = gallery.deposit_observed()
        assert is_serializable(h)
        assert is_serializable_bruteforce(h)

    def test_observed_is_causal_and_rc(self):
        h = gallery.deposit_observed()
        assert is_causal(h)
        assert is_read_committed(h)

    def test_unserializable_variant(self):
        h = gallery.deposit_unserializable()
        assert not is_serializable(h)
        assert not is_serializable_bruteforce(h)

    def test_unserializable_variant_still_causal_and_rc(self):
        h = gallery.deposit_unserializable()
        assert is_causal(h)
        assert is_read_committed(h)

    def test_pco_witness_detects_it(self):
        assert pco_unserializable(gallery.deposit_unserializable())
        assert not pco_unserializable(gallery.deposit_observed())

    def test_serializable_witness_order(self):
        report = is_serializable(gallery.deposit_observed())
        assert report.commit_order == ["t0", "t1", "t2"]


class TestFig5AntiDependency:
    """Fig. 5: pco is cyclic only when rw edges are included."""

    def test_without_rw_acyclic(self):
        from repro.history.relations import (
            so_pairs,
            transitive_closure,
            wr_pairs,
        )
        from repro.isolation.axioms import ww_with_support

        h = gallery.fig5_history()
        nodes = [t.tid for t in h.all_transactions()]
        pco = transitive_closure(
            set(so_pairs(h)) | set(wr_pairs(h)), nodes=nodes
        )
        # iterate ww only (no rw): must stay acyclic
        while True:
            ww = ww_with_support(h, pco)
            new = transitive_closure(set(pco) | set(ww), nodes=nodes)
            if new == pco:
                break
            pco = new
        assert all(a != b for a, b in pco)

    def test_with_rw_cyclic(self):
        assert pco_unserializable(gallery.fig5_history())


class TestFig6RankMotivation:
    """Fig. 6: the least fixpoint must NOT contain self-justifying edges."""

    def test_history_is_serializable(self):
        h = gallery.fig6_history()
        assert is_serializable(h)
        assert is_serializable_bruteforce(h)

    def test_pco_fixpoint_acyclic(self):
        assert not pco_unserializable(gallery.fig6_history())

    def test_pco_has_no_self_justified_ww(self):
        from repro.isolation import pco_fixpoint

        pco = pco_fixpoint(gallery.fig6_history())
        # the self-justifying pair of Fig. 6 would be pco(t1, t3)
        assert ("t1", "t3") not in pco


class TestFig7Wikipedia:
    def test_observed_serializable(self):
        assert is_serializable(gallery.fig7a_wikipedia_observed())
        assert is_serializable(gallery.fig7c_wikipedia_observed())

    def test_predicted_causal_unserializable(self):
        h = gallery.fig7b_wikipedia_predicted()
        assert is_causal(h)
        assert not is_serializable(h)
        assert pco_unserializable(h)

    def test_7d_not_causal(self):
        h = gallery.fig7d_wikipedia_noncausal()
        assert not is_causal(h)

    def test_7d_still_rc(self):
        # rc is weaker; the repointed read is fine under rc
        assert is_read_committed(gallery.fig7d_wikipedia_noncausal())


class TestFig8Smallbank:
    def test_observed_serializable(self):
        assert is_serializable(gallery.fig8a_smallbank_observed())

    def test_predicted_causal_unserializable(self):
        h = gallery.fig8b_smallbank_predicted()
        assert is_causal(h)
        assert is_read_committed(h)
        assert not is_serializable(h)
        assert pco_unserializable(h)


class TestFig9Boundary:
    def test_observed_serializable(self):
        assert is_serializable(gallery.fig9_observed())

    def test_predicted_unserializable_but_causal(self):
        h = gallery.fig9c_predicted()
        assert is_causal(h)
        assert not is_serializable(h)
        assert pco_unserializable(h)


class TestFig10Patterns:
    @pytest.fixture(params=list(gallery.fig10_patterns().items()),
                    ids=lambda kv: kv[0])
    def pattern(self, request):
        return request.param[1]

    def test_observed_serializable(self, pattern):
        observed, _ = pattern
        assert is_serializable(observed)
        assert is_causal(observed)

    def test_predicted_causal_rc_unserializable(self, pattern):
        _, predicted = pattern
        assert is_causal(predicted)
        assert is_read_committed(predicted)
        assert not is_serializable(predicted)
        assert pco_unserializable(predicted)


class TestIsValidUnder:
    def test_dispatch(self):
        h = gallery.deposit_unserializable()
        assert is_valid_under(h, IsolationLevel.CAUSAL)
        assert is_valid_under(h, IsolationLevel.READ_COMMITTED)
        assert not is_valid_under(h, IsolationLevel.SERIALIZABLE)

    def test_level_parse(self):
        assert IsolationLevel.parse("rc") is IsolationLevel.READ_COMMITTED
        assert IsolationLevel.parse("CAUSAL") is IsolationLevel.CAUSAL
        assert IsolationLevel.parse("serializable") is (
            IsolationLevel.SERIALIZABLE
        )
        with pytest.raises(ValueError):
            IsolationLevel.parse("snapshot")
