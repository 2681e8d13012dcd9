"""Read-policy tests: legality filtering, random exploration, directed replay."""
import random

import pytest

from repro.api import Analysis
from repro.bench_apps import TPCC, WorkloadConfig
from repro.history import INIT_TID, HistoryBuilder
from repro.isolation import (
    IsolationLevel,
    is_causal,
    is_read_committed,
    is_serializable,
)
from repro.sources import BenchAppSource
from repro.store import (
    Client,
    DataStore,
    DirectedReplayPolicy,
    LatestWriterPolicy,
    RandomIsolationPolicy,
    legal_writers,
    policies,
)
from repro import gallery


def deposit_program(amount):
    def program(client, rng):
        balance = client.get("acct")
        client.put("acct", (balance or 0) + amount)
        client.commit()

    return program


class TestLegalWriters:
    def test_read_your_writes_enforced_under_causal(self):
        """A session cannot skip its own session's earlier write (causal)."""
        store = DataStore(initial={"x": 0})
        writer = Client(store, "s1", LatestWriterPolicy())
        writer.put("x", 1)
        t1 = writer.commit()

        probe = Client(store, "s1", LatestWriterPolicy())

        captured = {}

        class Capture(LatestWriterPolicy):
            def choose(self, ctx):
                captured["causal"] = legal_writers(ctx, IsolationLevel.CAUSAL)
                captured["rc"] = legal_writers(
                    ctx, IsolationLevel.READ_COMMITTED
                )
                return super().choose(ctx)

        probe._policy = Capture()
        probe.get("x")
        probe.commit()
        # same session: reading t0 would violate causal (session guarantee)
        assert captured["causal"] == [t1]
        # rc has no such constraint here
        assert set(captured["rc"]) == {INIT_TID, t1}

    def test_cross_session_initial_read_legal_under_causal(self):
        store = DataStore(initial={"x": 0})
        writer = Client(store, "s1", LatestWriterPolicy())
        writer.put("x", 1)
        t1 = writer.commit()

        captured = {}

        class Capture(LatestWriterPolicy):
            def choose(self, ctx):
                captured["causal"] = legal_writers(ctx, IsolationLevel.CAUSAL)
                return super().choose(ctx)

        reader = Client(store, "s2", Capture())
        reader.get("x")
        reader.commit()
        assert set(captured["causal"]) == {INIT_TID, t1}


class TestRandomIsolationPolicy:
    def run_two_deposits(self, seed, level):
        store = DataStore(initial={"acct": 0})
        rng = random.Random(seed)
        policy = RandomIsolationPolicy(level, rng)
        alice = Client(store, "s1", policy)
        bob = Client(store, "s2", policy)
        deposit_program(50)(alice, rng)
        deposit_program(60)(bob, rng)
        return store.history()

    @pytest.mark.parametrize(
        "level", [IsolationLevel.CAUSAL, IsolationLevel.READ_COMMITTED]
    )
    def test_histories_always_valid_under_level(self, level):
        for seed in range(20):
            h = self.run_two_deposits(seed, level)
            assert is_causal(h) if level is IsolationLevel.CAUSAL else (
                is_read_committed(h)
            )

    def test_explores_unserializable_outcomes(self):
        """MonkeyDB-style exploration finds the Fig. 1b lost update."""
        outcomes = set()
        for seed in range(30):
            h = self.run_two_deposits(seed, IsolationLevel.CAUSAL)
            outcomes.add(bool(is_serializable(h)))
        assert outcomes == {True, False}


class TestDirectedReplayPolicy:
    def replay_deposits(self, predicted, observed):
        store = DataStore(initial={"acct": 0})
        policy = DirectedReplayPolicy(
            predicted, IsolationLevel.CAUSAL, observed=observed
        )
        rng = random.Random(0)
        alice = Client(store, "s1", policy)
        bob = Client(store, "s2", policy)
        deposit_program(50)(alice, rng)
        deposit_program(60)(bob, rng)
        return store.history(), policy

    def test_follows_prediction_exactly(self):
        predicted = gallery.deposit_unserializable()
        observed = gallery.deposit_observed()
        history, policy = self.replay_deposits(predicted, observed)
        assert not policy.diverged
        assert not is_serializable(history)
        assert is_causal(history)

    def test_diverges_when_prediction_impossible(self):
        """Predicted writer that never wrote the key forces divergence."""
        predicted = gallery.deposit_observed()  # t2 reads from t1
        observed = gallery.deposit_observed()
        store = DataStore(initial={"acct": 0})
        policy = DirectedReplayPolicy(
            predicted, IsolationLevel.CAUSAL, observed=observed
        )
        rng = random.Random(0)
        # run s2 FIRST: its predicted writer (s1's txn) has not committed yet
        bob = Client(store, "s2", policy)
        deposit_program(60)(bob, rng)
        assert policy.diverged

    def test_abort_rewinds_cursor(self):
        predicted = gallery.deposit_unserializable()
        store = DataStore(initial={"acct": 0})
        policy = DirectedReplayPolicy(predicted, IsolationLevel.CAUSAL)
        client = Client(store, "s1", policy)
        client.get("acct")
        client.rollback()
        # retried transaction consumes predicted reads from the start again
        client.get("acct")
        tid = client.commit()
        txn = store.history().transaction(tid)
        assert txn.reads[0].writer == INIT_TID
        assert not policy.diverged


class TestLazyLegality:
    """Directed replay checks only the writers it asks about, in order."""

    def replay_one_read(self, allowed, monkeypatch):
        """x is written by t1..t4 (sessions s1..s4), then s5 reads it.

        The read is predicted from t2 and observed from t1; t4 is the
        latest writer. ``is_valid_under`` accepts exactly ``allowed``.
        """
        def history(reads_from):
            b = HistoryBuilder(initial={"x": 0})
            for i in range(1, 5):
                b.txn(f"t{i}", f"s{i}").write("x", i)
            b.txn("t5", "s5").read("x", writer=reads_from)
            return b.build()

        policy = DirectedReplayPolicy(
            history("t2"), IsolationLevel.CAUSAL, observed=history("t1")
        )
        store = DataStore(initial={"x": 0})
        for i in range(1, 5):
            client = Client(store, f"s{i}", policy)
            client.put("x", i)
            client.commit()
        asked = []

        def only_allowed(trial, level):
            (reader,) = trial.sessions()["s5"]
            asked.append(reader.reads[-1].writer)
            return reader.reads[-1].writer in allowed

        monkeypatch.setattr(policies, "is_valid_under", only_allowed)
        reader = Client(store, "s5", policy)
        reader.get("x")
        tid = reader.commit()
        return store.history().transaction(tid).reads[0].writer, policy, asked

    def test_predicted_writer_is_the_only_check(self, monkeypatch):
        chosen, policy, asked = self.replay_one_read({"t2"}, monkeypatch)
        assert (chosen, asked) == ("t2", ["t2"])
        assert not policy.diverged

    def test_observed_then_latest_in_order(self, monkeypatch):
        chosen, policy, asked = self.replay_one_read({"t4"}, monkeypatch)
        assert (chosen, asked) == ("t4", ["t2", "t1", "t4"])
        assert policy.divergences[0]["reason"] == "isolation-illegal"

    @pytest.mark.parametrize("legal", [{"t3"}, {"t0", "t3"}])
    def test_fallback_takes_the_least_legal_writer(self, legal, monkeypatch):
        chosen, _, asked = self.replay_one_read(legal, monkeypatch)
        assert chosen == sorted(legal)[0]
        # the three preferred writers are asked once each; the full
        # candidate set is only evaluated in this fallback
        assert asked == ["t2", "t1", "t4", "t0", "t3"]

    def test_fallback_reads_latest_when_nothing_is_legal(self, monkeypatch):
        chosen, _, _ = self.replay_one_read(set(), monkeypatch)
        assert chosen == "t4"

    def test_replay_check_count_is_pinned(self, monkeypatch):
        session = (
            Analysis(BenchAppSource(TPCC, WorkloadConfig.tiny(), 7))
            .under("causal")
            .using("approx-relaxed", max_seconds=30.0)
        )
        assert session.predict().found
        calls = []
        real = policies.is_valid_under
        monkeypatch.setattr(
            policies,
            "is_valid_under",
            lambda h, level: calls.append(1) or real(h, level),
        )
        assert session.validate().validated
        # the eager policy checked every candidate writer of every read: 17
        assert len(calls) == 14
