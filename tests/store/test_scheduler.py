"""Scheduler tests: determinism, interleaving, dictated turns, halting."""
import pytest

from repro.history import history_to_json
from repro.isolation import IsolationLevel, is_serializable
from repro.store import (
    DataStore,
    InterleavedScheduler,
    LatestWriterPolicy,
    RandomIsolationPolicy,
    SerialScheduler,
)


def deposit_program(amount):
    def program(client, rng):
        balance = client.get("acct")
        client.put("acct", (balance or 0) + amount)
        client.commit()
        yield

    return program


def run_serial(seed=0, policy_factory=None, turn_order=None):
    store = DataStore(initial={"acct": 0})
    programs = {
        "s1": deposit_program(50),
        "s2": deposit_program(60),
    }
    factory = policy_factory or (lambda s: LatestWriterPolicy())
    sched = SerialScheduler(
        store, programs, factory, seed=seed, turn_order=turn_order
    )
    return sched.run()


class TestSerialScheduler:
    def test_runs_all_sessions(self):
        h = run_serial()
        assert len(h) == 2

    def test_observed_execution_is_serializable(self):
        for seed in range(5):
            h = run_serial(seed=seed)
            assert is_serializable(h)

    def test_deterministic_per_seed(self):
        a = history_to_json(run_serial(seed=3))
        b = history_to_json(run_serial(seed=3))
        assert a == b

    def test_seeds_change_interleaving(self):
        outputs = {
            str(history_to_json(run_serial(seed=s))) for s in range(8)
        }
        assert len(outputs) > 1  # both t1-first and t2-first orders occur

    def test_turn_order_respected(self):
        h = run_serial(turn_order=["s2", "s1"])
        # s2's deposit commits first and becomes t1
        sessions = {t.tid: t.session for t in h.transactions()}
        assert sessions["t1"] == "s2"
        assert sessions["t2"] == "s1"

    def test_turn_order_prefix_halts_rest(self):
        h = run_serial(turn_order=["s2"])
        assert len(h) == 1
        assert h.transactions()[0].session == "s2"

    def test_program_error_propagates(self):
        def boom(client, rng):
            client.get("acct")
            raise RuntimeError("app bug")
            yield

        store = DataStore(initial={"acct": 0})
        sched = SerialScheduler(
            store, {"s1": boom}, lambda s: LatestWriterPolicy(), seed=0
        )
        with pytest.raises(RuntimeError, match="app bug"):
            sched.run()

    def test_program_ending_in_txn_rejected(self):
        def sloppy(client, rng):
            client.get("acct")  # never commits
            yield from ()

        store = DataStore(initial={"acct": 0})
        sched = SerialScheduler(
            store, {"s1": sloppy}, lambda s: LatestWriterPolicy(), seed=0
        )
        with pytest.raises(RuntimeError, match="inside a"):
            sched.run()

    def test_serial_latest_never_sees_lost_update(self):
        for seed in range(6):
            h = run_serial(seed=seed)
            final_writer = max(
                h.transactions(), key=lambda t: t.index + (t.session == "s2")
            )
            # with serial latest-writer execution the balance accumulates
            values = [t.writes[0].value for t in h.transactions()]
            assert 110 in values

    def test_abort_retries_do_not_consume_dictated_turns(self):
        calls = {"n": 0}

        def flaky(client, rng):
            # first transaction aborts, second commits
            client.get("acct")
            client.rollback()
            yield
            client.get("acct")
            client.put("acct", 1)
            client.commit()
            yield

        store = DataStore(initial={"acct": 0})
        sched = SerialScheduler(
            store,
            {"s1": flaky},
            lambda s: LatestWriterPolicy(),
            seed=0,
            turn_order=["s1"],
        )
        h = sched.run()
        assert len(h) == 1  # the committed transaction made it


def serial_scheduler(programs, turn_order=None):
    return SerialScheduler(
        DataStore(initial={"acct": 0}),
        programs,
        lambda s: LatestWriterPolicy(),
        seed=0,
        turn_order=turn_order,
    )


BOTH_SCHEDULERS = pytest.mark.parametrize(
    "scheduler", [SerialScheduler, InterleavedScheduler]
)


def run_on(scheduler, programs):
    store = DataStore(initial={"acct": 0})
    return scheduler(store, programs, lambda s: LatestWriterPolicy()).run()


class TestGeneratorProtocol:
    """A program yields exactly once after each transaction it ends."""

    @BOTH_SCHEDULERS
    def test_yield_inside_a_transaction_raises(self, scheduler):
        def early(client, rng):
            client.get("acct")
            yield
            client.commit()
            yield

        with pytest.raises(RuntimeError, match="'s1' yielded inside"):
            run_on(scheduler, {"s1": early})

    @BOTH_SCHEDULERS
    def test_yield_without_commit_or_rollback_raises(self, scheduler):
        def idle(client, rng):
            client.commit()  # nothing open: a no-op, no transaction ends
            yield

        with pytest.raises(RuntimeError, match="'s1' yielded after ending 0"):
            run_on(scheduler, {"s1": idle})

    @BOTH_SCHEDULERS
    def test_second_yield_without_a_transaction_raises(self, scheduler):
        def twice(client, rng):
            client.put("acct", 1)
            client.commit()
            yield
            yield

        with pytest.raises(RuntimeError, match="'s1' yielded after ending 0"):
            run_on(scheduler, {"s1": twice})

    @BOTH_SCHEDULERS
    def test_two_transactions_in_one_turn_raise(self, scheduler):
        def greedy(client, rng):
            client.get("acct")
            client.rollback()
            client.put("acct", 1)
            client.commit()
            yield

        with pytest.raises(RuntimeError, match="'s1' yielded after ending 2"):
            run_on(scheduler, {"s1": greedy})

    @BOTH_SCHEDULERS
    def test_transaction_after_the_last_yield_raises(self, scheduler):
        def trailing(client, rng):
            client.put("acct", 1)
            client.commit()
            yield
            client.put("acct", 2)
            client.commit()

        with pytest.raises(RuntimeError, match="'s1' ended a transaction"):
            run_on(scheduler, {"s1": trailing})

    @BOTH_SCHEDULERS
    def test_non_generator_program_rejected_at_construction(self, scheduler):
        def plain(client, rng):
            client.put("acct", 1)
            client.commit()

        store = DataStore(initial={"acct": 0})
        with pytest.raises(TypeError, match="session 's2'"):
            scheduler(
                store,
                {"s1": deposit_program(50), "s2": plain},
                lambda s: LatestWriterPolicy(),
            )
        assert len(store.history()) == 0

    def test_halt_closes_started_programs_and_skips_unstarted(self):
        events = []

        def tracked(name):
            def program(client, rng):
                events.append(f"{name} start")
                try:
                    for _ in range(2):
                        client.put("acct", name)
                        client.commit()
                        yield
                finally:
                    events.append(f"{name} closed")

            return program

        sched = serial_scheduler(
            {"s1": tracked("s1"), "s2": tracked("s2"), "s3": tracked("s3")},
            turn_order=["s2", "s1"],
        )
        h = sched.run()  # sched is still referenced: run() did the closing
        assert [t.session for t in h.transactions()] == ["s2", "s1"]
        assert events[:2] == ["s2 start", "s1 start"]
        assert sorted(events[2:]) == ["s1 closed", "s2 closed"]  # no s3

    def test_program_error_closes_the_others_and_propagates(self):
        closed = []

        def steady(client, rng):
            try:
                for _ in range(3):
                    client.put("acct", 1)
                    client.commit()
                    yield
            finally:
                closed.append(client.session)

        def boom(client, rng):
            client.put("acct", 2)
            client.commit()
            yield
            raise RuntimeError("app bug")

        sched = serial_scheduler(
            {"s1": steady, "s2": boom}, turn_order=["s1", "s2", "s2"]
        )
        with pytest.raises(RuntimeError, match="app bug"):
            sched.run()
        assert closed == ["s1"]

    def test_serial_run_starts_no_thread(self, monkeypatch):
        import threading

        def refuse(self):
            raise AssertionError("the serial scheduler started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        h = run_serial(seed=1)
        assert len(h) == 2
        h = run_serial(turn_order=["s2"])
        assert len(h) == 1


class TestInterleavedScheduler:
    def test_interleaving_can_lose_updates(self):
        """Statement-level rc interleaving exhibits the classic race."""
        results = set()
        for seed in range(12):
            store = DataStore(initial={"acct": 0})
            sched = InterleavedScheduler(
                store,
                {"s1": deposit_program(50), "s2": deposit_program(60)},
                lambda s: LatestWriterPolicy(),
                seed=seed,
            )
            h = sched.run()
            finals = {
                t.tid: t.writes[0].value for t in h.transactions()
            }
            results.add(max(finals.values()))
        # some interleavings give 110, racy ones give 50 or 60
        assert 110 in results
        assert results - {110}, "expected at least one lost update"

    def test_deterministic_per_seed(self):
        def run(seed):
            store = DataStore(initial={"acct": 0})
            sched = InterleavedScheduler(
                store,
                {"s1": deposit_program(50), "s2": deposit_program(60)},
                lambda s: LatestWriterPolicy(),
                seed=seed,
            )
            return history_to_json(sched.run())

        assert run(7) == run(7)


class TestRandomExplorationUnderScheduler:
    def test_histories_valid_and_sometimes_unserializable(self):
        saw_unser = False
        for seed in range(15):
            store = DataStore(initial={"acct": 0})
            sched = SerialScheduler(
                store,
                {"s1": deposit_program(50), "s2": deposit_program(60)},
                lambda s: RandomIsolationPolicy(
                    IsolationLevel.CAUSAL,
                    __import__("random").Random(seed),
                ),
                seed=seed,
            )
            h = sched.run()
            from repro.isolation import is_causal

            assert is_causal(h)
            if not is_serializable(h):
                saw_unser = True
        assert saw_unser
