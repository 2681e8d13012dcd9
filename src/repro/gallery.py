"""Paper example histories (Figures 1–3, 5–10), reconstructed from the text.

Each function returns a :class:`repro.history.History`. These drive unit
tests, the figure-reproduction benchmarks, and the examples. Figures 7, 8
and 10 in the paper render only "the transactions and events relevant to
predicting unserializable behavior"; we reconstruct minimal histories with
exactly those transactions. For Figure 10 the published drawings elide some
session structure, so the reconstructions here preserve the documented
*pattern* (which reads repoint, and the rw-edge cycles that prove
unserializability) rather than claiming edge-for-edge identity.
"""
from __future__ import annotations

from .history import History, HistoryBuilder

__all__ = [
    "deposit_observed",
    "deposit_unserializable",
    "fig5_history",
    "fig6_history",
    "fig7a_wikipedia_observed",
    "fig7b_wikipedia_predicted",
    "fig7c_wikipedia_observed",
    "fig7d_wikipedia_noncausal",
    "fig8a_smallbank_observed",
    "fig8b_smallbank_predicted",
    "fig9_observed",
    "fig9c_predicted",
    "fig10_patterns",
    "mined_session_stale_read_observed",
    "mined_session_stale_read_predicted",
    "shard_transfer_observed",
    "shard_transfer_predicted",
]


def deposit_observed() -> History:
    """Fig. 1a / 2a: two concurrent deposits; t2 reads t1's balance.

    Serializable (t0 < t1 < t2), hence also causal and rc. Ending balance
    110.
    """
    b = HistoryBuilder(initial={"acct": 0})
    b.txn("t1", "s1").read("acct", writer="t0", value=0).write("acct", 50)
    b.txn("t2", "s2").read("acct", writer="t1", value=50).write("acct", 110)
    return b.build()


def deposit_unserializable() -> History:
    """Fig. 1b / 3a: both deposits read the initial balance.

    causal and rc but unserializable (lost update; ending balance 60).
    """
    b = HistoryBuilder(initial={"acct": 0})
    b.txn("t1", "s1").read("acct", writer="t0", value=0).write("acct", 50)
    b.txn("t2", "s2").read("acct", writer="t0", value=0).write("acct", 60)
    return b.build()


def fig5_history() -> History:
    """Fig. 5: the history whose pco is cyclic *only* with rw edges.

    Identical structure to :func:`deposit_unserializable`; kept separate so
    the anti-dependency ablation reads like the paper.
    """
    return deposit_unserializable()


def fig6_history() -> History:
    """Fig. 6: the circular-dependency scenario that motivates rank.

    t1 and t2 write k; t3 reads k from t2. A naive encoding of pco can
    assert the self-justifying pair ww(t1,t2) / pco(t1,t3) and wrongly
    report a cycle; the history is in fact serializable, and its pco least
    fixpoint (built bottom-up from so ∪ wr) is acyclic.
    """
    b = HistoryBuilder(initial={"k": 0})
    b.txn("t1", "s1").write("k", 1)
    b.txn("t2", "s2").write("k", 2)
    b.txn("t3", "s3").read("k", writer="t2", value=2)
    return b.build()


def fig7a_wikipedia_observed() -> History:
    """Fig. 7a: Wikipedia-shaped observed execution; prediction exists.

    Session s1 runs t1 (read x, write x, write y) then t2 (read y from t1);
    session s2 runs t3 (read x from t1, write x). Serializable as observed.
    The causal, unserializable prediction (Fig. 7b) repoints t3's read of x
    to t0, creating the two rw_x edges between t1 and t3.
    """
    b = HistoryBuilder(initial={"x": 0, "y": 0})
    t1 = b.txn("t1", "s1")
    t1.read("x", writer="t0", value=0).write("x", 1).write("y", 1)
    b.txn("t2", "s1").read("y", writer="t1", value=1)
    b.txn("t3", "s2").read("x", writer="t1", value=1).write("x", 2)
    return b.build()


def fig7b_wikipedia_predicted() -> History:
    """Fig. 7b: the predicted execution — t3 reads x from t0 instead."""
    b = HistoryBuilder(initial={"x": 0, "y": 0})
    t1 = b.txn("t1", "s1")
    t1.read("x", writer="t0", value=0).write("x", 1).write("y", 1)
    b.txn("t2", "s1").read("y", writer="t1", value=1)
    b.txn("t3", "s2").read("x", writer="t0", value=0).write("x", 2)
    return b.build()


def fig7c_wikipedia_observed() -> History:
    """Fig. 7c: same transactions, t2/t3 now share a session; no prediction.

    With t2 so-before t3, repointing t3's read of x to t0 is non-causal
    (Fig. 7d), and repointing t2's read of y alone leaves the history
    serializable — so no causal, unserializable prediction exists.
    """
    b = HistoryBuilder(initial={"x": 0, "y": 0})
    t1 = b.txn("t1", "s1")
    t1.read("x", writer="t0", value=0).write("x", 1).write("y", 1)
    b.txn("t2", "s2").read("y", writer="t1", value=1)
    b.txn("t3", "s2").read("x", writer="t1", value=1).write("x", 2)
    return b.build()


def fig7d_wikipedia_noncausal() -> History:
    """Fig. 7d: changing (c) so t3 reads x from t0 — not causal."""
    b = HistoryBuilder(initial={"x": 0, "y": 0})
    t1 = b.txn("t1", "s1")
    t1.read("x", writer="t0", value=0).write("x", 1).write("y", 1)
    b.txn("t2", "s2").read("y", writer="t1", value=1)
    b.txn("t3", "s2").read("x", writer="t0", value=0).write("x", 2)
    return b.build()


def fig8a_smallbank_observed() -> History:
    """Fig. 8a: Smallbank-shaped observed execution (write-skew pattern).

    s1 runs t1 (write x) then t3 (read y); s2 runs t2 (write y) then t4
    (read x). Observed reads see the concurrent session's writes.
    """
    b = HistoryBuilder(initial={"x": 0, "y": 0})
    b.txn("t1", "s1").write("x", 1)
    b.txn("t3", "s1").read("y", writer="t2", value=1)
    b.txn("t2", "s2").write("y", 1)
    b.txn("t4", "s2").read("x", writer="t1", value=1)
    return b.build()


def fig8b_smallbank_predicted() -> History:
    """Fig. 8b: both reads repointed to t0.

    causal, unserializable via the pco cycle t1 < t3 < t2 < t4 < t1 (the
    rw_y edge t3 -> t2 and rw_x edge t4 -> t1 close it).
    """
    b = HistoryBuilder(initial={"x": 0, "y": 0})
    b.txn("t1", "s1").write("x", 1)
    b.txn("t3", "s1").read("y", writer="t0", value=0)
    b.txn("t2", "s2").write("y", 1)
    b.txn("t4", "s2").read("x", writer="t0", value=0)
    return b.build()


def fig9_observed() -> History:
    """Fig. 9a/9b: deposit(60); withdraw(50); deposit(5) — serializable.

    s1 runs t1 (deposit 60) then t3 (deposit 5); s2 runs t2 (withdraw 50).
    Observed chain: t1 -> t2 -> t3 through acct.
    """
    b = HistoryBuilder(initial={"acct": 0})
    b.txn("t1", "s1").read("acct", writer="t0", value=0).write("acct", 60)
    b.txn("t3", "s1").read("acct", writer="t2", value=10).write("acct", 15)
    b.txn("t2", "s2").read("acct", writer="t1", value=60).write("acct", 10)
    return b.build()


def fig9c_predicted() -> History:
    """Fig. 9c: the (boundary-free) unserializable prediction.

    t2's read repoints to t0. Infeasible in reality: withdraw(50) against a
    balance of 0 aborts (Fig. 9d), which is exactly what the prediction
    boundary exists to contain.
    """
    b = HistoryBuilder(initial={"acct": 0})
    b.txn("t1", "s1").read("acct", writer="t0", value=0).write("acct", 60)
    b.txn("t3", "s1").read("acct", writer="t2", value=10).write("acct", 15)
    b.txn("t2", "s2").read("acct", writer="t0", value=0).write("acct", 10)
    return b.build()


def _fig10_ab() -> tuple[History, History]:
    """Fig. 10a/b pattern: a three-session ring closed by three rw edges.

    Session i writes key k_i then reads key k_{i+1}; observed reads see the
    neighbouring session's write. Repointing every read to t0 yields the
    6-cycle t1 < t2 < t3 < t4 < t5 < t6 < t1 (so and rw edges alternating),
    which is causal because no hb path connects the sessions.
    """
    def build(rd_writers: dict[str, str]) -> History:
        b = HistoryBuilder(initial={"x": 0, "y": 0, "z": 0})
        b.txn("t1", "s1").write("x", 1)
        b.txn("t2", "s1").read("y", writer=rd_writers["t2"])
        b.txn("t3", "s2").write("y", 1)
        b.txn("t4", "s2").read("z", writer=rd_writers["t4"])
        b.txn("t5", "s3").write("z", 1)
        b.txn("t6", "s3").read("x", writer=rd_writers["t6"])
        return b.build()

    observed = build({"t2": "t3", "t4": "t5", "t6": "t1"})
    predicted = build({"t2": "t0", "t4": "t0", "t6": "t0"})
    return observed, predicted


def _fig10_cd() -> tuple[History, History]:
    """Fig. 10c/d pattern: both reads repoint to t0; rw_x and rw_y close it.

    s1 runs t1 (write y) then t3 (read x); s2 runs t2 (write x, read y).
    Predicted cycle: t1 -> t3 (so), t3 -> t2 (rw_x), t2 -> t1 (rw_y).
    """
    def build(t2_reads: str, t3_reads: str) -> History:
        b = HistoryBuilder(initial={"x": 0, "y": 0})
        b.txn("t1", "s1").write("y", 1)
        b.txn("t3", "s1").read("x", writer=t3_reads)
        b.txn("t2", "s2").write("x", 1).read("y", writer=t2_reads)
        return b.build()

    observed = build("t1", "t2")
    predicted = build("t0", "t0")
    return observed, predicted


def _fig10_ef() -> tuple[History, History]:
    """Fig. 10e/f pattern (TPC-C): multi-key transactions, two moved reads.

    Predicted cycle: t1 -> t3 (wr_y), t3 -> t2 (rw_z), t2 -> t1 (rw_x).
    """
    def build(t2_reads_x: str, t3_reads_z: str) -> History:
        b = HistoryBuilder(initial={"x": 0, "y": 0, "z": 0})
        b.txn("t1", "s1").write("x", 1).write("y", 1)
        b.txn("t2", "s2").read("x", writer=t2_reads_x).write("z", 1)
        t3 = b.txn("t3", "s3")
        t3.read("y", writer="t1").read("z", writer=t3_reads_z)
        return b.build()

    observed = build("t1", "t2")
    predicted = build("t0", "t0")
    return observed, predicted


def _fig10_gh() -> tuple[History, History]:
    """Fig. 10g/h pattern (TPC-C): four sessions, one repointed read.

    t2 keeps reading k from t1 but its read of y moves to t0; the predicted
    cycle is t2 -> t4 (rw_y), t4 -> t3 (wr_z), t3 -> t2 (rw_x, justified by
    pco(t1, t2) through the retained wr_k edge).
    """
    def build(t2_reads_y: str) -> History:
        b = HistoryBuilder(initial={"x": 0, "y": 0, "z": 0, "k": 0})
        b.txn("t1", "s1").write("k", 1).write("x", 1)
        t2 = b.txn("t2", "s2")
        t2.write("x", 2).read("k", writer="t1").read("y", writer=t2_reads_y)
        t3 = b.txn("t3", "s3")
        t3.read("x", writer="t1").read("z", writer="t4")
        b.txn("t4", "s4").write("y", 1).write("z", 1)
        return b.build()

    observed = build("t4")
    predicted = build("t0")
    return observed, predicted


def shard_transfer_observed() -> History:
    """Cross-shard transfer pattern: two transfers out of one hot account.

    Not from the paper — the minimal history of the sharded scenario
    workloads (PR 5). Account ``acct_a`` lives on one shard, the transfer
    destinations ``acct_b``/``acct_c`` on another, so each transaction
    spans two shards. Observed serially: t1 moves 30 a→b, then t2 (which
    read a from t1) moves 30 a→c. Serializable.
    """
    b = HistoryBuilder(initial={"acct_a": 100, "acct_b": 100, "acct_c": 100})
    t1 = b.txn("t1", "s1")
    t1.read("acct_a", writer="t0", value=100)
    t1.write("acct_a", 70).write("acct_b", 130)
    t2 = b.txn("t2", "s2")
    t2.read("acct_a", writer="t1", value=70)
    t2.write("acct_a", 40).write("acct_c", 130)
    return b.build()


def shard_transfer_predicted() -> History:
    """The cross-shard lost update: both transfers read the initial balance.

    Repointing t2's read of ``acct_a`` to t0 makes t1's debit vanish
    (30 currency units created out of nothing — the conservation assertion
    the :class:`~repro.bench_apps.ShardTransfer` app checks). Causal and
    rc, but unserializable: t1 and t2 both read-then-write ``acct_a``.
    On a ``sharded:N:local`` store the two shards involved never
    coordinated, which is what makes this the canonical cross-shard
    anomaly shape.
    """
    b = HistoryBuilder(initial={"acct_a": 100, "acct_b": 100, "acct_c": 100})
    t1 = b.txn("t1", "s1")
    t1.read("acct_a", writer="t0", value=100)
    t1.write("acct_a", 70).write("acct_b", 130)
    t2 = b.txn("t2", "s2")
    t2.read("acct_a", writer="t0", value=100)
    t2.write("acct_a", 70).write("acct_c", 130)
    return b.build()


def mined_session_stale_read_observed() -> History:
    """Observed counterpart of the fuzzer-mined stale-session-read anomaly.

    One session, two transactions: t1 writes ``k2``, its successor t2
    reads it back. Serializable — exactly what a serial recording of the
    mined plan produces.
    """
    b = HistoryBuilder(initial={"k2": 0})
    b.txn("t1", "s1").write("k2", 6)
    b.txn("t2", "s1").read("k2", writer="t1", value=6)
    return b.build()


def mined_session_stale_read_predicted() -> History:
    """The smallest anomaly the coverage-guided fuzzer mined (PR 6).

    Not from the paper: transcribed from a minimized corpus witness
    (``tests/corpus/``, shape ``iso=rc|cycle=rw.so``). A session writes
    ``k2`` and its *own next transaction* reads the pre-session value from
    t0 — legal under read committed, but ``rw(t2, t1)`` against
    ``so(t1, t2)`` closes the pco cycle, so the session observably
    "forgets" its own write. Two transactions, one key: smaller than any
    figure-derived witness in this gallery, which is the point of mining.
    """
    b = HistoryBuilder(initial={"k2": 0})
    b.txn("t1", "s1").write("k2", 6)
    b.txn("t2", "s1").read("k2", writer="t0", value=0)
    return b.build()


def fig10_patterns() -> dict[str, tuple[History, History]]:
    """The four observed/predicted pattern pairs of Fig. 10 (a–h)."""
    return {
        "smallbank_ab": _fig10_ab(),
        "smallbank_cd": _fig10_cd(),
        "tpcc_ef": _fig10_ef(),
        "tpcc_gh": _fig10_gh(),
    }
