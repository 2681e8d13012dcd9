"""Computed-once views and indexes agree with the scanning definitions.

``Transaction``'s event views and ``History``'s per-key writer/reader
indexes are built once and kept. These properties pin them, order included,
to the definitions that rescanned every event on each call, on random
histories of at most seven transactions, and check that derived copies
(``with_wr``, ``restrict``) carry views of their own.
"""
import pickle

from hypothesis import given, settings, strategies as st

from repro.history import (
    INIT_TID,
    HistoryBuilder,
    ReadEvent,
    Transaction,
    WriteEvent,
)

KEYS = ("x", "y", "z")


@st.composite
def histories(draw):
    n_sessions = draw(st.integers(min_value=1, max_value=3))
    n_txns = draw(st.integers(min_value=1, max_value=7))
    plans = []
    for i in range(n_txns):
        session = draw(st.integers(min_value=0, max_value=n_sessions - 1))
        ops = draw(
            st.lists(
                st.tuples(st.sampled_from("rw"), st.sampled_from(KEYS)),
                min_size=1,
                max_size=4,
            )
        )
        plans.append((f"t{i + 1}", f"s{session}", ops))
    writers = {k: [INIT_TID] for k in KEYS}
    for tid, _, ops in plans:
        for kind, key in ops:
            if kind == "w" and tid not in writers[key]:
                writers[key].append(tid)
    b = HistoryBuilder(initial={k: 0 for k in KEYS})
    for tid, session, ops in plans:
        tb = b.txn(tid, session)
        for kind, key in ops:
            if kind == "w":
                tb.write(key, tid)
            else:
                candidates = [w for w in writers[key] if w != tid]
                tb.read(key, writer=draw(st.sampled_from(candidates)))
    return b.build()


# -- the scanning definitions the cached views replaced -------------------
def scan_reads(txn):
    return tuple(e for e in txn.events if isinstance(e, ReadEvent))


def scan_writes(txn):
    return tuple(e for e in txn.events if isinstance(e, WriteEvent))


def scan_writers_of(history, key):
    return tuple(
        t.tid
        for t in history.all_transactions()
        if key in {w.key for w in scan_writes(t)}
    )


def scan_readers_of(history, key):
    return tuple(
        t.tid
        for t in history.transactions()
        if key in {r.key for r in scan_reads(t)}
    )


def scan_write_pos(txn, key):
    return next((w.pos for w in scan_writes(txn) if w.key == key), None)


def assert_views_match_scans(history):
    for txn in history.all_transactions():
        assert txn.reads == scan_reads(txn)
        assert txn.writes == scan_writes(txn)
        assert txn.read_keys == {r.key for r in scan_reads(txn)}
        assert txn.write_keys == {w.key for w in scan_writes(txn)}
        assert txn.read_positions() == tuple(r.pos for r in scan_reads(txn))
        for key in KEYS + ("absent",):
            assert txn.write_pos(key) == scan_write_pos(txn, key)
            assert txn.read_positions(key) == tuple(
                r.pos for r in scan_reads(txn) if r.key == key
            )
    for key in KEYS + ("absent",):
        assert history.writers_of(key) == scan_writers_of(history, key)
        assert history.readers_of(key) == scan_readers_of(history, key)
    assert history.reads() == [
        (t, r) for t in history.transactions() for r in scan_reads(t)
    ]


@given(histories())
@settings(max_examples=80, deadline=None)
def test_views_and_indexes_match_scans(history):
    assert_views_match_scans(history)
    assert history.writers_of("x")[0] == INIT_TID


@given(histories(), st.data())
@settings(max_examples=80, deadline=None)
def test_with_wr_copy_carries_its_own_views(history, data):
    assert_views_match_scans(history)  # populate the original's caches
    reads = [
        (txn, read)
        for txn, read in history.reads()
        if len(history.writers_of(read.key)) > 2
    ]
    if not reads:
        return
    txn, read = data.draw(st.sampled_from(reads))
    writer = data.draw(
        st.sampled_from(
            [
                w
                for w in history.writers_of(read.key)
                if w not in (txn.tid, read.writer)
            ]
        )
    )
    moved = history.with_wr({(txn.tid, read.pos): writer})
    assert_views_match_scans(moved)

    def writer_at(h):
        return next(
            r.writer for r in h.transaction(txn.tid).reads if r.pos == read.pos
        )

    assert writer_at(moved) == writer
    assert writer_at(history) == read.writer  # the original keeps its own
    assert_views_match_scans(history)


@given(histories(), st.data())
@settings(max_examples=80, deadline=None)
def test_restrict_copy_carries_its_own_views(history, data):
    assert_views_match_scans(history)
    # keep whole sessions, and only when every kept read's writer is kept
    sessions = sorted(history.sessions())
    kept = data.draw(
        st.lists(st.sampled_from(sessions), unique=True, min_size=1)
    )
    tids = {t.tid for s in kept for t in history.sessions()[s]}
    readers_ok = all(
        r.writer in tids or r.writer == INIT_TID
        for t in history.transactions()
        if t.tid in tids
        for r in t.reads
    )
    if not readers_ok:
        return
    sub = history.restrict(tids)
    assert {t.tid for t in sub.transactions()} == tids
    assert_views_match_scans(sub)
    for key in KEYS:
        assert set(sub.readers_of(key)) <= tids
        assert set(sub.writers_of(key)) <= tids | {INIT_TID}
    assert_views_match_scans(history)


@given(histories())
@settings(max_examples=40, deadline=None)
def test_transaction_pickles_compares_and_hashes_as_before(history):
    assert_views_match_scans(history)  # every view is computed and kept
    for txn in history.all_transactions():
        bare = Transaction(  # an equal transaction with nothing computed
            tid=txn.tid,
            session=txn.session,
            index=txn.index,
            events=txn.events,
            commit_pos=txn.commit_pos,
        )
        copy = pickle.loads(pickle.dumps(txn))
        for other in (bare, copy):
            assert other == txn
            assert hash(other) == hash(txn)
            assert repr(other) == repr(txn)
            assert other.reads == scan_reads(txn)
            assert other.write_keys == {w.key for w in scan_writes(txn)}
