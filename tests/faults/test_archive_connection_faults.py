"""The shared archive connection under faults: a failed write closes it.

A campaign run keeps one SQLite connection for all its rounds. A persist
attempt that raises must roll back (no partial row) and close that
connection, so the retry opens a fresh one and the archive ends up with
exactly the rows of a fault-free run.
"""
import sqlite3

from repro.campaign import CampaignExecutor, CampaignSpec
from repro.faults import reset_fault_state


def campaign(archive):
    return CampaignSpec(
        name="conn-faults",
        apps=("smallbank",),
        isolation_levels=("causal",),
        strategies=("approx-relaxed",),
        workloads=("tiny",),
        seeds=4,
        max_seconds=60.0,
        backend=f"sqlite:{archive}",
    )


def rows(archive) -> list:
    conn = sqlite3.connect(str(archive))
    try:
        return conn.execute(
            "SELECT id, phase, seed, sessions, transactions, doc"
            " FROM executions ORDER BY id"
        ).fetchall()
    finally:
        conn.close()


def spy_connects(monkeypatch, archive, factory=None):
    """Record every connection opened on ``archive``."""
    opened = []
    real = sqlite3.connect

    def connect(database, *args, **kwargs):
        if str(database) != str(archive):
            return real(database, *args, **kwargs)
        if factory is not None:
            kwargs["factory"] = factory
        conn = real(database, *args, **kwargs)
        opened.append(conn)
        return conn

    monkeypatch.setattr(sqlite3, "connect", connect)
    return opened


def comparable(report) -> list:
    return sorted(
        (r.comparable_dict() for r in report.results),
        key=lambda r: r["round_id"],
    )


def test_busy_persist_reopens_and_lands_one_row_each(
    tmp_path, monkeypatch, fast_retries
):
    clean = tmp_path / "clean" / "runs.sqlite"
    clean.parent.mkdir()
    baseline = CampaignExecutor(campaign(clean)).run()

    faulted = tmp_path / "faulted" / "runs.sqlite"
    faulted.parent.mkdir()
    opened = spy_connects(monkeypatch, faulted)
    reset_fault_state()  # hit counts are per process: start from zero
    # the second persist fails twice on the run's open connection
    report = CampaignExecutor(
        campaign(faulted), fault_plan="store.sqlite.persist:busy@1*2"
    ).run()
    injected = [r.faults.get("injected", {}) for r in report.results]
    assert [i for i in injected if i] == [{"store.sqlite.persist:busy": 2}]
    # one connection before the fault, one fresh after it
    assert len(opened) == 2
    assert report.errors == 0
    assert [r[1:] for r in rows(faulted)] == [r[1:] for r in rows(clean)]
    assert [r["status"] for r in comparable(report)] == [
        r["status"] for r in comparable(baseline)
    ]


class FailsAfterInsert(sqlite3.Connection):
    """Raises a lock error once, after an INSERT ran inside its transaction."""

    armed = True

    def execute(self, sql, *args):
        cursor = super().execute(sql, *args)
        if sql.startswith("INSERT INTO executions") and FailsAfterInsert.armed:
            FailsAfterInsert.armed = False
            raise sqlite3.OperationalError("database is locked (test)")
        return cursor


def test_failed_attempt_rolls_back_and_retries_on_a_fresh_connection(
    tmp_path, monkeypatch, fast_retries
):
    clean = tmp_path / "clean" / "runs.sqlite"
    clean.parent.mkdir()
    CampaignExecutor(campaign(clean)).run()

    faulted = tmp_path / "faulted" / "runs.sqlite"
    faulted.parent.mkdir()
    FailsAfterInsert.armed = True
    opened = spy_connects(monkeypatch, faulted, factory=FailsAfterInsert)
    report = CampaignExecutor(campaign(faulted)).run()
    assert not FailsAfterInsert.armed  # the failure did fire
    assert report.errors == 0
    assert len(opened) == 2
    first, retry = opened
    assert first is not retry
    # the failed attempt's INSERT was rolled back: no partial row, and
    # the ids are those of a fault-free run
    assert rows(faulted) == rows(clean)
