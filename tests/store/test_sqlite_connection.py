"""One archive connection per campaign run, and sources compaction never writes.

A campaign run opens its SQLite archive once and closes it when the run
ends; a pool-style bare ``run_round`` opens and closes its own. While the
run's connection is open, a separate reader sees every committed row (the
``watch`` tail invariant). The CLI commands and an ``Analysis`` that
built its backend from a spec close the archive when they are done.
Compaction and the archive readers open the file through read-only
connections, so its bytes and journal mode do not change, and reading a
missing archive creates no file.
"""
import hashlib
import sqlite3

import pytest

from repro.campaign import CampaignExecutor, CampaignSpec, run_round
from repro.gallery import deposit_observed
from repro.store.backends import (
    compact_archive,
    count_executions,
    iter_executions,
    latest_execution_id,
    load_execution,
)
from repro.store.backends.sqlite import persist_execution


class ConnectSpy:
    """Wraps ``sqlite3.connect``; keeps every connection it handed out."""

    def __init__(self, monkeypatch, path):
        self.path = str(path)
        self.opened = []
        real = sqlite3.connect

        def connect(database, *args, **kwargs):
            conn = real(database, *args, **kwargs)
            if str(database) == self.path:
                self.opened.append(conn)
            return conn

        monkeypatch.setattr(sqlite3, "connect", connect)

    def open_now(self):
        return [conn for conn in self.opened if is_open(conn)]


def is_open(conn) -> bool:
    try:
        conn.execute("SELECT 1")
    except sqlite3.ProgrammingError:
        return False
    return True


def campaign(archive, seeds=10):
    return CampaignSpec(
        name="conn",
        apps=("smallbank",),
        isolation_levels=("causal",),
        strategies=("approx-relaxed",),
        workloads=("tiny",),
        seeds=seeds,
        max_seconds=60.0,
        backend=f"sqlite:{archive}",
    )


class TestConnectionLifetime:
    def test_inline_campaign_opens_its_archive_once(
        self, tmp_path, monkeypatch
    ):
        archive = tmp_path / "runs.sqlite"
        spy = ConnectSpy(monkeypatch, archive)
        spec = campaign(archive)
        report = CampaignExecutor(spec, jobs=1).run()
        assert len(report.results) == 10 and report.errors == 0
        assert len(spy.opened) == 1
        assert spy.open_now() == []
        # every round recorded, and the sat rounds replayed, on that one
        assert count_executions(archive, "record") == 10
        assert count_executions(archive) >= 10

    def test_bare_run_round_closes_what_it_opens(
        self, tmp_path, monkeypatch
    ):
        archive = tmp_path / "runs.sqlite"
        spy = ConnectSpy(monkeypatch, archive)
        result = run_round(campaign(archive, seeds=1).rounds()[0])
        assert result.status != "error", result.error
        assert len(spy.opened) == 1
        assert spy.open_now() == []

    def test_reader_sees_each_row_while_the_run_is_open(
        self, tmp_path, monkeypatch
    ):
        archive = tmp_path / "runs.sqlite"
        spy = ConnectSpy(monkeypatch, archive)
        seen = []

        def after_round(message):
            # logged after each round: the run's connection is still open
            assert len(spy.open_now()) == 1
            cursor = seen[-1][0] if seen else 0
            rows = list(iter_executions(archive, "record", after_id=cursor))
            assert len(rows) == 1
            assert latest_execution_id(archive) >= rows[0][0]
            seen.append(rows[0])

        CampaignExecutor(campaign(archive, seeds=4), log=after_round).run()
        assert len(seen) == 4
        assert [row_id for row_id, _ in seen] == sorted(
            row_id for row_id, _ in seen
        )
        assert spy.open_now() == []


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def journal_mode(path) -> str:
    conn = sqlite3.connect(str(path))
    try:
        return conn.execute("PRAGMA journal_mode").fetchone()[0].lower()
    finally:
        conn.close()


def tables(path) -> set:
    conn = sqlite3.connect(str(path))
    try:
        return {
            name
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
    finally:
        conn.close()


class TestCompactionSourcesAreReadOnly:
    def test_rollback_journal_source_is_unchanged(self, tmp_path):
        # an archive written by another tool: rollback journal, no format
        source = tmp_path / "legacy.sqlite"
        conn = sqlite3.connect(str(source))
        with conn:
            conn.execute(
                "CREATE TABLE executions (id INTEGER PRIMARY KEY"
                " AUTOINCREMENT, phase TEXT NOT NULL, seed INTEGER NOT NULL,"
                " sessions INTEGER NOT NULL, transactions INTEGER NOT NULL,"
                " doc TEXT NOT NULL)"
            )
            conn.execute(
                "INSERT INTO executions"
                " (phase, seed, sessions, transactions, doc)"
                " VALUES ('record', 0, 1, 1, '{}')"
            )
        conn.close()
        digest, mode = sha256(source), journal_mode(source)
        assert mode == "delete"
        stats = compact_archive(tmp_path / "merged.sqlite", [source])
        assert stats.rows_out == 1
        assert sha256(source) == digest
        assert journal_mode(source) == mode
        assert tables(source) == {"executions", "sqlite_sequence"}

    def test_wal_source_is_unchanged(self, tmp_path):
        source = tmp_path / "worker.sqlite"
        persist_execution(
            source, deposit_observed(), phase="record", seed=0, sessions=2
        )
        digest = sha256(source)
        assert journal_mode(source) == "wal"
        stats = compact_archive(tmp_path / "merged.sqlite", [source])
        assert stats.rows_out == 1
        assert sha256(source) == digest
        assert journal_mode(source) == "wal"

    def test_newer_schema_source_is_refused(self, tmp_path):
        source = tmp_path / "future.sqlite"
        persist_execution(
            source, deposit_observed(), phase="record", seed=0, sessions=2
        )
        conn = sqlite3.connect(str(source))
        with conn:
            conn.execute(
                "UPDATE format SET value = '99'"
                " WHERE key = 'schema_version'"
            )
        conn.close()
        with pytest.raises(ValueError, match="schema version 99"):
            compact_archive(tmp_path / "merged.sqlite", [source])


class TestReadersAreReadOnly:
    def test_reading_a_rollback_journal_archive_changes_nothing(
        self, tmp_path
    ):
        archive = tmp_path / "legacy.sqlite"
        persist_execution(
            archive, deposit_observed(), phase="record", seed=0, sessions=2
        )
        conn = sqlite3.connect(str(archive))
        conn.execute("PRAGMA journal_mode = DELETE")
        conn.close()
        digest = sha256(archive)
        assert journal_mode(archive) == "delete"
        assert count_executions(archive) == 1
        assert latest_execution_id(archive) == 1
        [(execution_id, trace)] = list(iter_executions(archive))
        assert load_execution(archive, execution_id).history is not None
        assert sha256(archive) == digest
        assert journal_mode(archive) == "delete"

    def test_archive_without_executions_table_reads_as_empty(
        self, tmp_path
    ):
        archive = tmp_path / "other.sqlite"
        conn = sqlite3.connect(str(archive))
        with conn:
            conn.execute("CREATE TABLE notes (text TEXT)")
        conn.close()
        digest = sha256(archive)
        assert count_executions(archive) == 0
        assert latest_execution_id(archive) == 0
        assert list(iter_executions(archive)) == []
        with pytest.raises(KeyError):
            load_execution(archive, 1)
        assert sha256(archive) == digest
        assert tables(archive) == {"notes"}

    def test_reading_a_missing_archive_creates_no_file(self, tmp_path):
        missing = tmp_path / "nope.sqlite"
        with pytest.raises(FileNotFoundError):
            count_executions(missing)
        with pytest.raises(FileNotFoundError):
            load_execution(missing, 1)
        with pytest.raises(FileNotFoundError):
            list(iter_executions(missing))
        assert latest_execution_id(missing) == 0
        assert list(tmp_path.iterdir()) == []

    def test_newer_schema_is_refused_by_readers(self, tmp_path):
        archive = tmp_path / "future.sqlite"
        persist_execution(
            archive, deposit_observed(), phase="record", seed=0, sessions=2
        )
        conn = sqlite3.connect(str(archive))
        with conn:
            conn.execute(
                "UPDATE format SET value = '99'"
                " WHERE key = 'schema_version'"
            )
        conn.close()
        for read in (count_executions, latest_execution_id,
                     lambda path: list(iter_executions(path))):
            with pytest.raises(ValueError, match="schema version 99"):
                read(archive)


class TestCommandsCloseTheirArchive:
    """Each CLI command closes the archive its --backend/--archive opened,
    instead of leaving the connection to garbage collection."""

    def test_fuzz_iterations_close_their_archives(
        self, tmp_path, monkeypatch
    ):
        from repro.cli import main

        archive = tmp_path / "fuzz.sqlite"
        spy = ConnectSpy(monkeypatch, archive)
        code = main([
            "fuzz", "--iterations", "3", "--k", "1",
            "--max-conflicts", "2000", "--out", str(tmp_path / "out"),
            "--backend", f"sqlite:{archive}", "--quiet",
        ])
        assert code == 0
        assert len(spy.opened) >= 1
        assert spy.open_now() == []

    def test_analyze_closes_its_archive(self, tmp_path, monkeypatch):
        from repro.cli import main

        archive = tmp_path / "analyze.sqlite"
        spy = ConnectSpy(monkeypatch, archive)
        main([
            "analyze", "--app", "smallbank",
            "--backend", f"sqlite:{archive}",
        ])
        assert count_executions(archive, "record") == 1
        assert len(spy.opened) >= 1
        assert spy.open_now() == []

    def test_record_closes_its_archive(self, tmp_path, monkeypatch):
        from repro.cli import main

        archive = tmp_path / "record.sqlite"
        spy = ConnectSpy(monkeypatch, archive)
        assert main([
            "record", "--app", "smallbank",
            "--out", str(tmp_path / "trace.json"),
            "--backend", f"sqlite:{archive}",
        ]) == 0
        assert len(spy.opened) == 1
        assert spy.open_now() == []

    def test_watch_closes_its_archive(self, tmp_path, monkeypatch):
        from repro.cli import main

        archive = tmp_path / "watch.sqlite"
        spy = ConnectSpy(monkeypatch, archive)
        main([
            "watch", "--fuzz", "3", "--runs", "2", "--window", "2",
            "--archive", str(archive), "--quiet",
        ])
        assert count_executions(archive, "record") == 2
        assert len(spy.opened) >= 1
        assert spy.open_now() == []


class TestAnalysisOwnsASpecBackend:
    def test_close_closes_a_backend_built_from_a_spec(self, tmp_path):
        from repro.api import Analysis
        from repro.sources import FuzzSource

        session = Analysis(
            FuzzSource(shape_seed=3), backend=f"sqlite:{tmp_path / 'a.sqlite'}"
        )
        session.recorded
        assert session.backend._conn is not None
        session.close()
        assert session.backend._conn is None

    def test_close_leaves_a_passed_backend_open(self, tmp_path):
        from repro.api import Analysis
        from repro.sources import FuzzSource
        from repro.store.backends import SqliteBackend

        backend = SqliteBackend(tmp_path / "b.sqlite")
        session = Analysis(FuzzSource(shape_seed=3), backend=backend)
        session.recorded
        session.close()
        assert backend._conn is not None
        backend.close()
