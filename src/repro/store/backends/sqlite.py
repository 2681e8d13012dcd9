"""The persistent store backend: every execution lands in a SQLite file.

Execution itself runs on the in-process :class:`~repro.store.kvstore.DataStore`
(the backend changes what gets *persisted*, never what the analysis sees);
when the run completes, the recorded history is serialized with the
standard trace codec (:mod:`repro.history.trace`) and inserted into the
``executions`` table of the backing file. Recorded traces therefore
survive the process and reopen through
:class:`repro.sources.SqliteTraceSource` — the ``TraceFileSource`` shape,
one document per row instead of one per JSONL line — so campaign runs can
leave a durable, queryable archive of everything they executed.

Each row remembers its *phase*: ``record`` (serial recording), ``explore``
(interleaved execution) or ``replay`` (validation under a dictated turn
order). Reopening defaults to the recorded runs, so analyzing the archive
of an ``analyze --backend sqlite:…`` session sees exactly the histories
the in-memory pipeline analyzed.

A :class:`SqliteBackend` writes through one connection of its own,
opened on its first write and kept until :meth:`SqliteBackend.close`, so
a campaign run pays WAL setup and the schema check once rather than once
per execution. Each execution is still its own transaction, retried
under the ambient :class:`~repro.faults.RetryPolicy`; an attempt that
fails rolls back, closes the connection, and the retry opens a fresh
one. WAL journaling and a generous busy-timeout let campaign workers
and a concurrent ``watch`` reader share one archive file: a reader sees
every committed row while the writer's connection stays open. Readers
open the file read-only, so reading never changes an archive or creates
a missing one.
"""
from __future__ import annotations

import hashlib
import json
import sqlite3
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from ...faults import RetryPolicy, fault_point
from ...history.model import History
from ...obs import span as obs_span
from ...history.trace import Trace, history_to_json, trace_from_json
from ..kvstore import DataStore

__all__ = [
    "CompactionStats",
    "SqliteBackend",
    "compact_archive",
    "count_executions",
    "execution_content_hash",
    "iter_executions",
    "latest_execution_id",
    "load_execution",
    "persist_execution",
    "prune_executions",
]

#: Schema version stamped into the archive; readers reject newer files.
SQLITE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS format (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS executions (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    phase TEXT NOT NULL,
    seed INTEGER NOT NULL,
    sessions INTEGER NOT NULL,
    transactions INTEGER NOT NULL,
    doc TEXT NOT NULL
);
"""


def _connect(path: Union[str, Path]) -> sqlite3.Connection:
    conn = sqlite3.connect(str(path), timeout=30.0)
    # WAL lets a tailing reader (isopredict watch) poll while a campaign
    # writer holds its transaction, instead of the two racing to an
    # immediate "database is locked"; busy_timeout backs the same
    # contention window at the statement level. WAL can be refused on
    # exotic filesystems — the archive still works in the default mode.
    try:
        conn.execute("PRAGMA busy_timeout = 30000")
        conn.execute("PRAGMA journal_mode = WAL")
    except sqlite3.OperationalError:
        pass
    conn.executescript(_SCHEMA)
    row = conn.execute(
        "SELECT value FROM format WHERE key = 'schema_version'"
    ).fetchone()
    if row is None:
        conn.execute(
            "INSERT INTO format (key, value) VALUES ('schema_version', ?)",
            (str(SQLITE_SCHEMA_VERSION),),
        )
        conn.commit()
    else:
        try:
            _check_schema_version(path, row[0])
        except ValueError:
            conn.close()
            raise
    return conn


def _check_schema_version(path: Union[str, Path], version: str) -> None:
    if int(version) > SQLITE_SCHEMA_VERSION:
        raise ValueError(
            f"execution archive {path} has schema version {version}, newer "
            f"than this reader (supports <= {SQLITE_SCHEMA_VERSION})"
        )


def _read(path: Union[str, Path], query: str, params: tuple = ()) -> list:
    """The rows of one read ``query`` on the archive at ``path``.

    The connection is read-only (``mode=ro``) and runs no DDL or pragma,
    so the file's bytes and journal mode stay as they were; a WAL archive
    still shows its uncheckpointed rows (SQLite may leave the ``-wal`` and
    ``-shm`` files it needs for that beside it). A missing file raises
    :class:`FileNotFoundError` (nothing is created), an archive with no
    ``executions`` table reads as empty, and a newer schema is refused.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no execution archive at {path}")
    uri = f"{path.resolve().as_uri()}?mode=ro"
    with closing(sqlite3.connect(uri, uri=True, timeout=30.0)) as conn:
        tables = {
            name
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if "format" in tables:
            row = conn.execute(
                "SELECT value FROM format WHERE key = 'schema_version'"
            ).fetchone()
            if row is not None:
                _check_schema_version(path, row[0])
        if "executions" not in tables:
            return []
        return conn.execute(query, params).fetchall()


def persist_execution(
    path: Union[str, Path],
    history: History,
    *,
    phase: str,
    seed: int,
    sessions: int,
    meta: Optional[dict] = None,
) -> int:
    """Append one execution to the archive at ``path``; returns its row id.

    :meth:`SqliteBackend.persist` on a backend of its own, closed again
    before returning — for one-off writes outside an execution loop.
    """
    with closing(SqliteBackend(path)) as backend:
        return backend.persist(
            history, phase=phase, seed=seed, sessions=sessions, meta=meta
        )


def iter_executions(
    path: Union[str, Path],
    phase: Optional[str] = "record",
    after_id: int = 0,
) -> Iterator[tuple[int, Trace]]:
    """Yield ``(execution_id, trace)`` rows, oldest first.

    ``phase`` filters to one execution kind (default: the recorded runs);
    pass ``None`` for every row in the archive. ``after_id`` skips rows at
    or below the given id — ids are monotone, so a tailing reader resumes
    from the last id it saw and a fresh open-read-close poll sees exactly
    the rows that arrived since.
    """
    if phase is None:
        rows = _read(
            path,
            "SELECT id, doc FROM executions WHERE id > ? ORDER BY id",
            (after_id,),
        )
    else:
        rows = _read(
            path,
            "SELECT id, doc FROM executions"
            " WHERE phase = ? AND id > ? ORDER BY id",
            (phase, after_id),
        )
    for execution_id, doc in rows:
        yield int(execution_id), trace_from_json(json.loads(doc))


def latest_execution_id(
    path: Union[str, Path], phase: Optional[str] = None
) -> int:
    """The highest execution id in the archive (0 when empty/missing).

    A tailing reader that wants only *future* rows seeds its cursor here.
    """
    if not Path(path).exists():
        return 0
    if phase is None:
        rows = _read(path, "SELECT MAX(id) FROM executions")
    else:
        rows = _read(
            path, "SELECT MAX(id) FROM executions WHERE phase = ?", (phase,)
        )
    return int(rows[0][0]) if rows and rows[0][0] is not None else 0


def prune_executions(
    path: Union[str, Path],
    max_runs: int,
    phase: Optional[str] = None,
) -> int:
    """Keep only the newest ``max_runs`` rows; returns how many were dropped.

    Retention is by row id (insertion order), oldest first — the archive
    behaves as a bounded ring buffer. With ``phase`` given, only that
    execution kind is counted and pruned; other phases are untouched. Ids
    of surviving rows never change (``AUTOINCREMENT``), so tail cursors
    held by concurrent readers stay valid across a prune.
    """
    if max_runs < 0:
        raise ValueError("max_runs must be >= 0")
    with closing(_connect(path)) as conn:
        return _prune(conn, max_runs, phase)


def _prune(
    conn: sqlite3.Connection, max_runs: int, phase: Optional[str] = None
) -> int:
    with conn:
        if phase is None:
            cursor = conn.execute(
                "DELETE FROM executions WHERE id NOT IN"
                " (SELECT id FROM executions ORDER BY id DESC LIMIT ?)",
                (max_runs,),
            )
        else:
            cursor = conn.execute(
                "DELETE FROM executions WHERE phase = ? AND id NOT IN"
                " (SELECT id FROM executions WHERE phase = ?"
                "  ORDER BY id DESC LIMIT ?)",
                (phase, phase, max_runs),
            )
        return int(cursor.rowcount)


def load_execution(path: Union[str, Path], execution_id: int) -> Trace:
    """Load one persisted execution by its row id."""
    rows = _read(
        path, "SELECT doc FROM executions WHERE id = ?", (execution_id,)
    )
    if not rows:
        raise KeyError(f"no execution {execution_id} in {path}")
    return trace_from_json(json.loads(rows[0][0]))


def count_executions(
    path: Union[str, Path], phase: Optional[str] = None
) -> int:
    if phase is None:
        rows = _read(path, "SELECT COUNT(*) FROM executions")
    else:
        rows = _read(
            path, "SELECT COUNT(*) FROM executions WHERE phase = ?", (phase,)
        )
    return int(rows[0][0]) if rows else 0


def execution_content_hash(
    phase: str, seed: int, sessions: int, transactions: int, doc: str
) -> str:
    """Content identity of one archived execution, independent of row id.

    The trace document is parsed and re-serialized canonically (sorted
    keys, minimal separators) so two rows recording the same execution
    hash equal even if their JSON spellings differ — e.g. rows written by
    different Python versions or re-inserted by an earlier merge. A row
    whose ``doc`` is not valid JSON hashes over the raw text instead of
    failing, so compaction never destroys data it cannot parse.
    """
    try:
        payload: object = json.loads(doc)
    except json.JSONDecodeError:
        payload = doc
    key = json.dumps(
        [phase, seed, sessions, transactions, payload],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CompactionStats:
    """What one :func:`compact_archive` pass did."""

    sources: int  #: source archives merged into the destination
    rows_in: int  #: rows examined (destination + all sources)
    rows_out: int  #: distinct rows in the destination afterwards
    duplicates: int  #: rows dropped/skipped as content-identical
    vacuumed: bool  #: whether the file was VACUUMed afterwards
    bytes_before: int  #: destination file size before the pass
    bytes_after: int  #: destination file size after the pass

    def summary(self) -> str:
        saved = self.bytes_before - self.bytes_after
        return (
            f"compacted: {self.rows_in} rows in "
            f"({self.sources} source archive(s)), {self.rows_out} kept, "
            f"{self.duplicates} duplicate(s) dropped"
            + (f", {saved} bytes reclaimed" if saved > 0 else "")
        )


def compact_archive(
    dest: Union[str, Path],
    sources: Iterable[Union[str, Path]] = (),
    *,
    vacuum: bool = True,
) -> CompactionStats:
    """Dedup ``dest`` in place, fold ``sources`` into it, then VACUUM.

    Rows are identical when their :func:`execution_content_hash` matches;
    the earliest row (lowest id, destination before sources, sources in
    the given order) wins, so surviving ids stay monotone and tail
    cursors held by concurrent readers stay valid. Source archives are
    only read, through read-only connections, never modified: their
    bytes and journal mode stay as they were. After a fleet campaign the
    per-worker archives fold into one reopenable archive and can then be
    deleted by the caller. A missing destination is created empty first, so merging
    N worker archives into a fresh file is the one-step
    ``compact_archive("merged.sqlite", worker_archives)``.

    The whole pass is one transaction retried under the ambient
    :class:`~repro.faults.RetryPolicy` (fault point
    ``store.sqlite.compact``); a failed attempt leaves the destination
    unchanged. VACUUM runs afterwards on its own autocommit connection —
    SQLite refuses it inside a transaction.
    """
    dest = Path(dest)
    source_paths = [Path(s) for s in sources]
    for src in source_paths:
        if not src.exists():
            raise FileNotFoundError(f"no execution archive at {src}")
        if dest.exists() and src.resolve() == dest.resolve():
            raise ValueError(
                f"source {src} is the destination archive; in-place dedup "
                "needs no source list"
            )
    bytes_before = dest.stat().st_size if dest.exists() else 0

    def attempt() -> tuple[int, int, int]:
        fault_point(
            "store.sqlite.compact",
            dest=str(dest),
            sources=len(source_paths),
        )
        seen: dict[str, int] = {}
        rows_in = duplicates = 0
        conn = _connect(dest)
        try:
            with conn:
                rows = conn.execute(
                    "SELECT id, phase, seed, sessions, transactions, doc"
                    " FROM executions ORDER BY id"
                ).fetchall()
                for row_id, *content in rows:
                    rows_in += 1
                    digest = execution_content_hash(*content)
                    if digest in seen:
                        conn.execute(
                            "DELETE FROM executions WHERE id = ?", (row_id,)
                        )
                        duplicates += 1
                    else:
                        seen[digest] = int(row_id)
                for src in source_paths:
                    for content in _read(
                        src,
                        "SELECT phase, seed, sessions, transactions, doc"
                        " FROM executions ORDER BY id",
                    ):
                        rows_in += 1
                        digest = execution_content_hash(*content)
                        if digest in seen:
                            duplicates += 1
                            continue
                        cursor = conn.execute(
                            "INSERT INTO executions"
                            " (phase, seed, sessions, transactions, doc)"
                            " VALUES (?, ?, ?, ?, ?)",
                            tuple(content),
                        )
                        seen[digest] = int(cursor.lastrowid)
        finally:
            conn.close()
        return rows_in, len(seen), duplicates

    policy = RetryPolicy.from_env()
    with obs_span(
        "store.sqlite.compact", dest=str(dest), sources=len(source_paths)
    ) as span:
        rows_in, rows_out, duplicates = policy.call(
            attempt, key=f"store.sqlite.compact|{dest}"
        )
        if vacuum:
            vacuum_conn = sqlite3.connect(str(dest), timeout=30.0)
            try:
                vacuum_conn.isolation_level = None
                vacuum_conn.execute("VACUUM")
            finally:
                vacuum_conn.close()
        bytes_after = dest.stat().st_size if dest.exists() else 0
        span.set(
            rows_in=rows_in, rows_out=rows_out, duplicates=duplicates
        )
    return CompactionStats(
        sources=len(source_paths),
        rows_in=rows_in,
        rows_out=rows_out,
        duplicates=duplicates,
        vacuumed=vacuum,
        bytes_before=bytes_before,
        bytes_after=bytes_after,
    )


class SqliteBackend:
    """In-process execution with a durable SQLite execution archive.

    ``max_runs`` bounds the archive: after each persisted execution the
    oldest rows beyond the limit are pruned (per archive, across phases),
    so a long-lived ingest loop — ``isopredict watch`` feeding a shared
    archive — cannot grow the file without bound. ``None`` (the default)
    keeps everything, preserving the PR 5 archival behavior.

    The backend owns one connection to the archive. It opens on the first
    write, at ``path`` as resolved against the working directory of that
    moment (fleet workers chdir into their workdir first), and serves
    every later persist and prune until :meth:`close`. A write that
    raises closes it, so a broken connection never outlives its fault.
    Like any ``sqlite3`` connection it belongs to the thread that opened
    it: drive one backend from one thread.
    """

    name = "sqlite"

    def __init__(
        self, path: Union[str, Path], max_runs: Optional[int] = None
    ):
        if max_runs is not None and max_runs < 1:
            raise ValueError("max_runs must be >= 1 (or None to keep all)")
        self.path = Path(path)
        self.max_runs = max_runs
        self._conn: Optional[sqlite3.Connection] = None

    def close(self) -> None:
        """Close the archive connection; the next write opens a new one."""
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            self._conn = _connect(self.path)
        return self._conn

    def persist(
        self,
        history: History,
        *,
        phase: str,
        seed: int,
        sessions: int,
        meta: Optional[dict] = None,
    ) -> int:
        """Append one execution to the archive; returns its row id.

        The write is one transaction and retries transient contention
        (locked/busy archive, injected I/O faults) under the ambient retry
        policy before giving up. A failed attempt rolls back, so it leaves
        no partial row, and closes the connection: the retry reopens.
        """
        payload = json.dumps(history_to_json(history, meta=meta))

        def attempt() -> int:
            try:
                fault_point(
                    "store.sqlite.persist", path=str(self.path), phase=phase
                )
                conn = self._connection()
                with conn:  # one transaction per execution
                    cursor = conn.execute(
                        "INSERT INTO executions"
                        " (phase, seed, sessions, transactions, doc)"
                        " VALUES (?, ?, ?, ?, ?)",
                        (phase, seed, sessions, len(history), payload),
                    )
                    return int(cursor.lastrowid)
            except BaseException:
                self.close()
                raise

        policy = RetryPolicy.from_env()
        with obs_span(
            "store.sqlite.persist", phase=phase, transactions=len(history)
        ):
            return policy.call(
                attempt, key=f"store.sqlite.persist|{self.path}"
            )

    @property
    def spec(self) -> str:
        """Canonical selection spec (round ids, JSONL records)."""
        if self.max_runs is not None:
            return f"sqlite:{self.path}?keep={self.max_runs}"
        return f"sqlite:{self.path}"

    def prune(self) -> int:
        """Apply the retention bound now; returns rows dropped."""
        if self.max_runs is None:
            return 0
        try:
            return _prune(self._connection(), self.max_runs)
        except BaseException:
            self.close()
            raise

    def compact(
        self,
        sources: Iterable[Union[str, Path]] = (),
        *,
        vacuum: bool = True,
    ) -> CompactionStats:
        """Dedup this archive (folding ``sources`` in) — see
        :func:`compact_archive`."""
        return compact_archive(self.path, sources, vacuum=vacuum)

    def new_store(self, initial: Optional[dict] = None) -> DataStore:
        return DataStore(initial=initial)

    def finish(
        self, store, history: History, *, phase: str, seed: int,
        sessions: int,
    ) -> dict:
        """Persist the run, then apply the retention bound."""
        execution_id = self.persist(
            history,
            phase=phase,
            seed=seed,
            sessions=sessions,
            meta={"seed": seed, "phase": phase},
        )
        meta = {
            "store_backend": "sqlite",
            "path": str(self.path),
            "phase": phase,
            "execution_id": execution_id,
        }
        pruned = self.prune()
        if pruned:
            meta["pruned"] = pruned
        return meta
