"""Drop-in :class:`~repro.store.backend.StoreBackend` implementations.

PR 2 promised that "sharded or multi-store backends are drop-in
implementations rather than a rewrite of the recording layer"; this
package delivers the first two:

* :class:`ShardedBackend` — hash-routes keys across N independent shard
  stores, each with its own recorder, under a configurable cross-shard
  read policy (``"global"`` keeps whole-history read legality, ``"local"``
  judges legality per shard — the behaviour of a store with no cross-shard
  coordination);
* :class:`SqliteBackend` — persists every execution to a SQLite file, so
  recorded traces survive the process and reopen through
  :class:`repro.sources.SqliteTraceSource`.

Backends are selected by *spec* — a string the CLI, the campaign layer and
:class:`repro.api.Analysis` all accept::

    inmemory            the in-process DataStore (default)
    sharded:4           4 hash-routed shards, global read legality
    sharded:4:local     4 shards, per-shard read legality
    sqlite:PATH         persist executions to PATH
    sqlite:PATH?keep=N  same, retaining only the newest N executions

The invariant every backend must keep (enforced by
``tests/integration/test_backend_equivalence.py`` and the CI smoke job):
backends change *where* execution happens and what gets persisted, never
what the analysis sees — for any app and seed, a recording run on
``sharded:1`` or ``sqlite:…`` yields the same history, and therefore the
same prediction verdicts, as ``inmemory``.
"""
from __future__ import annotations

from typing import Optional, Union

from ..backend import StoreBackend
from .sharded import ShardedBackend, ShardedStore, ShardRouter, ShardStore
from .sqlite import (
    CompactionStats,
    SqliteBackend,
    compact_archive,
    count_executions,
    execution_content_hash,
    iter_executions,
    latest_execution_id,
    load_execution,
    prune_executions,
)

__all__ = [
    "CompactionStats",
    "KNOWN_STORE_BACKENDS",
    "ShardRouter",
    "ShardStore",
    "ShardedBackend",
    "ShardedStore",
    "SqliteBackend",
    "close_store_backend",
    "compact_archive",
    "count_executions",
    "execution_content_hash",
    "iter_executions",
    "latest_execution_id",
    "load_execution",
    "make_store_backend",
    "prune_executions",
    "store_backend_spec",
]

#: Store-backend kinds a spec string may name.
KNOWN_STORE_BACKENDS = ("inmemory", "sharded", "sqlite")

#: Accepted spellings of the in-memory default.
_INMEMORY_ALIASES = ("inmemory", "memory", "mem", "")

StoreBackendLike = Union[str, StoreBackend, None]


def make_store_backend(spec: StoreBackendLike) -> Optional[StoreBackend]:
    """Construct (or pass through) a store backend from a selection spec.

    ``None`` and the in-memory aliases return ``None``, the in-process
    default of :func:`~repro.store.backend.execute`; every other spec
    builds a fresh backend instance. Raises :class:`ValueError` on a spec that
    names no known backend, so callers (the CLI in particular) fail with
    one clean message before any execution starts.
    """
    if spec is None:
        return None
    # strings first: the runtime-checkable Protocol test is the costly one
    if not isinstance(spec, str):
        if isinstance(spec, StoreBackend):
            return spec
        raise ValueError(
            f"cannot build a store backend from {spec!r}; expected a spec "
            f"string naming one of {KNOWN_STORE_BACKENDS} or a StoreBackend"
        )
    text = spec.strip()
    kind, _, rest = text.partition(":")
    kind = kind.lower()
    if kind in _INMEMORY_ALIASES:
        if rest:
            raise ValueError(f"the in-memory backend takes no options: {spec!r}")
        return None
    if kind == "sharded":
        return _parse_sharded(rest, spec)
    if kind == "sqlite":
        if not rest:
            raise ValueError(
                f"sqlite backend needs a file path: 'sqlite:PATH' (got {spec!r})"
            )
        return _parse_sqlite(rest, spec)
    raise ValueError(
        f"unknown store backend {spec!r}; expected one of "
        f"{KNOWN_STORE_BACKENDS} (e.g. 'sharded:4', 'sqlite:runs.sqlite')"
    )


def close_store_backend(backend: Optional[StoreBackend]) -> None:
    """Release what ``backend`` holds open, e.g. a SQLite archive connection.

    The owner of a backend built from a spec calls this when it is done;
    backends that hold nothing open (and ``None``) have nothing to close.
    """
    close = getattr(backend, "close", None)
    if close is not None:
        close()


def _parse_sharded(rest: str, spec: str) -> ShardedBackend:
    shards: Optional[int] = None
    cross = "global"
    for part in filter(None, rest.split(":")):
        if part in ("local", "global"):
            cross = part
        else:
            try:
                shards = int(part)
            except ValueError:
                raise ValueError(
                    f"bad sharded backend option {part!r} in {spec!r}; "
                    "expected 'sharded:N[:local|global]'"
                ) from None
    return ShardedBackend(
        shards=2 if shards is None else shards, cross_shard_reads=cross
    )


def _parse_sqlite(rest: str, spec: str) -> SqliteBackend:
    """``sqlite:PATH`` or ``sqlite:PATH?keep=N`` (bounded retention)."""
    path, _, query = rest.partition("?")
    max_runs: Optional[int] = None
    if query:
        key, _, value = query.partition("=")
        if key != "keep" or not value:
            raise ValueError(
                f"bad sqlite backend option {query!r} in {spec!r}; "
                "expected 'sqlite:PATH?keep=N'"
            )
        try:
            max_runs = int(value)
        except ValueError:
            raise ValueError(
                f"bad retention count {value!r} in {spec!r}; "
                "expected 'sqlite:PATH?keep=N'"
            ) from None
    if not path:
        raise ValueError(
            f"sqlite backend needs a file path: 'sqlite:PATH' (got {spec!r})"
        )
    return SqliteBackend(path, max_runs=max_runs)


def store_backend_spec(spec: StoreBackendLike) -> str:
    """The canonical spec string for a backend selection.

    Canonical strings key campaign round ids and JSONL records, so
    equivalent spellings (``"memory"``/``None``, ``"sharded:2:global"`` /
    ``"sharded:2"``) must collapse to one form.
    """
    backend = make_store_backend(spec)
    return "inmemory" if backend is None else backend.spec
