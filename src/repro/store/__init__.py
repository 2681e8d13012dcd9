"""Transactional key–value data store (MonkeyDB equivalent).

The store plays MonkeyDB's three roles from the paper:

* **record** serializable observed executions (serial scheduler + latest
  -writer reads),
* **explore** weak behaviours randomly (serial scheduler + random
  isolation-legal reads — MonkeyDB's testing mode, §7.3),
* **replay** predicted executions for validation (directed reads, §5).

A fourth mode — the statement-interleaved read-committed executor — stands
in for MySQL in the Table 7 comparison (the repository runs no external
database).
"""
from .backend import BackendRun, StoreBackend, execute
from .backends import (
    KNOWN_STORE_BACKENDS,
    ShardedBackend,
    ShardedStore,
    ShardRouter,
    SqliteBackend,
    make_store_backend,
    store_backend_spec,
)
from .kvstore import DataStore
from .client import Client, SessionHalted
from .policies import (
    DirectedReplayPolicy,
    LatestWriterPolicy,
    RandomIsolationPolicy,
    ReadContext,
    ReadPolicy,
    legal_writers,
)
from .scheduler import InterleavedScheduler, SerialScheduler

__all__ = [
    "BackendRun",
    "Client",
    "DataStore",
    "KNOWN_STORE_BACKENDS",
    "ShardRouter",
    "ShardedBackend",
    "ShardedStore",
    "SqliteBackend",
    "StoreBackend",
    "execute",
    "make_store_backend",
    "store_backend_spec",
    "DirectedReplayPolicy",
    "InterleavedScheduler",
    "LatestWriterPolicy",
    "RandomIsolationPolicy",
    "ReadContext",
    "ReadPolicy",
    "SerialScheduler",
    "SessionHalted",
    "legal_writers",
]
