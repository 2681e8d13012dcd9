"""JSON serialization of histories (recorded and predicted traces).

The on-disk format mirrors what the store's recorder captures at the backend
(paper §3: "an observed execution history that is recorded at the client
application's backend data store")::

    {
      "version": 1,
      "meta": {"app": "smallbank", "seed": 3, "isolation": "causal"},
      "initial": {"x": 0},
      "transactions": [
        {"tid": "t1", "session": "s1", "index": 0, "commit_pos": 2,
         "events": [
            {"type": "read", "pos": 0, "key": "x", "writer": "t0", "value": 0},
            {"type": "write", "pos": 1, "key": "x", "value": 50}
         ]}
      ]
    }

Version history: version-0 files (the original format) carry neither
``version`` nor ``meta``; the loader accepts them unchanged. Version 1 adds
the two fields — ``meta`` is free-form provenance (app, seed, isolation,
workload, …) that travels with the trace but never affects the decoded
:class:`~repro.history.model.History`.

``.jsonl`` files hold one version-1 document per line; ``iter_traces``
streams them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

from ..jsonl import JsonlReader
from .events import Event, ReadEvent, WriteEvent
from .model import History, Transaction

__all__ = [
    "TRACE_VERSION",
    "Trace",
    "history_to_json",
    "history_from_json",
    "trace_from_json",
    "save_history",
    "load_history",
    "load_trace",
    "iter_traces",
]

#: Current on-disk trace format version.
TRACE_VERSION = 1


@dataclass
class Trace:
    """A decoded trace document: the history plus its provenance."""

    history: History
    version: int = TRACE_VERSION
    meta: dict = field(default_factory=dict)


def _event_to_json(e: Event) -> dict:
    if isinstance(e, ReadEvent):
        return {
            "type": "read",
            "pos": e.pos,
            "key": e.key,
            "writer": e.writer,
            "value": e.value,
        }
    if isinstance(e, WriteEvent):
        return {"type": "write", "pos": e.pos, "key": e.key, "value": e.value}
    raise TypeError(f"unexpected event {e!r}")


def _event_from_json(d: dict) -> Event:
    if d["type"] == "read":
        return ReadEvent(
            pos=d["pos"], key=d["key"], writer=d["writer"], value=d.get("value")
        )
    if d["type"] == "write":
        return WriteEvent(pos=d["pos"], key=d["key"], value=d.get("value"))
    raise ValueError(f"unknown event type {d['type']!r}")


def history_to_json(history: History, meta: Optional[dict] = None) -> dict:
    return {
        "version": TRACE_VERSION,
        "meta": dict(meta or {}),
        "initial": dict(history.initial_values),
        "transactions": [
            {
                "tid": t.tid,
                "session": t.session,
                "index": t.index,
                "commit_pos": t.commit_pos,
                "events": [_event_to_json(e) for e in t.events],
            }
            for t in history.transactions()
        ],
    }


def _check_version(data: dict) -> int:
    version = data.get("version", 0)
    if not isinstance(version, int) or version < 0:
        raise ValueError(f"bad trace version {version!r}")
    if version > TRACE_VERSION:
        raise ValueError(
            f"trace version {version} is newer than this reader "
            f"(supports <= {TRACE_VERSION})"
        )
    return version


def _decode_history(data: dict) -> History:
    txns = [
        Transaction(
            tid=d["tid"],
            session=d["session"],
            index=d["index"],
            events=tuple(_event_from_json(e) for e in d["events"]),
            commit_pos=d["commit_pos"],
        )
        for d in data["transactions"]
    ]
    return History(txns, initial_values=data.get("initial", {}))


def history_from_json(data: dict) -> History:
    _check_version(data)
    return _decode_history(data)


def trace_from_json(data: dict) -> Trace:
    """Decode a trace document, keeping its version and provenance."""
    version = _check_version(data)
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"trace meta must be an object, got {meta!r}")
    return Trace(
        history=_decode_history(data), version=version, meta=dict(meta)
    )


def save_history(
    history: History,
    path: Union[str, Path],
    meta: Optional[dict] = None,
) -> None:
    Path(path).write_text(
        json.dumps(history_to_json(history, meta=meta), indent=2)
    )


def load_history(path: Union[str, Path]) -> History:
    return history_from_json(json.loads(Path(path).read_text()))


def load_trace(path: Union[str, Path]) -> Trace:
    """Load one trace document (the first, for ``.jsonl`` files)."""
    for trace in iter_traces(path):
        return trace
    raise ValueError(f"no trace documents in {path}")


def iter_traces(path: Union[str, Path]) -> Iterator[Trace]:
    """Yield every trace in ``path``.

    A ``.jsonl`` file holds one document per line, streamed under the
    :mod:`repro.jsonl` rule; anything else is a single JSON document.
    """
    path = Path(path)
    if path.suffix.lower() == ".jsonl":
        yield from JsonlReader(path, trace_from_json)
    else:
        yield trace_from_json(json.loads(path.read_text()))
