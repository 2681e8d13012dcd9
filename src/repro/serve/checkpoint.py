"""Durable watch state: crash-safe checkpoint of cursor + dedup keys.

The exactly-once argument for ``isopredict watch --checkpoint`` rests on
two pieces saved together, atomically:

* the **committed cursor** — the source position *before* the run
  currently being analyzed (advanced only once a run's windows are all
  done), so a crash mid-run resumes by replaying that whole run;
* the **dedup keys** admitted so far — replayed windows re-derive the
  same keys, the preloaded deduper rejects them, and nothing already
  emitted to the findings sink is emitted again.

Every finding therefore appears exactly once across the crash: findings
from fully-analyzed runs are protected by the cursor, findings from the
interrupted run by the keys. (The keys are the byte-identical finding
identity — :func:`repro.serve.dedup.finding_key` is a pure function of
the prediction and window history.)

Saves go through :func:`repro.jsonl.write_atomic`: a crash during the
save leaves either the old checkpoint or the new one, never a torn file.
A missing or corrupt checkpoint loads as ``None`` — the watch starts
fresh, which is always safe (at-least-once analysis, exactly-once
emission still guaranteed by the dedup keys inside the new session).
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Union

from ..jsonl import write_atomic

__all__ = ["WatchCheckpoint"]


class WatchCheckpoint:
    """One JSON file holding a watch session's resume state."""

    VERSION = 1

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def load(self) -> Optional[dict]:
        """The saved state, or ``None`` when absent/corrupt/foreign."""
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) or data.get("version") != self.VERSION:
            return None
        if not isinstance(data.get("cursor"), dict):
            return None
        keys = data.get("dedup_keys")
        if not isinstance(keys, list):
            return None
        return data

    def save(
        self,
        cursor: dict,
        dedup_keys: Iterable[str],
        runs: int = 0,
        findings: int = 0,
    ) -> None:
        """Atomically persist the state (old or new survives a crash)."""
        doc = {
            "version": self.VERSION,
            "cursor": dict(cursor),
            "dedup_keys": sorted(dedup_keys),
            "runs": runs,
            "findings": findings,
        }
        write_atomic(self.path, json.dumps(doc))

    def clear(self) -> None:
        """Remove the checkpoint (a completed bounded session)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
