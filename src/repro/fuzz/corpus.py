"""The fuzzing corpus: JSONL-durable finds with full provenance.

One :class:`CorpusEntry` per novel unserializable find. Each row carries
everything needed to re-derive and re-judge it:

* the **plan** (full program JSON — the entry replays without its mutation
  lineage being re-run) plus provenance: parent entry id, mutation trail,
  root shape seed;
* the **configuration** that produced the verdict: isolation level, store
  backend spec, recording seed, prediction count ``k``;
* the **verdict**: batch status, prediction count, the sorted distinct
  shape fingerprints, and the one novel fingerprint that admitted the
  entry;
* the **witness**: the first novel prediction shrunk through
  ``minimize_witness`` into a gallery-sized reproducer (a version-1 trace
  document).

Rows are canonical JSON (sorted keys, no timestamps or timings), so a
reproducible campaign writes a byte-identical corpus — the property the
reproducibility test pins. The file layout follows the campaign JSONL
conventions: append-only, one document per line, resumable by re-reading.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from ..history.model import History
from ..history.trace import history_from_json, history_to_json
from ..jsonl import JsonlReader, open_append
from .plan import ProgramPlan

__all__ = [
    "CORPUS_VERSION",
    "CorpusEntry",
    "PromotionReport",
    "append_entry",
    "load_corpus",
    "promote_entries",
]

#: Corpus row format version.
CORPUS_VERSION = 1


@dataclass
class CorpusEntry:
    """One mined reproducer: plan, provenance, configuration, verdict."""

    id: str
    plan: ProgramPlan
    isolation: str
    backend: str
    record_seed: int
    k: int
    status: str
    predictions: int
    fingerprints: tuple[str, ...]
    novel: str
    witness: Optional[dict] = None
    parent: Optional[str] = None
    trail: tuple[str, ...] = ()
    root_shape_seed: Optional[int] = None
    iteration: Optional[int] = None
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def witness_history(self) -> Optional[History]:
        """The minimized witness decoded back into a :class:`History`."""
        if self.witness is None:
            return None
        return history_from_json(self.witness)

    def to_json(self) -> dict:
        return {
            "version": CORPUS_VERSION,
            "id": self.id,
            "plan": self.plan.to_json(),
            "isolation": self.isolation,
            "backend": self.backend,
            "record_seed": self.record_seed,
            "k": self.k,
            "status": self.status,
            "predictions": self.predictions,
            "fingerprints": list(self.fingerprints),
            "novel": self.novel,
            "witness": self.witness,
            "parent": self.parent,
            "trail": list(self.trail),
            "root_shape_seed": self.root_shape_seed,
            "iteration": self.iteration,
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CorpusEntry":
        version = data.get("version", CORPUS_VERSION)
        if version > CORPUS_VERSION:
            raise ValueError(
                f"corpus row version {version} is newer than this reader "
                f"(supports <= {CORPUS_VERSION})"
            )
        return cls(
            id=data["id"],
            plan=ProgramPlan.from_json(data["plan"]),
            isolation=data["isolation"],
            backend=data["backend"],
            record_seed=data["record_seed"],
            k=data["k"],
            status=data["status"],
            predictions=data["predictions"],
            fingerprints=tuple(data["fingerprints"]),
            novel=data["novel"],
            witness=data.get("witness"),
            parent=data.get("parent"),
            trail=tuple(data.get("trail", ())),
            root_shape_seed=data.get("root_shape_seed"),
            iteration=data.get("iteration"),
            meta=dict(data.get("meta", {})),
        )

    def line(self) -> str:
        """The canonical JSONL row (sorted keys, compact separators)."""
        return json.dumps(
            self.to_json(), sort_keys=True, separators=(",", ":")
        )


def make_witness_doc(history: History, meta: Optional[dict] = None) -> dict:
    """A witness history as an embeddable version-1 trace document."""
    return history_to_json(history, meta=meta)


def append_entry(path: Union[str, Path], entry: CorpusEntry) -> None:
    """Append one corpus row (creates the file and parents as needed;
    a torn final row from an interrupted run is repaired first)."""
    out, _ = open_append(path)
    with out:
        out.write(entry.line() + "\n")


def load_corpus(path: Union[str, Path]) -> list[CorpusEntry]:
    """Every corpus entry in ``path`` (empty list when the file is absent).

    Skips a torn final line under the :mod:`repro.jsonl` rule — an
    interrupted campaign must stay resumable.
    """
    return list(JsonlReader(path, CorpusEntry.from_json))


@dataclass
class PromotionReport:
    """What :func:`promote_entries` did, entry by entry."""

    promoted: list = field(default_factory=list)
    known: list = field(default_factory=list)
    failed: list = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "promoted": [e.id for e in self.promoted],
            "known": [e.id for e in self.known],
            "failed": [e.id for e in self.failed],
        }


def _reverifies(entry: CorpusEntry) -> bool:
    """Replay one entry's recorded configuration; True iff it reproduces.

    The same re-judging the regression suite applies
    (``tests/corpus/test_replay.py``): run the plan under the entry's
    isolation/seed/budget and require the identical verdict — status,
    prediction count, and the full sorted fingerprint set.
    """
    from ..api import Analysis
    from ..sources import FuzzSource
    from .feedback import batch_fingerprints

    session = Analysis(
        FuzzSource(plan=entry.plan, seed=entry.record_seed)
    ).under(entry.isolation)
    kwargs = {"max_seconds": None}
    if "max_conflicts" in entry.meta:
        kwargs["max_conflicts"] = entry.meta["max_conflicts"]
    session.using("approx-relaxed", **kwargs)
    batch = session.predict(entry.k)
    if batch.status.value != entry.status:
        return False
    if len(batch) != entry.predictions:
        return False
    fingerprints = tuple(
        sorted(set(batch_fingerprints(batch, session.history)))
    )
    return fingerprints == entry.fingerprints and entry.novel in fingerprints


def promote_entries(
    source: Union[str, Path],
    dest: Union[str, Path],
    verify: bool = True,
    log=None,
) -> PromotionReport:
    """Promote novel finds from a fuzz-run corpus into a regression corpus.

    Admission mirrors the miner's own novelty rule: an entry is promoted
    iff its ``novel`` fingerprint does not already appear in any ``dest``
    entry's fingerprint set (so re-promoting the same campaign is a
    no-op). With ``verify`` (the default) each candidate is replayed
    first and only reproducing entries land — a find that fails
    re-judging is reported under ``failed``, never silently written into
    the suite it would immediately break.
    """
    dest = Path(dest)
    known_shapes: set[str] = set()
    known_ids: set[str] = set()
    for entry in load_corpus(dest):
        known_shapes.update(entry.fingerprints)
        known_ids.add(entry.id)
    report = PromotionReport()
    for entry in load_corpus(source):
        if entry.novel in known_shapes or entry.id in known_ids:
            report.known.append(entry)
            continue
        if verify and not _reverifies(entry):
            report.failed.append(entry)
            if log:
                log(f"  {entry.id}: verdict did not reproduce — skipped")
            continue
        append_entry(dest, entry)
        known_shapes.update(entry.fingerprints)
        known_ids.add(entry.id)
        report.promoted.append(entry)
        if log:
            log(f"  {entry.id}: promoted ({entry.novel})")
    return report
