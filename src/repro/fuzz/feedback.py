"""Feedback signals: fingerprinting runs by anomaly shape.

AFL measures coverage in branch edges; this fuzzer measures it in *anomaly
shapes*. Each analyzed scenario is folded into two strings:

* :func:`shape_fingerprint` — the **portable** identity of an
  unserializable find: target isolation level, the canonical pco-cycle
  edge-label signature, how many reads the prediction repointed, and how
  many sessions it truncated. Portable means backend-independent: the
  corpus replay suite asserts the same shape fingerprints reproduce on
  ``inmemory``, ``sharded:N`` and ``sqlite:`` backends, so nothing
  backend-specific may enter it.
* :func:`coverage_key` — the **scheduling** identity: the shape
  fingerprint (or the bare verdict when nothing was found) plus
  cross-shard attribution from store-backend meta and log2-bucketed solver
  counters. Novel coverage keys earn a seed energy; they never gate corpus
  admission, so scheduling heuristics can evolve without invalidating
  checked-in reproducers.

Both are plain ``|``-separated strings — diffable in JSONL, stable across
processes (no hashing of dict ordering anywhere).
"""
from __future__ import annotations

from typing import Optional

from ..history.diff import diff_histories
from ..history.model import History
from ..isolation.axioms import edges_cycle, pco_edges
from ..isolation.levels import IsolationLevel
from ..predict.analysis import PredictionBatch, PredictionResult

__all__ = [
    "cycle_signature",
    "shape_fingerprint",
    "batch_fingerprints",
    "coverage_key",
    "bucket",
]

#: Edge-kind priority when one pair is justified several ways: program
#: order is the strongest explanation, anti-dependency the weakest.
_EDGE_PRIORITY = ("so", "wr", "ww", "rw")

#: Infinite session boundary sentinel (mirrors ``decode_boundaries``).
_INF = 10**9


def cycle_signature(history: History) -> str:
    """Canonical edge-label signature of the history's pco cycle.

    Walks the cycle :func:`pco_cycle` returns, labels each hop with its
    strongest justifying base relation, and canonicalizes the label
    sequence under rotation (a cycle has no distinguished start). Returns
    e.g. ``"rw.rw"`` (write skew), ``"so.rw.wr.rw"``; empty string when the
    history is serializable.
    """
    edges = pco_edges(history)
    cycle = edges_cycle(history, edges)
    if not cycle:
        return ""
    labels = []
    for a, b in zip(cycle, cycle[1:]):
        for kind in _EDGE_PRIORITY:
            if (a, b) in edges[kind]:
                labels.append(kind)
                break
        else:  # pragma: no cover - pco_cycle only walks base edges
            labels.append("?")
    rotations = [
        labels[i:] + labels[:i] for i in range(len(labels))
    ]
    return ".".join(min(rotations))


def bucket(count: int) -> int:
    """Log2 bucket of a solver counter (0, 1, 2, 4, 8, ... → 0, 1, 2, 3, 4)."""
    return int(count).bit_length() if count > 0 else 0


def shape_fingerprint(
    prediction: PredictionResult,
    observed: Optional[History] = None,
) -> str:
    """The portable anomaly-shape identity of one prediction.

    ``iso=<level>|cycle=<signature>|rep=<n>|cut=<m>``: the isolation level
    the prediction targets, the canonical cycle signature, the number of
    distinct read-writer choices changed against ``observed`` (0 when the
    observed history is unavailable), and the number of sessions the
    predicted boundaries actually truncate.
    """
    if prediction.predicted is None:
        raise ValueError("prediction carries no predicted history")
    repointed = 0
    if observed is not None:
        delta = diff_histories(observed, prediction.predicted)
        repointed = len(
            {(r.tid, r.pos) for r in delta.repointed}
        )
    cut = sum(
        1 for pos in prediction.boundaries.values() if pos < _INF
    )
    iso = prediction.isolation
    iso_name = iso.value if isinstance(iso, IsolationLevel) else str(iso)
    return (
        f"iso={iso_name}"
        f"|cycle={cycle_signature(prediction.predicted)}"
        f"|rep={repointed}"
        f"|cut={cut}"
    )


def batch_fingerprints(
    batch: PredictionBatch, observed: Optional[History] = None
) -> list[str]:
    """Shape fingerprints of every prediction in a batch, duplicates kept.

    Order follows the enumeration; callers wanting the distinct set use
    ``sorted(set(...))`` (the corpus stores the sorted distinct list so
    JSONL rows are canonical).
    """
    return [
        shape_fingerprint(p, observed)
        for p in batch.predictions
        if p.predicted is not None
    ]


def coverage_key(
    batch: PredictionBatch,
    observed: Optional[History] = None,
    meta: Optional[dict] = None,
) -> str:
    """The scheduling identity of one analyzed run.

    Extends the distinct shape fingerprints with signals that are real
    feedback but not portable identity:

    * ``verdict`` — the batch status (novel UNSAT/UNKNOWN regions are
      worth some exploration energy too);
    * ``shard`` — cross- vs single-shard attribution from the store
      backend's recording meta (``-`` for shardless backends);
    * ``conf``/``lit`` — log2 buckets of solver conflicts and literal
      count (a proxy for "the encoding found this structurally new").
    """
    meta = meta or {}
    shapes = ",".join(sorted(set(batch_fingerprints(batch, observed))))
    cross = meta.get("cross_shard_txns")
    if cross is None:
        shard = "-"
    else:
        shard = "cross" if cross else "single"
    stats = batch.stats
    return (
        f"{shapes or 'none'}"
        f"|verdict={batch.status.value}"
        f"|shard={shard}"
        f"|conf={bucket(int(stats.get('conflicts', 0)))}"
        f"|lit={bucket(int(stats.get('literals', 0)))}"
    )
