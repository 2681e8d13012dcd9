"""Replay-and-check validation (paper §5, §6).

The validating execution is produced by re-running the (deterministic,
seeded) session programs on a fresh store whose reads are steered by
:class:`repro.store.DirectedReplayPolicy`. Transactions execute serially in
a linearization of the predicted history's hb relation, so every read runs
after its predicted writer. Execution covers exactly the transactions of the
predicted prefix — each is either on its session's boundary or so-before it
(§5's "on the boundary or happens-before a transaction on the boundary") —
then the remaining program suffixes are halted.

The final check decides the validating history's serializability exactly
(fixed history — "more efficient than unserializable", §5): an
unserializable verdict confirms the prediction as a feasible unserializable
execution.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..history.model import History, INIT_TID
from ..history.relations import hb_pairs, topological_order
from ..isolation.checkers import is_serializable, is_valid_under
from ..isolation.levels import IsolationLevel
from ..obs import span as obs_span
from ..store.backend import StoreBackend, execute
from ..store.scheduler import Program
from ..store.policies import DirectedReplayPolicy

__all__ = ["ValidationReport", "validate_prediction"]


@dataclass
class ValidationReport:
    """Outcome of validating one predicted execution."""

    validated: bool  # feasible AND unserializable
    diverged: bool
    validating: History
    isolation: IsolationLevel
    divergences: list = field(default_factory=list)
    seconds: float = 0.0

    def __bool__(self) -> bool:
        return self.validated


def _turn_order(predicted: History) -> list[str]:
    """Session turns: one per predicted transaction, in hb-consistent order."""
    tids = [t.tid for t in predicted.transactions()]
    hb = [
        (a, b)
        for (a, b) in hb_pairs(predicted)
        if a != INIT_TID and b != INIT_TID
    ]
    order = topological_order(tids, hb)
    return [predicted.transaction(tid).session for tid in order]


def validate_prediction(
    predicted: History,
    programs: dict[str, Program],
    isolation: IsolationLevel,
    observed: Optional[History] = None,
    seed: int = 0,
    initial: Optional[dict[str, object]] = None,
    backend: Optional[StoreBackend] = None,
) -> ValidationReport:
    """Replay ``programs`` steering reads toward ``predicted``; check result.

    ``programs`` and ``seed`` must match the observed recording run — the
    paper's determinism requirement (§7.1). ``observed`` enables the §5
    fallback of re-reading the observed writer upon divergence.
    ``backend`` selects where the replay executes (default: in-memory).
    """
    with obs_span("validate.replay") as replay_span:
        policy = DirectedReplayPolicy(predicted, isolation, observed=observed)
        run = execute(
            programs,
            lambda session: policy,
            backend=backend,
            initial=dict(initial or predicted.initial_values),
            seed=seed,
            turn_order=_turn_order(predicted),
        )
        validating = run.history
        divergences = list(policy.divergences)
        diverged = bool(divergences) or _structure_differs(
            predicted, validating
        )
        serializable = bool(is_serializable(validating))
        feasible_weak = is_valid_under(validating, isolation)
    return ValidationReport(
        validated=(not serializable) and feasible_weak,
        diverged=diverged,
        validating=validating,
        isolation=isolation,
        divergences=divergences,
        seconds=replay_span.duration,
    )


def _structure_differs(predicted: History, validating: History) -> bool:
    """Whether the validating run dropped or reshaped a predicted prefix.

    The boundary transaction executes *in full* during validation, so the
    validating transaction may legitimately have more events than its
    (possibly truncated) predicted counterpart; only a missing slot, or a
    predicted event sequence that is not a prefix of the validating one,
    counts as structural divergence (e.g. a predicted-committed transaction
    aborting, Fig. 9d).
    """
    val_slots = {
        (t.session, t.index): t for t in validating.transactions()
    }
    for pred in predicted.transactions():
        val = val_slots.get((pred.session, pred.index))
        if val is None:
            return True
        pred_reads = [r.key for r in pred.reads]
        val_reads = [r.key for r in val.reads]
        if val_reads[: len(pred_reads)] != pred_reads:
            return True
        if not {w.key for w in pred.writes} <= {w.key for w in val.writes}:
            return True
    return False
