"""Unserializability (paper §4.2, Appendix B.2), decided per candidate.

Neither strategy asserts unserializability in the solver. The solver
enumerates candidate predictions that satisfy feasibility + isolation, and
each fixed candidate is checked outside it (see ``docs/architecture.md``):

* **Approximate** (§4.2.2) — the candidate is a prediction when its pco
  least fixpoint (:func:`repro.isolation.axioms.pco_cycle`) is cyclic.
  Sufficient but in principle incomplete; the fixpoint is built bottom-up
  from so ∪ wr, so no edge can justify itself.
* **Exact** (§4.2.1) — the paper uses a universally quantified constraint
  ("no commit order serializes the prediction"). Our quantifier-free
  substrate realizes the same semantics by CEGIS: check each candidate's
  serializability with the session-frontier search of
  :mod:`repro.isolation.checkers`.

Both instantiate the quantifier at each serializable candidate's witness
order (:func:`not_serialized_by`) and exclude each other rejected or
accepted candidate with :func:`blocking_clause`.
"""
from __future__ import annotations

import itertools

from ..smt import FALSE, TRUE, And, Expr, Not, Or
from .encoder import Encoding

__all__ = [
    "assignment_of",
    "blocking_clause",
    "exact_expansion_constraints",
    "not_serialized_by",
    "witness_order",
]


def exact_expansion_constraints(enc: Encoding, max_txns: int = 7) -> list[Expr]:
    """B.2.1's quantified constraint, expanded over all commit orders.

    The paper asserts ``forall co. not IsSerializable(co)``. Over a finite
    transaction set the quantifier is a finite conjunction of
    :func:`not_serialized_by` over every permutation π (t0 first — it is
    so-before everything).

    Factorial blow-up restricts this to small histories (``max_txns``); it
    exists as the semantics-faithful oracle against which the CEGIS
    realization of the exact strategy is tested.
    """
    tids = enc.tids
    if len(tids) - 1 > max_txns:
        raise ValueError(
            f"exact expansion over {len(tids) - 1} transactions exceeds "
            f"max_txns={max_txns} ({len(tids) - 1}! permutations)"
        )
    return [
        not_serialized_by(enc, [tids[0], *perm])
        for perm in itertools.permutations(tids[1:])
    ]


def not_serialized_by(enc: Encoding, order: list[str]) -> Expr:
    """One instance of ``not IsSerializable(co)``: with co fixed to ``order``.

    True exactly when the predicted execution is *not* serialized by
    ``order`` (a permutation of ``enc.tids``): some pair that ``order``
    runs backwards is ordered by so, wr or arbitration-under-``order``.
    With the order fixed, every co comparison is a constant, so this is a
    plain Boolean formula over the choice and boundary variables. The
    exact strategy's CEGIS adds it for each serializable candidate's
    witness order (lazy instantiation of the quantifier).
    """
    position = {tid: i for i, tid in enumerate(order)}
    violations: list[Expr] = []
    for (t1, t2) in enc.pairs():
        if position[t1] < position[t2]:
            continue  # the order respects this pair; cannot be the violation
        violations.append(
            Or(
                TRUE if enc.so(t1, t2) else FALSE,
                enc.wr(t1, t2),
                _arbitration_under(enc, t1, t2, position),
            )
        )
    return Or(*violations)


def witness_order(enc: Encoding, commit_order: list[str]) -> list[str]:
    """A candidate's witness commit order, extended to all of ``enc.tids``.

    ``commit_order`` serializes the candidate's own transactions; those its
    boundaries excluded are appended per session in session order, so the
    result is a permutation of ``enc.tids`` that respects so and can be
    passed to :func:`not_serialized_by`.
    """
    seen = set(commit_order)
    excluded = sorted(
        (tid for tid in enc.tids if tid not in seen),
        key=lambda tid: (enc.session_of(tid), enc.txn(tid).index),
    )
    return [*commit_order, *excluded]


def _arbitration_under(
    enc: Encoding, t1: str, t2: str, position: dict[str, int]
) -> Expr:
    """Equation 1's arbitration with a fixed commit order (B.2.1)."""
    shared = enc.txn(t1).write_keys & enc.txn(t2).write_keys
    disjuncts = []
    for key in sorted(shared):
        for t3 in enc.tids:
            if t3 in (t1, t2):
                continue
            if key not in enc.txn(t3).read_keys:
                continue
            if position[t1] >= position[t3]:
                continue  # co(t1) < co(t3) is false under π
            disjuncts.append(
                And(
                    enc.wr_k(key, t2, t3),
                    enc.write_included(t1, key),
                )
            )
    return Or(*disjuncts)


def blocking_clause(enc: Encoding, model) -> Expr:
    """Negate the model's decoded assignment (blocks one candidate).

    Any future model must differ in one session's boundary or in the
    writer of one read inside the boundaries, so it decodes to a different
    history: exactly the space the k-prediction enumeration walks.
    """
    choices, boundaries = assignment_of(enc, model)
    fixed = [
        enc.choice[key].eq(value) for key, value in choices.items()
    ] + [
        enc.boundary[session].eq(value)
        for session, value in boundaries.items()
    ]
    return Or(*[Not(f) for f in fixed])


def assignment_of(enc: Encoding, model) -> tuple[dict, dict]:
    """The model's decoded (choice, boundary) assignment, by encoding key.

    Keyed by the encoding's stable identifiers — ``(tid, read position)``
    for choices, session name for boundaries — so assignments from
    different encodings of one observed history (an approximate and an
    exact strategy's, say) compare directly. Only reads inside their
    session's boundary (position ≤ boundary) are kept: the decoder drops
    the others, and no constraint touches their choice variables, so
    models differing only there are one prediction.
    """
    boundaries = {
        session: model.enum_value(var)
        for session, var in enc.boundary.items()
    }
    choices = {
        (tid, pos): model.enum_value(var)
        for (tid, pos), var in enc.choice.items()
        if pos <= boundaries[enc.session_of(tid)]
    }
    return choices, boundaries
