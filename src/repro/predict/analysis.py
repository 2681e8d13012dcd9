"""The IsoPredict façade: end-to-end predictive analysis (§3, §4).

Orchestrates encoding, solving and decoding through one enumeration loop
(:class:`PredictionEnumeration`, a CEGIS loop shared by all four
strategies, which differ only in how each candidate is checked), and
reports the timing/size statistics the paper's Tables 4 and 5 track
(constraint generation time, literal count, solving time split by
outcome).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

from ..history.model import History
from ..isolation.axioms import pco_cycle
from ..obs import span as obs_span
from ..isolation.checkers import is_serializable
from ..isolation.levels import IsolationLevel
from ..smt import Result, Solver
from .decode import decode_boundaries, decode_history
from .encoder import Encoding
from .strategies import Budget, BoundaryMode, EncodingMode, PredictionStrategy
from .unserializability import (
    assignment_of,
    blocking_clause,
    not_serialized_by,
    witness_order,
)
from .weak_isolation import isolation_constraints

__all__ = [
    "IsoPredict",
    "PredictionBatch",
    "PredictionEnumeration",
    "PredictionResult",
    "predict_unserializable",
]


@dataclass
class PredictionResult:
    """Outcome of one predictive-analysis query."""

    status: Result
    isolation: IsolationLevel
    strategy: PredictionStrategy
    predicted: Optional[History] = None
    boundaries: dict = field(default_factory=dict)
    cycle: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.status is Result.SAT and self.predicted is not None

    def __bool__(self) -> bool:
        return self.found

    def report(self, observed: Optional[History] = None) -> str:
        """A human-readable account of the prediction.

        With ``observed`` provided, includes the read-level delta (which
        write–read choices changed) — the textual form of the paper's
        blue-edge highlighting.
        """
        lines = [
            f"prediction under {self.isolation} [{self.strategy}]: "
            f"{self.status.value}"
        ]
        stats = self.stats
        lines.append(
            f"  literals={stats.get('literals', 0):,} "
            f"gen={stats.get('gen_seconds', 0.0):.2f}s "
            f"solve={stats.get('solve_seconds', 0.0):.2f}s"
        )
        if not self.found:
            return "\n".join(lines)
        lines.append(
            "  boundaries: "
            + ", ".join(
                f"{s}@{'inf' if p >= 10**9 else p}"
                for s, p in sorted(self.boundaries.items())
            )
        )
        if self.cycle:
            lines.append(f"  pco cycle: {' < '.join(self.cycle)}")
        if observed is not None:
            from ..history.diff import diff_histories

            delta = diff_histories(observed, self.predicted)
            for change in delta.repointed:
                lines.append(f"  changed: {change}")
            for tid, n in sorted(delta.truncated_transactions.items()):
                lines.append(f"  truncated: {tid} (-{n} events)")
            for tid in delta.dropped_transactions:
                lines.append(f"  beyond boundary: {tid}")
        return "\n".join(lines)


@dataclass
class PredictionBatch:
    """Up to *k* distinct predictions enumerated from one observed history.

    Produced by :meth:`IsoPredict.predict_many`, which asserts the encoding
    once and then walks the model space with blocking clauses on a single
    incremental solver — so ``stats`` reflects one constraint generation,
    however many predictions were found. ``status`` is the solver verdict
    that *stopped* the enumeration: ``SAT`` when the requested ``k`` was
    reached, ``UNSAT`` when the candidate space was exhausted first, and
    ``UNKNOWN`` when a budget (time/conflicts/candidates) ran out.
    """

    status: Result
    isolation: IsolationLevel
    strategy: PredictionStrategy
    predictions: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return bool(self.predictions)

    @property
    def best(self) -> Optional[PredictionResult]:
        """The first prediction found (the one ``predict`` would return)."""
        return self.predictions[0] if self.predictions else None

    @property
    def primary(self) -> PredictionResult:
        """The best prediction (an empty UNSAT/UNKNOWN result if none).

        Its ``stats`` carry the batch-level encoding/solving totals, which
        win over the find-time snapshot each prediction records.
        """
        best = self.best
        if best is None:
            return PredictionResult(
                status=self.status,
                isolation=self.isolation,
                strategy=self.strategy,
                stats=dict(self.stats),
            )
        return replace(best, stats={**best.stats, **self.stats})

    def __bool__(self) -> bool:
        return self.found

    def __len__(self) -> int:
        return len(self.predictions)

    def __iter__(self):
        return iter(self.predictions)


class IsoPredict:
    """Predicts feasible unserializable executions from an observed one.

    Parameters mirror the paper's configuration space (isolation level and
    strategy) plus the solver budgets. ``max_candidates``
    bounds the candidates one ``ensure`` call of an exact strategy may
    reject; an approximate walk is bounded by the solver budgets alone,
    so its verdict never depends on how many candidates it refines away.
    """

    def __init__(
        self,
        isolation: IsolationLevel,
        strategy: PredictionStrategy = PredictionStrategy.APPROX_STRICT,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
        max_candidates: int = 64,
        budget: "Budget | str | None" = None,
    ):
        if isolation is IsolationLevel.SERIALIZABLE:
            raise ValueError("prediction targets weak isolation levels")
        self.isolation = isolation
        self.strategy = strategy
        if budget is not None:
            parsed = Budget.parse(budget)
            if parsed.max_seconds is not None:
                max_seconds = parsed.max_seconds
            if parsed.max_conflicts is not None:
                max_conflicts = parsed.max_conflicts
        self.max_conflicts = max_conflicts
        self.max_seconds = max_seconds
        self.max_candidates = max_candidates

    # ------------------------------------------------------------------
    def predict(self, observed: History) -> PredictionResult:
        """Find one feasible unserializable prediction, or report none.

        The ``k = 1`` case of :meth:`predict_many`: the result carries the
        enumeration's totals as its stats (see
        :attr:`PredictionBatch.primary`).
        """
        return self.predict_many(observed, k=1).primary

    def predict_many(
        self, observed: History, k: Optional[int] = None
    ) -> PredictionBatch:
        """Enumerate up to ``k`` *distinct* unserializable predictions.

        The encoding is generated and asserted once; after each candidate a
        blocking or refinement clause is added and the same incremental
        solver is re-checked, so successive predictions cost a few solver
        calls each instead of a full re-encoding. Two predictions are
        distinct exactly when they disagree on some session's boundary or
        on the writer of some read inside the boundaries — that is, when
        they decode to different histories.

        ``max_seconds`` is treated as a budget for the whole enumeration.
        ``k`` defaults to ``max_candidates``. Every strategy walks the
        feasibility+isolation models by CEGIS, blocking each prediction the
        same way (see :class:`PredictionEnumeration`).

        For repeated queries over one observed history (k sweeps, a fluent
        :class:`repro.api.Analysis` session) use :meth:`enumerator`, which
        keeps the incremental solver alive between calls.
        """
        k = self.max_candidates if k is None else k
        if k < 1:
            raise ValueError("k must be >= 1")
        enum = self.enumerator(observed)
        enum.ensure(k, deadline=self._deadline())
        return enum.batch(k)

    def enumerator(self, observed: History) -> "PredictionEnumeration":
        """A persistent, incrementally extensible prediction enumeration."""
        return PredictionEnumeration(self, observed)

    def _deadline(self) -> Optional[float]:
        return (
            time.monotonic() + self.max_seconds
            if self.max_seconds is not None
            else None
        )

    # ------------------------------------------------------------------
    def _build(
        self, observed: History, boundary: BoundaryMode
    ) -> tuple[Encoding, Solver, dict]:
        """Build and compile the feasibility+isolation encoding, timing the
        two stages apart by their spans.

        Returns ``(encoding, solver, timings)`` where ``timings`` carries
        ``encode_seconds`` (expression generation), ``compile_seconds``
        (Tseitin compilation into the SAT core) and their sum
        ``gen_seconds`` (the stat the paper's tables report).
        """
        with obs_span("stage.encode") as enc_span:
            enc = Encoding(observed, boundary=boundary)
            solver = Solver()
            constraints = []
            constraints += enc.feasibility_constraints()
            constraints += isolation_constraints(enc, self.isolation)
            constraints += enc.definitions()
            enc_span.set(constraints=len(constraints))
        with obs_span("stage.compile") as compile_span:
            for c in constraints:
                solver.add(c)
        timings = {
            "encode_seconds": enc_span.duration,
            "compile_seconds": compile_span.duration,
            "gen_seconds": enc_span.duration + compile_span.duration,
        }
        return enc, solver, timings


class PredictionEnumeration:
    """Persistent blocking-clause model walk over one observed history.

    Produced by :meth:`IsoPredict.enumerator`. The encoding is generated
    and asserted once and kept alive between calls: asking for three
    predictions and later for five re-checks the *same* incremental
    solver twice more instead of re-encoding the history — the mechanism a
    fluent analysis session uses to make strategy/k sweeps cheap.

    Every strategy asserts feasibility+isolation alone and runs CEGIS: each
    candidate model is decoded and checked outside the solver
    (:meth:`_check`). An exact strategy (§4.2.1) accepts an unserializable
    candidate; an approximate one (§4.2.2) accepts a candidate whose pco
    least fixpoint is cyclic. A serializable candidate's witness commit
    order refines the encoding (see :meth:`_refine`); an accepted
    candidate, and an approximate strategy's unserializable but
    pco-acyclic one, are blocked alone.

    A ``deadline`` (``time.monotonic`` instant) bounds one ``ensure`` call,
    and so does an exact strategy's candidate budget; hitting either
    reports :data:`Result.UNKNOWN` but leaves the solver state intact, so
    a later call with a fresh budget resumes where it stopped.
    """

    def __init__(self, analyzer: IsoPredict, observed: History):
        self.analyzer = analyzer
        self.observed = observed
        self.predictions: list[PredictionResult] = []
        #: each prediction's (choice, boundary) assignment (``assignment_of``)
        self.assignments: list[tuple[dict, dict]] = []
        self._exact = analyzer.strategy.encoding is EncodingMode.EXACT
        self._status = Result.UNSAT  # verdict that stopped the last extension
        self._exhausted = False  # the whole candidate space is drained
        self._enc = None
        self._solver = None
        self._timings: dict = {}
        self._decode_seconds = 0.0
        self._candidates = 0
        self._released_stats: dict = {}
        self._released = False

    @property
    def stats(self) -> dict:
        """Size/timing stats of the enumeration so far."""
        if self._solver is None:
            stats = dict(self._released_stats)
        else:
            stats = {
                "literals": self._solver.num_literals,
                "clauses": self._solver.num_clauses,
                "vars": self._solver.num_vars,
                "solve_seconds": self._solver.check_seconds,
                "decode_seconds": self._decode_seconds,
                "candidates": self._candidates,
                **self._timings,
                **self._solver.stats,
            }
        stats["predictions"] = len(self.predictions)
        return stats

    # -- the walk -------------------------------------------------------
    def ensure(self, k: int, deadline: Optional[float] = None) -> None:
        """Extend the enumeration until ``k`` predictions exist (if any do).

        Stops early when the candidate space exhausts (``UNSAT``), or when
        the deadline/candidate budget runs out (``UNKNOWN``, resumable).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if self._released:
            if len(self.predictions) >= k:
                return  # already have them; nothing to extend
            raise RuntimeError(
                "enumeration was released; its solver is gone — build a "
                "fresh enumerator to search further"
            )
        if self._solver is None:  # first call ever
            self._enc, self._solver, self._timings = self.analyzer._build(
                self.observed, self.analyzer.strategy.boundary
            )
        rejected = 0  # CEGIS candidates rejected by THIS call
        while len(self.predictions) < k and not self._exhausted:
            budget = _remaining(deadline)
            if budget == 0:
                self._status = Result.UNKNOWN
                return
            status = self._solver.check(
                max_conflicts=self.analyzer.max_conflicts, max_seconds=budget
            )
            if status is Result.UNSAT:
                self._status = Result.UNSAT
                self._exhausted = True
                return
            if status is not Result.SAT:
                self._status = status  # a budget ran out; resumable
                return
            self._candidates += 1
            with obs_span(
                "stage.decode", candidate=self._candidates
            ) as decode_span:
                model = self._solver.model()
                predicted = decode_history(self._enc, model)
            self._decode_seconds += decode_span.duration
            cycle = self._check(model, predicted)
            if cycle is None:
                rejected += 1
                if self._exact and rejected >= self.analyzer.max_candidates:
                    # the candidate is already excluded: a later ensure()
                    # resumes with a fresh candidate budget
                    self._status = Result.UNKNOWN
                    return
                continue
            self._accept(model, predicted, cycle)
        if len(self.predictions) >= k:
            self._status = Result.SAT

    def _check(self, model, predicted: History) -> Optional[list]:
        """Decide one candidate: its pco cycle if it is a prediction.

        A serializable candidate is refined away. An unserializable one is
        a prediction when the strategy is exact or its pco is cyclic; an
        accepted exact candidate may be pco-acyclic (``[]``). A rejected
        candidate is excluded before this returns ``None``.
        """
        report = is_serializable(predicted)
        if report:
            # a commit order serializing the candidate also contains its
            # pco fixpoint, so the refinement never excludes a cyclic one
            self._refine(model, report.commit_order)
            return None
        cycle = pco_cycle(predicted)
        if self._exact or cycle:
            return cycle
        # unserializable, but not by a pco cycle: no witness order to
        # refine with, so exclude this candidate alone
        self._solver.add(blocking_clause(self._enc, model))
        return None

    def _accept(self, model, predicted: History, cycle: list) -> None:
        """Record an unserializable candidate as a prediction and block it."""
        with obs_span("stage.decode", candidate=self._candidates,
                      part="boundaries") as decode_span:
            boundaries = decode_boundaries(self._enc, model)
        self._decode_seconds += decode_span.duration
        self.predictions.append(
            PredictionResult(
                status=Result.SAT,
                isolation=self.analyzer.isolation,
                strategy=self.analyzer.strategy,
                predicted=predicted,
                boundaries=boundaries,
                cycle=cycle,
                stats={"candidates": self._candidates},
            )
        )
        self.assignments.append(assignment_of(self._enc, model))
        self._solver.add(blocking_clause(self._enc, model))

    def _refine(self, model, commit_order: list[str]) -> None:
        """Instantiate ``forall co`` at a serializable candidate's witness.

        The clause excludes every candidate the witness order serializes —
        this one included — and never an unserializable one.
        """
        refinement = not_serialized_by(
            self._enc, witness_order(self._enc, commit_order)
        )
        if model.evaluate(refinement):
            # the encoding and the decoder disagree about this candidate;
            # adding the clause would re-serve the same model forever
            raise RuntimeError(
                "CEGIS refinement holds under the candidate it was built "
                "from: the encoding and the decoded history disagree"
            )
        self._solver.add(refinement)

    def release(self) -> dict:
        """Drop the live solver, keeping its stats; returns the totals.

        The predictions found so far stay readable (``predictions``,
        :meth:`batch`), but the enumeration can no longer be extended —
        a later :meth:`ensure` asking for more raises instead of
        silently re-encoding. This is how bounded long-running sessions
        (the streaming service's window families) keep one window's
        solver alive at a time without leaking every previous window's
        SAT state.
        """
        self._released_stats = self.stats
        self._enc = self._solver = None
        self._released = True
        return self.stats

    @property
    def released(self) -> bool:
        return self._released

    def batch(self, k: Optional[int] = None) -> PredictionBatch:
        """The first ``k`` predictions (all of them when ``k`` is None)."""
        predictions = (
            list(self.predictions) if k is None else self.predictions[:k]
        )
        status = (
            Result.SAT
            if k is not None and len(self.predictions) >= k
            else self._status
        )
        stats = self.stats
        stats["predictions"] = len(predictions)
        return PredictionBatch(
            status=status,
            isolation=self.analyzer.isolation,
            strategy=self.analyzer.strategy,
            predictions=predictions,
            stats=stats,
        )


def _remaining(deadline: Optional[float]) -> Optional[float]:
    """Seconds left until ``deadline`` (None: unbounded)."""
    if deadline is None:
        return None
    return max(0.0, deadline - time.monotonic())


def predict_unserializable(
    observed: History,
    isolation: IsolationLevel = IsolationLevel.CAUSAL,
    strategy: PredictionStrategy = PredictionStrategy.APPROX_STRICT,
    **kwargs,
) -> PredictionResult:
    """One-shot convenience wrapper around :class:`IsoPredict`."""
    return IsoPredict(isolation, strategy, **kwargs).predict(observed)
