"""The IsoPredict façade: end-to-end predictive analysis (§3, §4).

Orchestrates encoding, solving and decoding through one enumeration loop
(:class:`PredictionEnumeration`, a CEGIS walk that the approximate and
exact strategies of one boundary share, keeping different candidates),
and reports the timing/size statistics the paper's Tables 4 and 5 track
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
from .strategies import BoundaryMode, EncodingMode, PredictionStrategy
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

#: The candidates one ``ensure`` call of an exact strategy may refine
#: away, unless a caller sets ``max_candidates``.
MAX_CANDIDATES = 64
#: ``ensure``'s default for a limit: the one its analyzer was built with.
_ANALYZER_LIMIT = object()


@dataclass
class PredictionResult:
    """Outcome of one predictive-analysis query."""

    status: Result
    isolation: IsolationLevel
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
        lines = [f"prediction under {self.isolation}: {self.status.value}"]
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
    that *stopped* the enumeration: ``SAT`` when ``k`` predictions of its
    ``strategy`` were reached, ``UNSAT`` when the candidate space was
    exhausted first, and ``UNKNOWN`` when a limit ran out.
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
    strategy) plus the two solver limits: ``max_seconds`` of wall time for
    one ``ensure`` call (so one :meth:`predict_many`) and ``max_conflicts``
    for each solver check (``None``: unbounded). ``max_candidates``
    bounds the candidates one ``ensure`` call of an exact strategy may
    refine away; an approximate walk is bounded by the solver limits alone,
    so its verdict never depends on how many candidates it refines away.
    """

    def __init__(
        self,
        isolation: IsolationLevel,
        strategy: PredictionStrategy = PredictionStrategy.APPROX_STRICT,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
        max_candidates: int = MAX_CANDIDATES,
    ):
        if isolation is IsolationLevel.SERIALIZABLE:
            raise ValueError("prediction targets weak isolation levels")
        self.isolation = isolation
        self.strategy = strategy
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

    def predict_many(self, observed: History, k: int) -> PredictionBatch:
        """Enumerate up to ``k`` *distinct* unserializable predictions.

        The encoding is generated and asserted once; after each candidate a
        blocking or refinement clause is added and the same incremental
        solver is re-checked, so successive predictions cost a few solver
        calls each instead of a full re-encoding. Two predictions are
        distinct exactly when they disagree on some session's boundary or
        on the writer of some read inside the boundaries — that is, when
        they decode to different histories.

        ``max_seconds`` bounds the whole enumeration. Every strategy walks
        the feasibility+isolation models by CEGIS, blocking each
        unserializable candidate the same way (see
        :class:`PredictionEnumeration`).

        For repeated queries over one observed history (k sweeps, a fluent
        :class:`repro.api.Analysis` session) use :meth:`enumerator`, which
        keeps the incremental solver alive between calls.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        enum = self.enumerator(observed)
        enum.ensure(k)
        return enum.batch(k)

    def enumerator(self, observed: History) -> "PredictionEnumeration":
        """A persistent, incrementally extensible prediction enumeration."""
        return PredictionEnumeration(self, observed)

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

    The walk asserts feasibility+isolation alone and runs CEGIS: each
    candidate model is decoded and checked outside the solver. A
    serializable candidate's witness commit order refines the encoding
    (see :meth:`_refine`); an unserializable one is blocked alone and
    recorded with its pco cycle (``[]`` if acyclic). The strategies of
    the walk's boundary only filter that record: exact (§4.2.1) keeps
    every entry, approximate (§4.2.2) the cyclic ones. ``ensure`` and
    ``batch`` take the strategy to filter by (default: the analyzer's).

    ``max_seconds`` bounds one ``ensure`` call, and so does an exact
    strategy's ``max_candidates``; ``max_conflicts`` bounds each solver
    check. Hitting any of them reports :data:`Result.UNKNOWN` but leaves
    the solver state intact, so a later call with fresh limits resumes
    where it stopped.
    """

    def __init__(self, analyzer: IsoPredict, observed: History):
        self.analyzer = analyzer
        self.observed = observed
        #: (prediction, ``assignment_of``) per unserializable candidate
        self._found: list[tuple[PredictionResult, tuple[dict, dict]]] = []
        self._status = Result.UNSAT  # verdict that stopped the last extension
        self._exhausted = False  # the whole candidate space is drained
        self._enc = None
        self._solver = None
        self._timings: dict = {}
        self._decode_seconds = 0.0
        self._candidates = 0

    def _kept(self, strategy: Optional[PredictionStrategy]) -> list:
        """The recorded candidates ``strategy`` counts as predictions."""
        strategy = strategy or self.analyzer.strategy
        if strategy.boundary is not self.analyzer.strategy.boundary:
            raise ValueError(f"{strategy} does not walk this boundary")
        if strategy.encoding is EncodingMode.EXACT:
            return self._found
        return [entry for entry in self._found if entry[0].cycle]

    @property
    def predictions(self) -> list[PredictionResult]:
        """The analyzer's strategy's predictions, in walk order."""
        return [prediction for prediction, _ in self._kept(None)]

    @property
    def assignments(self) -> list[tuple[dict, dict]]:
        """Each of :attr:`predictions`' (choice, boundary) assignment."""
        return [assignment for _, assignment in self._kept(None)]

    @property
    def stats(self) -> dict:
        """Size/timing stats of the enumeration so far."""
        if self._solver is None:  # nothing encoded yet
            stats = {}
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
        stats["predictions"] = len(self._kept(None))
        return stats

    # -- the walk -------------------------------------------------------
    def ensure(
        self,
        k: int,
        strategy: Optional[PredictionStrategy] = None,
        *,
        max_seconds=_ANALYZER_LIMIT,
        max_conflicts=_ANALYZER_LIMIT,
        max_candidates=_ANALYZER_LIMIT,
    ) -> None:
        """Walk on until ``strategy`` keeps ``k`` predictions (if any do).

        Stops early when the candidate space exhausts (``UNSAT``), or when
        a limit of this call runs out (``UNKNOWN``, resumable). The
        strategy and a limit not passed are the analyzer's; ``None`` lifts
        the wall or conflict limit. This is the one place ``max_seconds``
        becomes a deadline.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        analyzer = self.analyzer
        if max_seconds is _ANALYZER_LIMIT:
            max_seconds = analyzer.max_seconds
        if max_conflicts is _ANALYZER_LIMIT:
            max_conflicts = analyzer.max_conflicts
        if max_candidates is _ANALYZER_LIMIT:
            max_candidates = analyzer.max_candidates
        deadline = (
            None if max_seconds is None else time.monotonic() + max_seconds
        )
        if self._solver is None:  # first call ever
            self._enc, self._solver, self._timings = analyzer._build(
                self.observed, analyzer.strategy.boundary
            )
        exact = (strategy or analyzer.strategy).encoding is EncodingMode.EXACT
        refined = 0  # CEGIS candidates refined away by THIS call
        while len(self._kept(strategy)) < k and not self._exhausted:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._status = Result.UNKNOWN
                    return
            status = self._solver.check(
                max_conflicts=max_conflicts, max_seconds=remaining
            )
            if status is Result.UNSAT:
                self._status = Result.UNSAT
                self._exhausted = True
                return
            if status is not Result.SAT:
                self._status = status  # a limit ran out; resumable
                return
            self._candidates += 1
            with obs_span("stage.decode",
                          candidate=self._candidates) as decode_span:
                model = self._solver.model()
                predicted = decode_history(self._enc, model)
                decode_span.stop()  # classifying is not decode time
                witness = is_serializable(predicted)
                cycle = None if witness else pco_cycle(predicted)
                decode_span.set(kind="refined" if witness else (
                    "cyclic" if cycle else "acyclic"))
            self._decode_seconds += decode_span.duration
            if cycle is not None:
                self._record(model, predicted, cycle)
                continue
            # a commit order serializing the candidate also contains its
            # pco fixpoint, so the refinement never excludes a cyclic one
            self._refine(model, witness.commit_order)
            refined += 1
            if exact and refined >= max_candidates:
                # the candidate is already excluded: a later ensure()
                # resumes with a fresh candidate limit
                self._status = Result.UNKNOWN
                return
        if len(self._kept(strategy)) >= k:
            self._status = Result.SAT

    def _record(self, model, predicted: History, cycle: list) -> None:
        """Record an unserializable candidate and block it alone (it has
        no witness order to refine with)."""
        with obs_span("stage.decode", candidate=self._candidates,
                      part="boundaries") as decode_span:
            boundaries = decode_boundaries(self._enc, model)
        self._decode_seconds += decode_span.duration
        prediction = PredictionResult(
            status=Result.SAT,
            isolation=self.analyzer.isolation,
            predicted=predicted,
            boundaries=boundaries,
            cycle=cycle,
            stats={"candidates": self._candidates},
        )
        self._found.append((prediction, assignment_of(self._enc, model)))
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

    def batch(
        self,
        k: Optional[int] = None,
        strategy: Optional[PredictionStrategy] = None,
    ) -> PredictionBatch:
        """``strategy``'s first ``k`` predictions (all when ``k`` is None).

        It reads ``SAT`` only with ``k`` of them (one when ``k`` is None):
        a walk stopped at another strategy's target leaves it ``UNKNOWN``.
        """
        strategy = strategy or self.analyzer.strategy
        kept = [prediction for prediction, _ in self._kept(strategy)]
        predictions = kept if k is None else kept[:k]
        status = self._status
        if k is not None and len(kept) >= k:
            status = Result.SAT
        elif self._exhausted:
            status = Result.UNSAT
        elif status is Result.SAT and (k is not None or not kept):
            status = Result.UNKNOWN
        stats = self.stats
        stats["predictions"] = len(predictions)
        return PredictionBatch(
            status=status,
            isolation=self.analyzer.isolation,
            strategy=strategy,
            predictions=predictions,
            stats=stats,
        )


def predict_unserializable(
    observed: History,
    isolation: IsolationLevel = IsolationLevel.CAUSAL,
    strategy: PredictionStrategy = PredictionStrategy.APPROX_STRICT,
    **kwargs,
) -> PredictionResult:
    """One-shot convenience wrapper around :class:`IsoPredict`."""
    return IsoPredict(isolation, strategy, **kwargs).predict(observed)
