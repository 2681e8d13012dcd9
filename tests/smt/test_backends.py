"""Protocol-conformance suite for the solver-backend seam.

Every test in :class:`TestConformance` runs against both registered
backends — the in-process CDCL core and the DIMACS subprocess bridge
(driven by the stub solver script, so no external solver install is
needed). The contract: same verdicts everywhere.
"""
import sys
import time
from pathlib import Path

import pytest

import repro.gallery as gallery_mod
from repro.gallery import (
    deposit_observed,
    deposit_unserializable,
    fig7a_wikipedia_observed,
    fig8a_smallbank_observed,
)
from repro.isolation import IsolationLevel
from repro.predict import IsoPredict, PredictionStrategy
from repro.smt import (
    And,
    BackendSpec,
    Bool,
    Not,
    OneSidedLt,
    Or,
    Result,
    Solver,
)
from repro.smt.backends import DimacsProcessBackend, InProcessBackend

STUB = str(Path(__file__).parent / "stub_solver.py")


def canon(history):
    """Structural image of a history (History compares by identity)."""
    return tuple(
        (t.tid, t.session, t.commit_pos, tuple(t.events))
        for t in history.all_transactions()
    )


def stub_dimacs(theory):
    """DimacsProcessBackend driven by the repo's stub solver script."""
    return DimacsProcessBackend(
        theory=theory, command=[sys.executable, STUB]
    )


BACKENDS = {
    "inprocess": "inprocess",
    "dimacs-stub": stub_dimacs,
}


@pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
def backend(request):
    return BACKENDS[request.param]


GALLERY = {
    "deposit-observed": deposit_observed,
    "deposit-unserializable": deposit_unserializable,
    "fig7a-wikipedia": fig7a_wikipedia_observed,
    "fig8a-smallbank": fig8a_smallbank_observed,
}


class TestConformance:
    def test_boolean_sat_and_model(self, backend):
        s = Solver(backend=backend)
        p, q = Bool("p"), Bool("q")
        s.add(Or(p, q))
        s.add(Not(p))
        assert s.check() is Result.SAT
        m = s.model()
        assert m.bool_value("q") is True
        assert m.bool_value("p") is False

    def test_boolean_unsat(self, backend):
        s = Solver(backend=backend)
        p = Bool("p")
        s.add(p)
        s.add(Not(p))
        assert s.check() is Result.UNSAT

    def test_difference_theory_chain(self, backend):
        s = Solver(backend=backend)
        s.add(OneSidedLt("x", "y"))
        s.add(OneSidedLt("y", "z"))
        assert s.check() is Result.SAT
        m = s.model()
        assert m.int_value("x") < m.int_value("y") < m.int_value("z")

    def test_difference_theory_conflict(self, backend):
        s = Solver(backend=backend)
        s.add(OneSidedLt("x", "y"))
        s.add(OneSidedLt("y", "x"))
        assert s.check() is Result.UNSAT

    def test_theory_guarded_by_boolean(self, backend):
        # the solver must pick the branch whose theory side is consistent
        s = Solver(backend=backend)
        p = Bool("p")
        s.add(OneSidedLt("x", "y"))
        s.add(
            Or(
                And(p, OneSidedLt("y", "x")),
                And(Not(p), OneSidedLt("z", "y")),
            )
        )
        assert s.check() is Result.SAT
        assert s.model().bool_value("p") is False

    def test_incremental_blocking(self, backend):
        s = Solver(backend=backend)
        p, q = Bool("p"), Bool("q")
        s.add(Or(p, q))
        seen = set()
        while s.check() is Result.SAT:
            m = s.model()
            bits = (m.bool_value("p"), m.bool_value("q"))
            assert bits not in seen, "blocking clause must exclude the model"
            seen.add(bits)
            s.add(Or(*(Bool(n) if not v else Not(Bool(n))
                       for n, v in zip("pq", bits))))
        assert len(seen) == 3  # all assignments of (p, q) except (F, F)

    @pytest.mark.parametrize("name", sorted(GALLERY), ids=sorted(GALLERY))
    def test_gallery_verdicts_match_inprocess(self, backend, name):
        history = GALLERY[name]()
        reference = IsoPredict(
            IsolationLevel.CAUSAL, PredictionStrategy.APPROX_STRICT
        ).predict(history)
        result = IsoPredict(
            IsolationLevel.CAUSAL,
            PredictionStrategy.APPROX_STRICT,
            solver=backend,
        ).predict(history)
        assert result.status is reference.status

    @pytest.mark.parametrize("name", sorted(GALLERY), ids=sorted(GALLERY))
    def test_exact_gallery_verdicts_match_inprocess(self, backend, name):
        # the exact strategy's CEGIS walk re-checks the solver after each
        # refinement, so this drives the backend incrementally
        history = GALLERY[name]()
        reference = IsoPredict(
            IsolationLevel.CAUSAL, PredictionStrategy.EXACT_STRICT
        ).predict(history)
        result = IsoPredict(
            IsolationLevel.CAUSAL,
            PredictionStrategy.EXACT_STRICT,
            solver=backend,
        ).predict(history)
        assert result.status is reference.status
        assert result.found == reference.found

    def test_enumeration_same_prediction_set(self, backend):
        """Distinct-prediction enumeration drains the same model space.

        The *set* of (boundary, choice) projections is backend-independent
        even when the walk order differs, because each blocking clause
        removes exactly one projection.
        """
        history = deposit_unserializable()

        def projections(solver_spec):
            analyzer = IsoPredict(
                IsolationLevel.CAUSAL,
                PredictionStrategy.APPROX_STRICT,
                solver=solver_spec,
            )
            batch = analyzer.predict_many(history, k=16)
            assert batch.status is Result.UNSAT  # space fully drained
            out = set()
            for prediction in batch:
                out.add(
                    (
                        tuple(sorted(prediction.boundaries.items())),
                        tuple(
                            (t.tid, tuple(r.writer for r in t.reads))
                            for t in prediction.predicted.transactions()
                        ),
                    )
                )
            return out

        assert projections(backend) == projections("inprocess")


def pigeonhole(pigeons, holes):
    """PHP(pigeons, holes): UNSAT when pigeons > holes, and hard for CDCL."""
    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def raw_backend(name):
    """A theory-free backend of the named kind, for CNF-level tests."""
    backend = BACKENDS[name]
    if callable(backend):
        return backend(None)
    return InProcessBackend()


def load(backend, nvars, clauses):
    for _ in range(nvars):
        backend.new_var()
    for clause in clauses:
        backend.add_clause(clause)


class TestRawBackendProtocol:
    """The CNF-level ``SolverBackend`` surface, below the Solver facade."""

    @pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
    def raw(self, request):
        backend = raw_backend(request.param)
        yield backend
        backend.close()

    def test_model_satisfies_every_clause(self, raw):
        nvars, clauses = pigeonhole(5, 5)
        load(raw, nvars, clauses)
        assert raw.solve() is Result.SAT
        assignment = raw.assignment()
        assert len(assignment) == nvars + 1
        for clause in clauses:
            assert any(
                (assignment[abs(lit)] == 1) == (lit > 0) for lit in clause
            ), clause
        assert raw.model_value(1) == bool(assignment[1])

    def test_unsat_pigeonhole(self, raw):
        nvars, clauses = pigeonhole(4, 3)
        load(raw, nvars, clauses)
        assert raw.solve() is Result.UNSAT

    def test_incremental_blocking_across_solves(self, raw):
        load(raw, 2, [[1, 2]])
        models = set()
        while raw.solve() is Result.SAT:
            assignment = raw.assignment()
            bits = tuple(assignment[1:3])
            assert bits not in models
            models.add(bits)
            raw.add_clause([-(v if assignment[v] else -v) for v in (1, 2)])
        assert len(models) == 3

    def test_wall_budget_reports_unknown(self, raw):
        nvars, clauses = pigeonhole(9, 8)  # far beyond 50 ms of search
        load(raw, nvars, clauses)
        start = time.monotonic()
        result = raw.solve(max_seconds=0.05)
        assert result is Result.UNKNOWN
        assert time.monotonic() - start < 10.0  # stopped, not awaited

    def test_zero_wall_budget_reports_unknown(self, raw):
        """A 0-second budget is spent before the search starts; it is not
        the absence of a budget."""
        nvars, clauses = pigeonhole(7, 6)  # UNSAT, but not at level 0
        load(raw, nvars, clauses)
        assert raw.solve(max_seconds=0) is Result.UNKNOWN
        assert raw.solve() is Result.UNSAT  # the budget did not stick


class TestInProcessBudgets:
    def test_budget_then_full_solve_recovers(self):
        backend = InProcessBackend()
        nvars, clauses = pigeonhole(6, 5)
        load(backend, nvars, clauses)
        assert backend.solve(max_conflicts=1) is Result.UNKNOWN
        assert backend.solve() is Result.UNSAT


class TestDeterministicModels:
    """The in-process backend is reproducible down to the model.

    Campaign resume, fleet merging and the BENCH counters all assume two
    fresh analyses of one history decode the same prediction.
    """

    @pytest.mark.parametrize("name", sorted(GALLERY), ids=sorted(GALLERY))
    def test_fresh_analyses_decode_identical_predictions(self, name):
        def run():
            return IsoPredict(
                IsolationLevel.CAUSAL,
                PredictionStrategy.APPROX_STRICT,
                max_candidates=8,
            ).predict(GALLERY[name]())

        first, second = run(), run()
        assert first.status is second.status
        if first.status is Result.SAT:
            assert first.boundaries == second.boundaries
            assert canon(first.predicted) == canon(second.predicted)

    def test_repeated_runs_stable(self, backend):
        history = deposit_unserializable()
        outcomes = set()
        for _ in range(3):
            result = IsoPredict(
                IsolationLevel.CAUSAL,
                PredictionStrategy.APPROX_STRICT,
                solver=backend,
            ).predict(history)
            outcomes.add(
                (result.status, tuple(sorted(result.boundaries.items())))
            )
        assert len(outcomes) == 1


def full_gallery():
    """Every gallery scenario as one name -> history map."""
    histories = {}
    for name in gallery_mod.__all__:
        value = getattr(gallery_mod, name)()
        if isinstance(value, dict):
            # fig10_patterns: pattern -> (observed, predicted)
            for key, pair in value.items():
                for i, h in enumerate(
                    pair if isinstance(pair, tuple) else (pair,)
                ):
                    histories[f"{name}:{key}:{i}"] = h
        else:
            histories[name] = value
    return histories


class TestAcceptanceDimacs:
    """The subprocess bridge reaches the in-process verdict on *every*
    gallery scenario."""

    def test_dimacs_verdicts_on_full_gallery(self):
        histories = full_gallery()
        assert len(histories) >= 12
        for name, history in sorted(histories.items()):
            reference = IsoPredict(
                IsolationLevel.CAUSAL, PredictionStrategy.APPROX_STRICT
            ).predict(history)
            bridged = IsoPredict(
                IsolationLevel.CAUSAL,
                PredictionStrategy.APPROX_STRICT,
                solver=stub_dimacs,
            ).predict(history)
            assert bridged.status is reference.status, name


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "text",
        ["portfolio", "portfolio:4", "portfolio:2:deterministic",
         "portfolio:3:racing"],
    )
    def test_removed_portfolio_backend_is_rejected(self, text):
        with pytest.raises(ValueError, match="inprocess") as info:
            BackendSpec.parse(text)
        assert "dimacs" in str(info.value)
