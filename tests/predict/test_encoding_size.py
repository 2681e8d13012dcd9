"""The size of the approximate and exact encodings is pinned.

Encoding size is what the solver pays for on every round, so a change to
it must be deliberate. ``test_model_space.py`` pins what the encoding
means; this pins how big it is.
"""
import pytest

from repro.bench_apps import ALL_APPS, WorkloadConfig, record_observed
from repro.history import HistoryBuilder
from repro.isolation import IsolationLevel
from repro.predict import IsoPredict, PredictionStrategy, analysis
from repro.predict.encoder import Encoding, INFINITY_POS
from repro.predict.strategies import BoundaryMode
from repro.smt import FALSE, TRUE, Result, Solver


class TestPhaseOneSize:
    """Tiny workload, record seed 1, causal, approx-relaxed.

    Before the encoder folded statically known relation cells (so-fixed
    hb cells, single-candidate enum atoms, closure and ww/rw cells whose
    definition is a constant or one literal) the same histories compiled
    to (vars, clauses, literals):

        smallbank      720    923   5462
        tpcc           961   2373   8163
        voter          765   1194   5877
        wikipedia      705     85   5285
        shardtransfer  916   2133   7402
    """

    PINNED = {
        # app: (vars, clauses, literals)
        "smallbank": (178, 501, 1299),
        "tpcc": (516, 1727, 4558),
        "voter": (253, 761, 1986),
        "wikipedia": (22, 20, 46),
        "shardtransfer": (489, 1554, 4063),
    }

    @pytest.mark.parametrize("app_name", sorted(PINNED))
    def test_vars_clauses_literals_pinned(self, app_name):
        app = {a.name: a for a in ALL_APPS}[app_name]
        history = record_observed(app(WorkloadConfig.tiny()), 1).history
        strategy = PredictionStrategy.APPROX_RELAXED
        analyzer = IsoPredict(IsolationLevel.CAUSAL, strategy)
        _, solver, _ = analyzer._build(
            history, strategy.boundary, unser=True
        )
        size = (solver.num_vars, solver.num_clauses, solver.num_literals)
        assert size == self.PINNED[app_name]


class TestStaticCells:
    """Cells the observed trace fixes are constants, and still constrain."""

    @staticmethod
    def _encoding():
        # t2 follows t1 in one session and writes the key t1 reads, so
        # t1 could only read from t2 against session order
        b = HistoryBuilder(initial={"x": 0})
        b.txn("t1", "s1").read("x", writer="t0")
        b.txn("t2", "s1").write("x", 1)
        return Encoding(b.build(), boundary=BoundaryMode.RELAXED)

    def test_session_order_fixes_hb(self):
        enc = self._encoding()
        assert enc.hb("t1", "t2") is TRUE
        assert enc.hb("t2", "t1") is FALSE
        assert enc.hb("t0", "t2") is TRUE

    def test_false_cell_still_forbids_its_wr_edge(self):
        enc = self._encoding()
        enc.hb("t1", "t2")  # build hb
        solver = Solver()
        for c in enc.definitions():
            solver.add(c)
        assert TRUE not in enc.definitions()
        solver.add(enc.choice[("t1", 0)].eq("t2"))
        solver.add(enc.boundary["s1"].eq(INFINITY_POS))
        assert solver.check() is Result.UNSAT


class TestExactEncoding:
    """Exact strategies assert feasibility+isolation only and run CEGIS.

    The approximate (pco-closure) encoding is never built for them: every
    approximate model is also a CEGIS prediction, so proving it UNSAT
    first would only delay the search that decides the verdict.
    """

    @pytest.mark.parametrize("strategy", ["exact-strict", "exact-relaxed"])
    def test_never_builds_the_approximate_encoding(
        self, monkeypatch, strategy
    ):
        def forbidden(enc):
            raise AssertionError("exact strategy built the approx encoding")

        monkeypatch.setattr(
            analysis, "approx_unserializability_constraints", forbidden
        )
        app = {a.name: a for a in ALL_APPS}["smallbank"]
        history = record_observed(app(WorkloadConfig.tiny()), 0).history
        result = IsoPredict(
            IsolationLevel.READ_COMMITTED, PredictionStrategy.parse(strategy)
        ).predict(history)
        assert result.found

    def test_mid_tier_unsat_walk_pinned(self):
        """tpcc, small workload, record seed 1, causal, exact-strict.

        When exact strategies first proved the approximate encoding UNSAT,
        the round reported the two encodings' clauses summed (76,602), and
        the CEGIS walk alone took the same 20 candidates. Refinement clauses
        depend on each candidate's witness order: the SMT serializability
        checker's witnesses gave 7,064 clauses, and the session-frontier
        search's give 6,987.
        """
        app = {a.name: a for a in ALL_APPS}["tpcc"]
        history = record_observed(app(WorkloadConfig.small()), 1).history
        batch = IsoPredict(
            IsolationLevel.CAUSAL, PredictionStrategy.EXACT_STRICT
        ).predict_many(history, k=1)
        assert batch.status is Result.UNSAT
        assert batch.stats["candidates"] == 20
        assert batch.stats["clauses"] == 6987
