"""The size of the encoding every strategy asserts is pinned.

Encoding size is what the solver pays for on every round, so a change to
it must be deliberate. ``test_model_space.py`` pins what the encoding
means; this pins how big it is.
"""
import pytest

from repro.bench_apps import ALL_APPS, WorkloadConfig, record_observed
from repro.history import HistoryBuilder
from repro.isolation import IsolationLevel
from repro.predict import IsoPredict, PredictionStrategy
from repro.predict.encoder import Encoding, INFINITY_POS
from repro.predict.strategies import BoundaryMode
from repro.smt import FALSE, TRUE, Result, Solver


class TestPhaseOneSize:
    """Tiny workload, record seed 1, causal, approx-relaxed.

    The encoding is feasibility + isolation; the pco cycle is checked on
    each decoded candidate instead. While the pco least fixpoint was
    encoded (stratified path-doubling closures), the same histories
    compiled to (vars, clauses, literals):

        smallbank      178    501   1299
        tpcc           516   1727   4558
        voter          253    761   1986
        wikipedia       22     20     46
        shardtransfer  489   1554   4063

    and before the encoder folded statically known relation cells
    (so-fixed hb cells, single-candidate enum atoms, closure and ww/rw
    cells whose definition is a constant or one literal), to:

        smallbank      720    923   5462
        tpcc           961   2373   8163
        voter          765   1194   5877
        wikipedia      705     85   5285
        shardtransfer  916   2133   7402
    """

    PINNED = {
        # app: (vars, clauses, literals)
        "smallbank": (35, 48, 111),
        "tpcc": (103, 263, 637),
        "voter": (46, 84, 201),
        "wikipedia": (22, 20, 46),
        "shardtransfer": (98, 232, 559),
    }

    @pytest.mark.parametrize("app_name", sorted(PINNED))
    def test_vars_clauses_literals_pinned(self, app_name):
        app = {a.name: a for a in ALL_APPS}[app_name]
        history = record_observed(app(WorkloadConfig.tiny()), 1).history
        strategy = PredictionStrategy.APPROX_RELAXED
        analyzer = IsoPredict(IsolationLevel.CAUSAL, strategy)
        _, solver, _ = analyzer._build(history, strategy.boundary)
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
    """Every strategy asserts feasibility+isolation only and runs CEGIS.

    Exact and approximate strategies differ only in how a decoded
    candidate is checked, so over one boundary mode they compile the same
    encoding.
    """

    @pytest.mark.parametrize("boundary", ["strict", "relaxed"])
    def test_approx_and_exact_build_the_same_encoding(self, boundary):
        app = {a.name: a for a in ALL_APPS}["smallbank"]
        history = record_observed(app(WorkloadConfig.tiny()), 0).history
        sizes = set()
        for encoding in ("approx", "exact"):
            strategy = PredictionStrategy.parse(f"{encoding}-{boundary}")
            analyzer = IsoPredict(IsolationLevel.READ_COMMITTED, strategy)
            assert analyzer.predict(history).found
            _, solver, _ = analyzer._build(history, strategy.boundary)
            sizes.add(
                (solver.num_vars, solver.num_clauses, solver.num_literals)
            )
        assert len(sizes) == 1

    def test_mid_tier_unsat_walk_pinned(self):
        """tpcc, small workload, record seed 1, causal, exact-strict.

        When exact strategies first proved the approximate encoding UNSAT,
        the round reported the two encodings' clauses summed (76,602), and
        the CEGIS walk alone took the same 20 candidates. Refinement clauses
        depend on each candidate's witness order: the SMT serializability
        checker's witnesses gave 7,064 clauses, and the session-frontier
        search's gave 6,987. That figure counted the 306 clauses learned
        before a refinement as problem clauses; the walk adds 6,681.
        """
        app = {a.name: a for a in ALL_APPS}["tpcc"]
        history = record_observed(app(WorkloadConfig.small()), 1).history
        batch = IsoPredict(
            IsolationLevel.CAUSAL, PredictionStrategy.EXACT_STRICT
        ).predict_many(history, k=1)
        assert batch.status is Result.UNSAT
        assert batch.stats["candidates"] == 20
        assert batch.stats["clauses"] == 6681
