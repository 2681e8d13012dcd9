"""Ablation: SMT substrate micro-benchmarks.

Times the solver layers the analysis leans on — CDCL propagation on
structured instances and difference-logic assertion/repair throughput.
(The fixed-history serializability check that validation calls does not
use the solver; ``bench_fig9_boundary.py`` times it.)
"""
import random

from repro.smt import Bool, Implies, OneSidedLt, Result, Solver
from repro.smt.difference import DifferenceTheory
from repro.smt.sat import SatSolver


def php_solver(holes: int) -> SatSolver:
    pigeons = holes + 1
    s = SatSolver()
    for _ in range(pigeons * holes):
        s.new_var()

    def var(p, h):
        return p * holes + h + 1

    for p in range(pigeons):
        s.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-var(p1, h), -var(p2, h)])
    return s


def test_cdcl_pigeonhole(benchmark):
    def run():
        solver = php_solver(6)
        return solver.solve()

    assert benchmark(run) is Result.UNSAT


def test_difference_logic_throughput(benchmark):
    rng = random.Random(0)
    edges = []
    for i in range(1, 2001):
        x, y = rng.sample(range(80), 2)
        edges.append((i, f"v{x}", f"v{y}", rng.randint(0, 8)))

    def run():
        th = DifferenceTheory()
        asserted = 0
        for sat_var, x, y, c in edges:
            th.add_atom(sat_var, x, y, c)
        for sat_var, *_ in edges:
            if th.assert_literal(sat_var) is None:
                asserted += 1
        return asserted

    assert benchmark(run) > 0


def test_guarded_order_instance(benchmark):
    """The co shape the encoder emits: guarded one-sided orders over 30
    integers."""
    rng = random.Random(7)
    pairs = [tuple(rng.sample(range(30), 2)) for _ in range(240)]

    def run():
        solver = Solver()
        xs = [f"t{i}" for i in range(30)]
        for idx, (a, b) in enumerate(pairs):
            solver.add(Implies(Bool(f"g{idx}"), OneSidedLt(xs[a], xs[b])))
            if idx % 3 == 0:
                solver.add(Bool(f"g{idx}"))
        return solver.check()

    assert benchmark(run) in (Result.SAT, Result.UNSAT)


def test_feature_flag_ablation(capsys):
    """CDCL feature value on the pigeonhole family (classic ablation)."""
    import time

    from harness import format_table

    rows = []
    for label, flags in (
        ("full CDCL", {}),
        ("no VSIDS", {"enable_vsids": False}),
        ("no restarts", {"enable_restarts": False}),
        ("no learning", {"enable_learning": False}),
    ):
        solver = php_solver(6)
        for attr, value in flags.items():
            setattr(solver, attr, value)
        if not solver.enable_learning:
            solver._max_learnts = 8.0
        start = time.monotonic()
        result = solver.solve(max_seconds=60)
        rows.append(
            [
                label,
                result.value,
                f"{time.monotonic() - start:.2f} s",
                str(solver.stats["conflicts"]),
            ]
        )
    with capsys.disabled():
        print(
            format_table(
                "Ablation: CDCL features on PHP(7,6)",
                ["configuration", "result", "time", "conflicts"],
                rows,
            )
        )
    assert all(r[1] in ("unsat", "unknown") for r in rows)
