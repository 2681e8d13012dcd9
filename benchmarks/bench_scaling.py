"""Scaling study: prediction cost vs. workload size.

The paper's small/large columns (Tables 4/5) show constraint size and
solving time growing with transaction count; this bench sweeps session ×
transaction shapes on Smallbank and reports the growth curve for the
approximate strategy (feasibility + isolation, pco checked per candidate).
"""
import time

import pytest

from harness import MAX_SECONDS, format_table
from repro.bench_apps import Smallbank, WorkloadConfig, record_observed
from repro.isolation import IsolationLevel
from repro.predict import IsoPredict, PredictionStrategy

SHAPES = [
    (2, 2),  # 4 transactions
    (3, 2),  # 6
    (3, 4),  # 12 — the paper's small workload shape
]


def measure(sessions: int, per_session: int) -> dict:
    config = WorkloadConfig(sessions, per_session, 1, f"{sessions}x{per_session}")
    observed = record_observed(Smallbank(config), seed=0).history
    analyzer = IsoPredict(
        IsolationLevel.READ_COMMITTED,
        PredictionStrategy.APPROX_STRICT,
        max_seconds=MAX_SECONDS,
    )
    start = time.monotonic()
    result = analyzer.predict(observed)
    elapsed = time.monotonic() - start
    return {
        "shape": config.label,
        "txns": len(observed),
        "status": result.status.value,
        "literals": result.stats.get("literals", 0),
        "clauses": result.stats.get("clauses", 0),
        "seconds": elapsed,
    }


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_scaling_point(benchmark, shape, capsys):
    row = benchmark.pedantic(measure, args=shape, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\n[scaling] {row['shape']:6s} txns={row['txns']:2d} "
            f"lits={row['literals']:8,d} {row['seconds']:6.2f}s "
            f"({row['status']})"
        )


def test_scaling_curve_is_monotone(capsys):
    rows = [measure(*shape) for shape in SHAPES]
    with capsys.disabled():
        print(
            format_table(
                "Scaling: Smallbank under rc (approx-strict)",
                ["shape", "txns", "status", "literals", "seconds"],
                [
                    [r["shape"], str(r["txns"]), r["status"],
                     f"{r['literals']:,}", f"{r['seconds']:.2f}"]
                    for r in rows
                ],
            )
        )
    literals = [r["literals"] for r in rows]
    assert literals == sorted(literals), "constraint size grows with txns"
