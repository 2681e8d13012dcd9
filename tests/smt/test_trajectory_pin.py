"""Pin the search trajectory of the in-process solver, not only its answers.

For each configuration — the five tiny bench apps, record seeds 0–2,
causal, ra and rc, approx-strict, approx-relaxed and exact-strict (135
in all) — the enumeration is extended to ``k = 3`` predictions with no
wall budget. One sha256 covers, per configuration, every clause the
compiler emitted (in order, with its variable numbering), the integer
solver counters (vars, clauses, literals, conflicts, decisions,
propagations, theory counts, candidates, predictions, ...) and the
assignments of the predictions found. A refactor of the AST, the CNF
compiler, the SAT core or the theory that claims to keep the search
byte-identical must keep this digest.

``trajectory_pin.json`` is regenerated from the repository root with::

    PYTHONPATH=src python -m tests.smt.test_trajectory_pin \\
        > tests/smt/trajectory_pin.json

A change that moves the trajectory on purpose (say, a new encoding of
the hb transitivity) re-pins openly: it regenerates the file in the same
change and records the previous digest in ``CHANGES.md``.
"""
import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

from repro.bench_apps import ALL_APPS, WorkloadConfig, record_observed
from repro.isolation import IsolationLevel
from repro.predict import IsoPredict, PredictionStrategy
from repro.smt import SatSolver

PIN_PATH = Path(__file__).parent / "trajectory_pin.json"

APPS = ("smallbank", "tpcc", "voter", "wikipedia", "shardtransfer")
SEEDS = (0, 1, 2)
LEVELS = ("causal", "ra", "rc")
STRATEGIES = ("approx-strict", "approx-relaxed", "exact-strict")
K = 3


@contextmanager
def recording_clauses(clauses: list):
    """Log every clause any :class:`SatSolver` takes while the block runs.

    ``add_clause`` and ``add_clause_trusted`` are the core's two clause
    entry points; neither calls the other, and the CNF compiler calls
    only these two.
    """
    add_clause = SatSolver.add_clause
    add_clause_trusted = SatSolver.add_clause_trusted

    def logged(self, lits):
        clauses.append(list(lits))
        return add_clause(self, clauses[-1])

    def logged_trusted(self, lits):
        clauses.append(list(lits))
        return add_clause_trusted(self, lits)

    SatSolver.add_clause = logged
    SatSolver.add_clause_trusted = logged_trusted
    try:
        yield
    finally:
        SatSolver.add_clause = add_clause
        SatSolver.add_clause_trusted = add_clause_trusted


def trajectory(app_name: str, seed: int, level: str, strategy: str) -> dict:
    """Emitted clauses, integer counters and assignments of one run."""
    app = {a.name: a for a in ALL_APPS}[app_name]
    history = record_observed(app(WorkloadConfig.tiny()), seed).history
    clauses: list = []
    analyzer = IsoPredict(
        IsolationLevel.parse(level), PredictionStrategy.parse(strategy)
    )
    with recording_clauses(clauses):
        enum = analyzer.enumerator(history)
        enum.ensure(K)
    batch = enum.batch()
    counters = {
        key: value
        for key, value in batch.stats.items()
        if type(value) is int
    }
    assignments = [
        [
            sorted([*key, value] for key, value in choices.items()),
            sorted(boundaries.items()),
        ]
        for choices, boundaries in enum.assignments
    ]
    return {
        "config": [app_name, seed, level, strategy],
        "status": batch.status.value,
        "clauses": clauses,
        "counters": counters,
        "assignments": assignments,
    }


def pin() -> dict:
    digest = hashlib.sha256()
    configs = 0
    for app in APPS:
        for seed in SEEDS:
            for level in LEVELS:
                for strategy in STRATEGIES:
                    run = trajectory(app, seed, level, strategy)
                    digest.update(
                        (json.dumps(run, sort_keys=True) + "\n").encode()
                    )
                    configs += 1
    return {"configurations": configs, "sha256": digest.hexdigest()}


def test_search_trajectories_match_the_pin():
    assert pin() == json.loads(PIN_PATH.read_text())


if __name__ == "__main__":
    print(json.dumps(pin(), indent=2))
