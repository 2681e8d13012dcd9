"""Every SAT model re-evaluates every asserted constraint to true.

For the five tiny bench apps, record seeds 0–1, causal/ra/rc and strict
and relaxed boundaries, the real feasibility + isolation + hb-definition
encoding is asserted and up to ``MODELS`` models are walked with
:func:`blocking_clause`. Each model must satisfy every asserted
expression under :meth:`Model.evaluate`, which recomputes truth from the
Boolean, enum and integer values instead of trusting the compiled
literals. The commit-order atoms are one-sided, so ``evaluate`` reads a
false order atom as no obligation and a true one against the
difference-logic potentials.

Each configuration builds its own :class:`Encoding`: ``enum_value`` of an
``EnumVar`` the solver never compiled reads as the first candidate, so
mixing encodings would check nothing.
"""
from __future__ import annotations

import functools

import pytest

from repro.bench_apps import ALL_APPS, WorkloadConfig, record_observed
from repro.isolation import IsolationLevel
from repro.predict.encoder import Encoding
from repro.predict.strategies import BoundaryMode
from repro.predict.unserializability import blocking_clause
from repro.predict.weak_isolation import isolation_constraints
from repro.smt import Result, Solver

APPS = ("smallbank", "tpcc", "voter", "wikipedia", "shardtransfer")
SEEDS = (0, 1)
LEVELS = ("causal", "ra", "rc")
BOUNDARIES = ("strict", "relaxed")
MODELS = 8


@functools.lru_cache(maxsize=None)
def _history(app_name: str, seed: int):
    app = {a.name: a for a in ALL_APPS}[app_name]
    return record_observed(app(WorkloadConfig.tiny()), seed).history


def _order_atoms(e, found: set) -> None:
    """Collect the one-sided order atoms under ``e``."""
    stack = [e]
    while stack:
        node = stack.pop()
        if node.kind == "lt":
            found.add(node)
        elif node.kind in ("not", "and", "or"):
            stack.extend(node.args)


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("app", APPS)
def test_models_satisfy_the_asserted_encoding(app, seed, level, boundary):
    enc = Encoding(_history(app, seed), boundary=BoundaryMode(boundary))
    constraints = enc.feasibility_constraints()
    constraints += isolation_constraints(enc, IsolationLevel.parse(level))
    constraints += enc.definitions()
    solver = Solver()
    for c in constraints:
        solver.add(c)
    atoms: set = set()
    for c in constraints:
        _order_atoms(c, atoms)
    assert atoms, "the isolation encoding asserts commit-order atoms"
    models = 0
    while models < MODELS and solver.check() is Result.SAT:
        model = solver.model()
        models += 1
        for c in constraints:
            assert model.evaluate(c), f"model {models} falsifies {c!r}"
        for atom in atoms:
            if model._compiled_value(atom):
                x, y = atom.args
                assert model.int_value(x) < model.int_value(y), atom
        solver.add(blocking_clause(enc, model))
    assert models >= 1
