"""Host-speed reference for the benchmark's timings.

On a shared host the CPU a process gets runs faster or slower from one
minute to the next (other tenants share its cores, caches and memory
bandwidth), so raw timings of the same code spread by tens of percent
between runs. The benchmark therefore interleaves a fixed reference
kernel with the work it times and reports that work's CPU time in units
of the kernel's CPU time measured next to it, scaled to milliseconds on
a reference host.

The kernel is pure Python of the kind the program spends its time in (a
DPLL search with unit propagation: list, dict and integer work, many
small calls) over fixed 3-SAT formulas. It does not depend on ``--seed``
or on the program, so a change to the program moves the normalised
times and a change of host speed moves both sides alike.
"""
from __future__ import annotations

import gc
import random
import time

#: CPU milliseconds of one ``kernel()`` call on the reference host (an
#: idle 2-vCPU 2.1 GHz Xeon VM, CPython 3.11); normalised times are "ms on
#: that host".
REFERENCE_KERNEL_MS = 42.0


def _formula(seed: int, nvars: int = 48, nclauses: int = 204) -> list:
    rnd = random.Random(seed)
    return [
        tuple(
            v if rnd.random() < 0.5 else -v
            for v in rnd.sample(range(1, nvars + 1), 3)
        )
        for _ in range(nclauses)
    ]


_FORMULAS = [_formula(seed) for seed in (0, 3)]
#: what ``_dpll`` decides for each formula; checked on every run
_EXPECTED = [False, True]


def _dpll(clauses: list, assign: dict) -> bool:
    while True:
        unit, rest = None, []
        for clause in clauses:
            open_lits = []
            for lit in clause:
                value = assign.get(abs(lit))
                if value is None:
                    open_lits.append(lit)
                elif value == (lit > 0):
                    break
            else:
                if not open_lits:
                    return False
                if unit is None and len(open_lits) == 1:
                    unit = open_lits[0]
                rest.append(open_lits)
        if unit is None:
            break
        assign = dict(assign)
        assign[abs(unit)] = unit > 0
        clauses = rest
    if not rest:
        return True
    var = abs(rest[0][0])
    for value in (True, False):
        branch = dict(assign)
        branch[var] = value
        if _dpll(rest, branch):
            return True
    return False


def kernel() -> float:
    """Run the reference kernel once; returns its CPU seconds."""
    gc.collect()  # the caller's garbage is not the kernel's
    start = time.process_time()
    verdicts = [_dpll(formula, {}) for formula in _FORMULAS]
    cpu = time.process_time() - start
    if verdicts != _EXPECTED:
        raise AssertionError(f"reference kernel decided {verdicts}")
    return cpu


def normalise(cpu_seconds: float, kernel_seconds: float) -> float:
    """``cpu_seconds`` measured next to a kernel run of ``kernel_seconds``,
    as milliseconds on the reference host."""
    return cpu_seconds / kernel_seconds * REFERENCE_KERNEL_MS
