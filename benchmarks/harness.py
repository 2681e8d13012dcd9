"""Shared machinery for the table/figure benchmarks.

Each paper table has a *row function* here that computes the measured
quantities for one (program, strategy/mode) cell across seeds. Since PR 1
the rows are produced by the campaign subsystem (``repro.campaign``): a row
function builds a one-cell :class:`~repro.campaign.CampaignSpec`, runs it
through the :class:`~repro.campaign.CampaignExecutor` (parallel when
``REPRO_BENCH_JOBS`` > 1), and reshapes the aggregated cell. The pytest
benchmark modules call these with the workload sizes configured through
environment variables; ``run_all.py`` uses whole-sweep campaigns to
regenerate every table for EXPERIMENTS.md.

Environment knobs:

* ``REPRO_BENCH_SEEDS``   — seeds per cell (paper: 10; default 3)
* ``REPRO_BENCH_RUNS``    — randomized runs for Tables 6/7 (paper: 100;
  default 20)
* ``REPRO_BENCH_JOBS``    — campaign worker processes (default 1)
* ``REPRO_BENCH_LARGE``   — include the large workload (default off)
* ``REPRO_BENCH_MAX_SECONDS`` — per-solve budget (default 120)
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

try:
    import repro  # noqa: F401  (installed package wins)
except ModuleNotFoundError:  # running from a checkout without pip install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench_apps import WorkloadConfig
from repro.campaign import CampaignExecutor, CampaignSpec, CellSummary
from repro.campaign import format_table  # noqa: F401  (bench modules import it here)
from repro.isolation import IsolationLevel
from repro.predict import PredictionStrategy

__all__ = [
    "SEEDS",
    "RUNS",
    "JOBS",
    "MAX_SECONDS",
    "workloads",
    "PredictionRow",
    "prediction_row",
    "prediction_cell",
    "ExplorationRow",
    "exploration_cell",
    "monkeydb_row",
    "interleaved_row",
    "format_table",
]

SEEDS = int(os.environ.get("REPRO_BENCH_SEEDS", "3"))
RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "20"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
MAX_SECONDS = float(os.environ.get("REPRO_BENCH_MAX_SECONDS", "120"))
_LARGE = os.environ.get("REPRO_BENCH_LARGE", "") not in ("", "0", "false")


def workloads() -> list[WorkloadConfig]:
    out = [WorkloadConfig.small()]
    if _LARGE:
        out.append(WorkloadConfig.large())
    return out


@dataclass
class PredictionRow:
    """One row of Table 4/5: a (program, strategy) cell."""

    program: str
    strategy: str
    workload: str
    unknown: int = 0
    unsat: int = 0
    sat: int = 0
    validated: int = 0
    diverged: int = 0
    literals: int = 0
    gen_seconds: float = 0.0
    solve_sat_seconds: float = 0.0
    solve_unsat_seconds: float = 0.0

    @classmethod
    def from_cell(cls, cell: CellSummary) -> "PredictionRow":
        return cls(
            program=cell.app,
            strategy=cell.strategy,
            workload=cell.workload,
            unknown=cell.unknown,
            unsat=cell.unsat,
            sat=cell.sat,
            validated=cell.validated,
            diverged=cell.diverged,
            literals=cell.literals,
            gen_seconds=cell.gen_seconds,
            solve_sat_seconds=cell.solve_sat_seconds,
            solve_unsat_seconds=cell.solve_unsat_seconds,
        )

    def as_cells(self) -> list[str]:
        sat_avg = self.solve_sat_seconds / max(1, self.sat)
        unsat_avg = self.solve_unsat_seconds / max(1, self.unsat)
        return [
            self.program,
            self.strategy,
            str(self.unknown),
            str(self.unsat),
            str(self.sat),
            f"{self.validated} ({self.diverged})",
            f"{self.literals // max(1, self.sat + self.unsat + self.unknown):,}",
            f"{self.gen_seconds / max(1, SEEDS):.2f} s",
            f"{sat_avg:.2f} s" if self.sat else "-",
            f"{unsat_avg:.2f} s" if self.unsat else "-",
        ]


def _run_single_cell(spec: CampaignSpec) -> CellSummary:
    report = CampaignExecutor(spec, jobs=JOBS).run()
    (cell,) = report.cells.values()
    return cell


def _check_preset(config: WorkloadConfig) -> None:
    """Campaign rounds rebuild workloads from (label, ops_scale) only."""
    from repro.campaign.spec import _workload_config

    expected = _workload_config(config.label, config.ops_scale)
    if config != expected:
        raise ValueError(
            f"campaign-driven rows only support the preset workload shapes "
            f"(tiny/small/large + ops_scale); got {config} where label "
            f"{config.label!r} means {expected}"
        )


def prediction_cell(
    app_cls,
    level: IsolationLevel,
    strategy: PredictionStrategy,
    config: WorkloadConfig,
    seeds: int = None,
    validate: bool = True,
) -> CellSummary:
    """Run one Table 4/5 cell as a campaign (parallel across seeds)."""
    _check_preset(config)
    spec = CampaignSpec(
        name=f"bench-{app_cls.name}",
        apps=(app_cls.name,),
        isolation_levels=(str(level),),
        strategies=(str(strategy),),
        workloads=(config.label,),
        seeds=SEEDS if seeds is None else seeds,
        ops_scale=config.ops_scale,
        validate=validate,
        max_seconds=MAX_SECONDS,
    )
    return _run_single_cell(spec)


def prediction_row(
    app_cls,
    level: IsolationLevel,
    strategy: PredictionStrategy,
    config: WorkloadConfig,
    seeds: int = None,
    validate: bool = True,
) -> PredictionRow:
    """Tables 4/5: run IsoPredict across seeds, validating every prediction."""
    return PredictionRow.from_cell(
        prediction_cell(app_cls, level, strategy, config, seeds, validate)
    )


@dataclass
class ExplorationRow:
    """One row of Table 6/7: assertion failures & unserializability rates."""

    program: str
    mode: str
    runs: int = 0
    failed: int = 0
    unserializable: int = 0

    @property
    def fail_pct(self) -> int:
        return round(100 * self.failed / max(1, self.runs))

    @property
    def unser_pct(self) -> int:
        return round(100 * self.unserializable / max(1, self.runs))

    def as_cells(self) -> list[str]:
        return [
            self.program,
            self.mode,
            f"{self.fail_pct}%",
            f"{self.unser_pct}%",
        ]


def exploration_cell(
    mode: str,
    app_cls,
    level: IsolationLevel,
    config: WorkloadConfig,
    runs: int = None,
) -> CellSummary:
    _check_preset(config)
    spec = CampaignSpec(
        name=f"bench-{app_cls.name}",
        apps=(app_cls.name,),
        isolation_levels=(str(level),),
        workloads=(config.label,),
        seeds=RUNS if runs is None else runs,
        modes=(mode,),
        ops_scale=config.ops_scale,
    )
    return _run_single_cell(spec)


def _exploration_row(cell: CellSummary, mode_label: str) -> ExplorationRow:
    return ExplorationRow(
        program=cell.app,
        mode=mode_label,
        runs=cell.rounds - cell.errors,
        failed=cell.assertion_failed,
        unserializable=cell.unserializable,
    )


def monkeydb_row(
    app_cls, level: IsolationLevel, config: WorkloadConfig, runs: int = None
) -> ExplorationRow:
    """MonkeyDB testing mode: random isolation-legal reads (Tables 6/7)."""
    cell = exploration_cell("monkeydb", app_cls, level, config, runs)
    return _exploration_row(cell, f"monkeydb-{level}")


def interleaved_row(
    app_cls, config: WorkloadConfig, runs: int = None
) -> ExplorationRow:
    """The MySQL stand-in (Table 7's rightmost column)."""
    cell = exploration_cell(
        "interleaved", app_cls, IsolationLevel.READ_COMMITTED, config, runs
    )
    return _exploration_row(cell, "interleaved-rc")
