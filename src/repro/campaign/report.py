"""Aggregating round results into the paper's table shapes.

One :class:`CellSummary` per (mode, app, workload, isolation, strategy)
mirrors a row of Tables 4/5 (prediction counts, validation counts, literal
sizes, generation/solve times split by outcome) or Tables 6/7 (assertion
failure and unserializability rates); :class:`CampaignReport` holds the
whole sweep plus the formatted summary the CLI prints.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional

from .rounds import RoundResult
from .spec import CampaignSpec

__all__ = ["CellSummary", "CampaignReport", "aggregate", "format_table"]


def format_table(title: str, headers: list, rows: list) -> str:
    """Render an aligned fixed-width table (shared with the benchmarks)."""
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]

    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

    lines = [f"\n=== {title} ===", fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


@dataclass
class CellSummary:
    """Aggregated measurements for one cell across its seeds."""

    mode: str
    app: str
    workload: str
    isolation: str
    strategy: str
    rounds: int = 0
    errors: int = 0
    # -- predict mode ---------------------------------------------------
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    predictions: int = 0  # total across k-enumeration
    validated: int = 0
    diverged: int = 0
    literals: int = 0
    gen_seconds: float = 0.0
    solve_sat_seconds: float = 0.0
    solve_unsat_seconds: float = 0.0
    # -- exploration modes ----------------------------------------------
    assertion_failed: int = 0
    unserializable: int = 0
    # -- both -----------------------------------------------------------
    wall_seconds: float = 0.0

    #: Aggregate fields that vary run-to-run even for identical inputs —
    #: excluded from cross-run/cross-host comparisons, mirroring
    #: ``RoundResult``'s ``TIMING_FIELDS``.
    TIMING_FIELDS = (
        "gen_seconds",
        "solve_sat_seconds",
        "solve_unsat_seconds",
        "wall_seconds",
    )

    @property
    def key(self) -> tuple:
        return (self.mode, self.app, self.workload, self.isolation,
                self.strategy)

    def comparable_dict(self) -> dict:
        """The cell minus timing noise — equal across equivalent runs."""
        out = asdict(self)
        for key in self.TIMING_FIELDS:
            out.pop(key)
        return out

    @property
    def prediction_rate(self) -> float:
        """Fraction of completed rounds that predicted unserializability."""
        return self.sat / max(1, self.rounds - self.errors)

    @property
    def validation_rate(self) -> float:
        """Fraction of predicting rounds whose prediction validated."""
        return self.validated / max(1, self.sat)

    @property
    def fail_rate(self) -> float:
        return self.assertion_failed / max(1, self.rounds - self.errors)

    @property
    def unser_rate(self) -> float:
        return self.unserializable / max(1, self.rounds - self.errors)

    # ------------------------------------------------------------------
    def add(self, result: RoundResult) -> None:
        self.rounds += 1
        self.wall_seconds += result.wall_seconds
        if result.status == "error":
            self.errors += 1
            return
        if result.mode == "predict":
            if result.status == "sat":
                self.sat += 1
                self.solve_sat_seconds += result.solve_seconds
            elif result.status == "unsat":
                self.unsat += 1
                self.solve_unsat_seconds += result.solve_seconds
            else:
                self.unknown += 1
            self.predictions += result.predicted
            self.validated += int(result.validated)
            self.diverged += int(result.diverged)
            self.literals += result.literals
            self.gen_seconds += result.gen_seconds
        else:
            self.assertion_failed += int(result.assertion_failed)
            self.unserializable += int(result.unserializable)

    # ------------------------------------------------------------------
    PREDICT_HEADERS = [
        "program", "workload", "isolation", "strategy", "unk", "unsat",
        "sat", "preds", "validated (div)", "avg literals", "gen",
        "solve-sat", "solve-unsat",
    ]
    EXPLORE_HEADERS = [
        "program", "workload", "isolation", "mode", "runs", "fail",
        "unser",
    ]

    def as_predict_cells(self) -> list:
        completed = max(1, self.rounds - self.errors)
        sat_avg = self.solve_sat_seconds / max(1, self.sat)
        unsat_avg = self.solve_unsat_seconds / max(1, self.unsat)
        return [
            self.app,
            self.workload,
            self.isolation,
            self.strategy,
            str(self.unknown),
            str(self.unsat),
            str(self.sat),
            str(self.predictions),
            f"{self.validated} ({self.diverged})",
            f"{self.literals // completed:,}",
            f"{self.gen_seconds / completed:.2f} s",
            f"{sat_avg:.2f} s" if self.sat else "-",
            f"{unsat_avg:.2f} s" if self.unsat else "-",
        ]

    def as_explore_cells(self) -> list:
        return [
            self.app,
            self.workload,
            self.isolation,
            self.mode,
            str(self.rounds - self.errors),
            f"{round(100 * self.fail_rate)}%",
            f"{round(100 * self.unser_rate)}%",
        ]


def aggregate(results: Iterable[RoundResult]) -> dict[tuple, CellSummary]:
    """Group results into cells; insertion order follows first appearance."""
    cells: dict[tuple, CellSummary] = {}
    for result in results:
        key = (result.mode, result.app, result.workload, result.isolation,
               result.strategy)
        if key not in cells:
            cells[key] = CellSummary(*key)
        cells[key].add(result)
    return cells


@dataclass
class CampaignReport:
    """Everything one executor run produced, plus how it was produced."""

    spec: CampaignSpec
    results: list = field(default_factory=list)
    cells: dict = field(default_factory=dict)
    jobs: int = 1
    wall_seconds: float = 0.0
    cancelled: bool = False
    counters: dict = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        spec: CampaignSpec,
        results: list,
        jobs: int = 1,
        cancelled: bool = False,
        events: Optional[dict] = None,
    ) -> "CampaignReport":
        ordered = sorted(results, key=lambda r: r.round_id)
        return cls(
            spec=spec,
            results=ordered,
            cells=aggregate(ordered),
            jobs=jobs,
            cancelled=cancelled,
            counters=cls._fault_counters(ordered, events),
        )

    @staticmethod
    def _fault_counters(results: list, events: Optional[dict]) -> dict:
        """Roll worker-reported fault meta + executor events into totals.

        ``faults_injected``/``round_retries`` come from
        the per-round accounting each worker shipped in
        ``RoundResult.faults``; the ``worker_*``/``rounds_*`` keys come
        from the executor's own stall handling. A fault-free run rolls
        up to all-zero, so the summary can stay silent.
        """
        totals = {
            "faults_injected": 0,
            "round_retries": 0,
            "rounds_retried_in_worker": 0,
        }
        for result in results:
            faults = getattr(result, "faults", None) or {}
            totals["faults_injected"] += sum(
                faults.get("injected", {}).values()
            )
            totals["round_retries"] += sum(
                faults.get("retries", {}).values()
            )
            if getattr(result, "attempts", 1) > 1:
                totals["rounds_retried_in_worker"] += 1
        totals.update(events or {})
        return totals

    # ------------------------------------------------------------------
    @property
    def errors(self) -> int:
        return sum(1 for r in self.results if r.status == "error")

    def cell(self, mode, app, workload, isolation, strategy) -> Optional[CellSummary]:
        return self.cells.get((mode, app, workload, isolation, strategy))

    def comparable_document(self) -> dict:
        """The report as pure measurement: spec, rounds, cells — no noise.

        Everything wall-clock, scheduling, or resilience related is
        excluded (per-round ``TIMING_FIELDS``/``RESILIENCE_FIELDS``, the
        cell timing sums, ``jobs``, ``wall_seconds``, the fault
        counters), leaving only fields that are pure functions of the
        spec. Two equivalent runs — ``--jobs 1`` vs ``--jobs 8``, one
        executor vs a K-worker fleet merge — produce *equal* documents;
        :meth:`canonical_json` makes that equality byte-exact, which is
        what the ``fleet-smoke`` CI job diffs.
        """
        return {
            "campaign": self.spec.name,
            "spec": self.spec.to_mapping(),
            "rounds": [r.comparable_dict() for r in self.results],
            "cells": [c.comparable_dict() for c in self.cells.values()],
        }

    def canonical_json(self) -> str:
        """:meth:`comparable_document` in one canonical byte encoding."""
        return (
            json.dumps(
                self.comparable_document(), indent=2, sort_keys=True
            )
            + "\n"
        )

    def summary(self) -> str:
        """The formatted tables (predict cells, then exploration cells)."""
        sections = []
        predict = [c for c in self.cells.values() if c.mode == "predict"]
        explore = [c for c in self.cells.values() if c.mode != "predict"]
        busy = sum(c.wall_seconds for c in self.cells.values())
        if predict:
            sections.append(
                format_table(
                    f"campaign '{self.spec.name}': prediction rounds",
                    CellSummary.PREDICT_HEADERS,
                    [c.as_predict_cells() for c in predict],
                )
            )
        if explore:
            sections.append(
                format_table(
                    f"campaign '{self.spec.name}': exploration rounds",
                    CellSummary.EXPLORE_HEADERS,
                    [c.as_explore_cells() for c in explore],
                )
            )
        status = "cancelled" if self.cancelled else "complete"
        sections.append(
            f"\n{len(self.results)} rounds {status} "
            f"({self.errors} errors) in {self.wall_seconds:.1f}s wall "
            f"({busy:.1f}s of round work, jobs={self.jobs})"
        )
        nonzero = {k: v for k, v in self.counters.items() if v}
        if nonzero:
            sections.append(
                "robustness: "
                + " ".join(f"{k}={v}" for k, v in sorted(nonzero.items()))
            )
        return "\n".join(sections)
