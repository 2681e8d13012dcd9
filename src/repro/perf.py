"""Machine-readable performance instrumentation for the solve path.

Every prediction query decomposes into four stages:

* **encode** — building the :class:`~repro.predict.encoder.Encoding` and
  generating the constraint expressions,
* **compile** — Tseitin-compiling those expressions into the SAT core,
* **solve**  — CDCL search (including incremental re-checks during
  blocking-clause enumeration), and
* **decode** — turning satisfying models back into predicted histories.

The analysis layer threads per-stage times through its existing
``stats`` dictionaries under ``<stage>_seconds`` keys (``gen_seconds``
remains the encode+compile sum for backwards compatibility), and the SAT
core contributes its counters (propagations, conflicts, learned-clause
stats, …); each stage time is its ``stage.*`` span's duration. This
module gives those measurements one shared vocabulary:

* :func:`profile_from_stats` splits a flat stats dict into the
  ``{"stages": ..., "counters": ...}`` shape ``BENCH_*.json`` records;
* :func:`format_profile` renders the same data as the ``--profile`` table
  the CLI prints;
* :func:`run_measured` / :class:`ScenarioResult` are the benchmark-suite
  side: run scenarios N times, interleaved, keep the per-run walls,
  report medians;
* :func:`compare_profiles` checks a fresh run against a recorded baseline
  (the CI regression gate).

``BENCH_*.json`` files are append-only project history: every perf PR
records one, so the trajectory of the hot path is diffable.
"""
from __future__ import annotations

import json
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

__all__ = [
    "SCHEMA_VERSION",
    "STAGES",
    "COUNTER_KEYS",
    "RATE_KEYS",
    "STREAM_COUNTER_KEYS",
    "ScenarioResult",
    "Regression",
    "profile_from_stats",
    "format_profile",
    "run_measured",
    "write_report",
    "load_report",
    "compare_profiles",
]

#: Bump when the BENCH_*.json shape changes incompatibly.
SCHEMA_VERSION = 1

#: The solve-path stages, in pipeline order.
STAGES = ("encode", "compile", "solve", "decode")

#: Solver/encoding counters worth tracking release-over-release. All are
#: deterministic functions of the scenario (no wall-clock noise), so a
#: counter drift in CI means the encoding or search actually changed.
COUNTER_KEYS = (
    "literals",
    "clauses",
    "vars",
    "propagations",
    "conflicts",
    "decisions",
    "restarts",
    "learned",
    "learned_dropped",
    "theory_conflicts",
    "candidates",
    "predictions",
)

#: Streaming-service counters (:mod:`repro.serve`): deterministic stream
#: facts — how many runs/windows were analyzed, how many distinct findings
#: and overlap duplicates the deduper saw, and the soundness ledger
#: (conflicting pairs no window covered; reads repointed across a window
#: boundary).
STREAM_COUNTER_KEYS = (
    "runs",
    "transactions",
    "windows",
    "findings",
    "duplicates",
    "coverage_gap_pairs",
    "boundary_reads",
)

#: Service rates: wall-clock-derived, so recorded for trend reading but
#: never gated by :func:`compare_profiles` (they inherit machine noise).
RATE_KEYS = (
    "findings_per_sec",
    "ingest_lag_seconds_max",
    "ingest_lag_seconds_mean",
    "window_seconds_max",
    "window_seconds_median",
    "elapsed_seconds",
)


def profile_from_stats(stats: dict) -> dict:
    """Split a flat analysis ``stats`` dict into stages + counters.

    Unknown keys are ignored; missing stages report 0.0 so profiles from
    different code versions stay comparable.
    """
    stages = {
        stage: float(stats.get(f"{stage}_seconds", 0.0)) for stage in STAGES
    }
    counters = {
        key: int(stats[key])
        for key in COUNTER_KEYS + STREAM_COUNTER_KEYS
        if key in stats
    }
    profile = {"stages": stages, "counters": counters}
    rates = {
        key: float(stats[key]) for key in RATE_KEYS if key in stats
    }
    if rates:
        profile["rates"] = rates
    if stats.get("status"):
        profile["verdict"] = str(stats["status"])
    return profile


def format_profile(stats: dict, wall_seconds: Optional[float] = None) -> str:
    """The human-readable ``--profile`` block for one analysis run."""
    profile = profile_from_stats(stats)
    stages = profile["stages"]
    total = sum(stages.values())
    lines = ["profile:"]
    width = max(len(s) for s in STAGES)
    for stage in STAGES:
        seconds = stages[stage]
        share = 100.0 * seconds / total if total > 0 else 0.0
        lines.append(f"  {stage:<{width}}  {seconds:8.3f}s  {share:5.1f}%")
    lines.append(f"  {'total':<{width}}  {total:8.3f}s")
    if wall_seconds is not None:
        lines.append(f"  {'wall':<{width}}  {wall_seconds:8.3f}s")
    counters = profile["counters"]
    if counters:
        lines.append(
            "  counters: "
            + " ".join(f"{k}={v:,}" for k, v in sorted(counters.items()))
        )
    rates = profile.get("rates")
    if rates:
        lines.append(
            "  rates:    "
            + " ".join(f"{k}={v:.3f}" for k, v in sorted(rates.items()))
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Benchmark-suite measurement
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    """Median-of-N measurement of one named benchmark scenario.

    ``size`` classifies the scenario (``small`` / ``mid`` / ``large``) so
    downstream tooling can select e.g. the mid-size scenarios a speedup
    target is defined over. ``stages``/``counters`` come from the *median*
    run (counters are deterministic, so any run would do).
    """

    name: str
    size: str
    params: dict = field(default_factory=dict)
    runs: int = 0
    wall_seconds: list[float] = field(default_factory=list)
    stages: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)  # streaming scenarios only
    verdict: str = ""  # the analysis verdict (sat/unsat/unknown), if any

    @property
    def wall_median(self) -> float:
        return statistics.median(self.wall_seconds) if self.wall_seconds else 0.0

    @property
    def wall_min(self) -> float:
        return min(self.wall_seconds) if self.wall_seconds else 0.0

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "size": self.size,
            "params": self.params,
            "runs": self.runs,
            "wall_seconds": {
                "median": round(self.wall_median, 6),
                "min": round(self.wall_min, 6),
                "all": [round(w, 6) for w in self.wall_seconds],
            },
            "stages": {k: round(v, 6) for k, v in self.stages.items()},
            "counters": self.counters,
        }
        if self.rates:
            doc["rates"] = {k: round(v, 6) for k, v in self.rates.items()}
        if self.verdict:
            doc["verdict"] = self.verdict
        return doc


def run_measured(
    sides: list[tuple[str, str, dict, Callable[[], dict]]],
    repeats: int = 3,
) -> list[ScenarioResult]:
    """Run each ``(name, size, params, scenario)`` side ``repeats`` times;
    keep all walls, median stages.

    ``scenario`` performs one full cold analysis and returns its flat
    ``stats`` dict (the shape :func:`profile_from_stats` understands).
    Several sides run interleaved (A, B, B, A, ...), so drift over the
    run lands on every side instead of on whichever is timed last.
    Walls read the real clock, so telemetry's own cost is measured too.
    """
    walls: list[list[float]] = [[] for _ in sides]
    profiles: list[list[dict]] = [[] for _ in sides]
    for i in range(repeats):
        for j in sorted(range(len(sides)), reverse=i % 2 == 1):
            start = time.monotonic()
            stats = sides[j][3]()
            walls[j].append(time.monotonic() - start)
            profiles[j].append(profile_from_stats(stats))
    results = []
    for (name, size, params, _), side_walls, side_profiles in zip(
        sides, walls, profiles
    ):
        # the run with the median wall is the representative one
        order = sorted(range(repeats), key=side_walls.__getitem__)
        representative = side_profiles[order[repeats // 2]]
        results.append(ScenarioResult(
            name=name,
            size=size,
            params=params,
            runs=repeats,
            wall_seconds=side_walls,
            stages=representative["stages"],
            counters=representative["counters"],
            rates=representative.get("rates", {}),
            verdict=representative.get("verdict", ""),
        ))
    return results


def write_report(
    results: list[ScenarioResult],
    out: Union[str, Path],
    meta: Optional[dict] = None,
) -> dict:
    """Serialize suite results as a BENCH_*.json document; returns the dict."""
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "isopredict-perf-suite",
        "python": platform.python_version(),
        "meta": dict(meta or {}),
        "scenarios": [r.to_dict() for r in results],
    }
    Path(out).write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    return doc


def load_report(path: Union[str, Path]) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported perf schema {doc.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return doc


@dataclass
class Regression:
    """One scenario that regressed past the allowed threshold."""

    name: str
    metric: str  # "wall" (seconds) or a counter name
    baseline: float
    current: float
    ratio: float

    def __str__(self) -> str:
        if self.metric == "wall":
            values = f"{self.baseline:.3f}s -> {self.current:.3f}s"
        else:
            values = (
                f"{self.metric} {self.baseline:,.0f} -> {self.current:,.0f}"
            )
        return f"{self.name}: {values} ({self.ratio:.2f}x)"


#: Counters gated by :func:`compare_profiles`. Deterministic for a fixed
#: scenario (the suite pins the hash seed), so unlike wall times they are
#: comparable across machines — a drift here is an algorithmic change.
GATED_COUNTERS = ("propagations", "conflicts")

#: Below this many baseline propagations/conflicts a ratio is meaningless
#: (tiny scenarios flip between e.g. 2 and 5 conflicts legitimately).
_COUNTER_FLOOR = 10_000


def compare_profiles(
    current: dict, baseline: dict, threshold: float = 2.0
) -> list[Regression]:
    """Scenarios in ``current`` that regressed past ``threshold``×.

    Two gates per scenario present in both documents (a new scenario has
    no baseline to regress against; a removed one is a review question,
    not a CI failure):

    * **median wall time** — machine-dependent, so scenarios whose
      baseline median is under 50 ms are skipped (jitter-dominated), and
      on foreign hardware (CI runners vs the machine that recorded the
      baseline) this gate is only as meaningful as the speed gap;
    * **search counters** (:data:`GATED_COUNTERS`) — deterministic under
      the suite's pinned hash seed and hence machine-independent: a
      propagation/conflict blow-up is a real encoding or search change
      even when the wall gate is drowned by runner noise.
    """
    base_by_name = {
        s["name"]: s for s in baseline.get("scenarios", [])
    }
    regressions: list[Regression] = []
    for scenario in current.get("scenarios", []):
        base = base_by_name.get(scenario["name"])
        if base is None:
            continue
        base_median = float(base["wall_seconds"]["median"])
        cur_median = float(scenario["wall_seconds"]["median"])
        if base_median >= 0.05:
            ratio = cur_median / base_median
            if ratio > threshold:
                regressions.append(
                    Regression(
                        name=scenario["name"],
                        metric="wall",
                        baseline=base_median,
                        current=cur_median,
                        ratio=ratio,
                    )
                )
        for counter in GATED_COUNTERS:
            base_count = base.get("counters", {}).get(counter)
            cur_count = scenario.get("counters", {}).get(counter)
            if not base_count or cur_count is None:
                continue
            if base_count < _COUNTER_FLOOR:
                continue
            ratio = cur_count / base_count
            if ratio > threshold:
                regressions.append(
                    Regression(
                        name=scenario["name"],
                        metric=counter,
                        baseline=float(base_count),
                        current=float(cur_count),
                        ratio=ratio,
                    )
                )
    return regressions
