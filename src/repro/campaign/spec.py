"""Declarative campaign specifications.

A *campaign* is the unit of evaluation the paper actually reports on:
hundreds of record→predict→validate rounds swept over benchmark apps,
isolation levels, encoding strategies, and seeds (Tables 3–7). A
:class:`CampaignSpec` names that sweep declaratively; :meth:`CampaignSpec.rounds`
expands it into concrete, independently executable :class:`RoundSpec`\\ s in a
deterministic order, so the executor can fan them out over a worker pool
without changing what gets computed.

Specs load from TOML or JSON files (``CampaignSpec.from_file``) or from CLI
flags; everything is validated eagerly so a typo fails before any worker
starts.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence, Union

from ..bench_apps import ALL_APPS, WorkloadConfig
from ..isolation.levels import IsolationLevel
from ..predict.strategies import PredictionStrategy
from ..store.backends import store_backend_spec

__all__ = [
    "CampaignSpec",
    "RoundSpec",
    "KNOWN_APPS",
    "KNOWN_SOURCES",
    "KNOWN_WORKLOADS",
]

KNOWN_APPS = tuple(sorted(app.name for app in ALL_APPS))
KNOWN_WORKLOADS = ("tiny", "small", "large")

#: Round modes: ``predict`` is the Fig. 4 record→predict→validate pipeline
#: (Tables 4/5); ``monkeydb`` is random weak-isolation exploration and
#: ``interleaved`` the realistic read-committed executor (Tables 6/7).
KNOWN_MODES = ("predict", "monkeydb", "interleaved")

#: Placeholder strategy for modes that do not run the predictive analysis.
NO_STRATEGY = "-"

#: History sources a round can draw from: ``bench`` records a ported
#: benchmark app, ``fuzz`` records a generated random app (the seed is the
#: shape seed), and ``trace:<path>`` analyzes an externally recorded trace
#: file (predict mode only — external traces cannot be replay-validated).
KNOWN_SOURCES = ("bench", "fuzz")


def _check_source(source: str) -> None:
    if source in KNOWN_SOURCES:
        return
    if source.startswith("trace:") and source[len("trace:"):]:
        return
    raise ValueError(
        f"unknown source {source!r}; expected one of {KNOWN_SOURCES} "
        "or 'trace:<path>'"
    )


def _workload_config(workload: str, ops_scale: int) -> WorkloadConfig:
    if workload == "tiny":
        config = WorkloadConfig.tiny()
        return replace(config, ops_scale=ops_scale)
    if workload == "small":
        return WorkloadConfig.small(ops_scale)
    if workload == "large":
        return WorkloadConfig.large(ops_scale)
    raise ValueError(
        f"unknown workload {workload!r}; expected one of {KNOWN_WORKLOADS}"
    )


@dataclass(frozen=True)
class RoundSpec:
    """One independently executable cell×seed of a campaign.

    Everything is plain strings/numbers so a round pickles cheaply to a
    worker process and round-trips through JSONL unchanged. ``isolation``
    and ``strategy`` are kept in canonical parsed-back-out form (e.g.
    ``"rc"``, ``"approx-relaxed"``).
    """

    app: str
    isolation: str
    strategy: str
    workload: str
    seed: int
    mode: str = "predict"
    source: str = "bench"
    ops_scale: int = 1
    validate: bool = True
    max_seconds: Optional[float] = 120.0
    max_predictions: int = 1
    backend: str = "inmemory"

    def __post_init__(self):
        _check_source(self.source)
        # canonicalize so round ids are stable ("memory" /
        # "sharded:2:global" collapse to "inmemory" / "sharded:2")
        object.__setattr__(
            self, "backend", store_backend_spec(self.backend)
        )
        if self.source.startswith("trace:") and self.backend != "inmemory":
            raise ValueError(
                "trace sources execute nothing, so a store backend "
                f"({self.backend!r}) cannot apply; use backend= with "
                "bench or fuzz sources"
            )
        if self.source == "bench" and self.app not in KNOWN_APPS:
            raise ValueError(
                f"unknown app {self.app!r}; expected one of {KNOWN_APPS}"
            )
        if self.source.startswith("trace:") and self.mode != "predict":
            raise ValueError(
                "trace sources support predict mode only: an external "
                "trace cannot be re-executed for exploration"
            )
        if self.mode not in KNOWN_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {KNOWN_MODES}"
            )
        if self.workload not in KNOWN_WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"expected one of {KNOWN_WORKLOADS}"
            )
        IsolationLevel.parse(self.isolation)  # raises on garbage
        if self.mode == "predict":
            PredictionStrategy.parse(self.strategy)
            if self.max_predictions < 1:
                raise ValueError("max_predictions must be >= 1")

    @property
    def round_id(self) -> str:
        """Stable identity used for JSONL resume and cross-run comparison.

        Every field that can change a round's *result* is part of the id —
        in particular the predict-mode knobs (k, validate, solver budget):
        resuming after changing one of those must re-run the round, not
        serve the stale record.
        """
        base = (
            f"{self.mode}:{self.app}:{self.workload}"
            f"x{self.ops_scale}:{self.isolation}:{self.strategy}"
        )
        if self.source != "bench":
            # non-default sources extend the id; bench keeps the original
            # format so pre-existing JSONL result files still resume.
            base = f"{self.source}:{base}"
        if self.mode == "predict":
            budget = (
                "inf" if self.max_seconds is None
                else f"{self.max_seconds:g}"
            )
            base += (
                f":k={self.max_predictions}:val={int(self.validate)}"
                f":t={budget}"
            )
        if self.backend != "inmemory":
            # store backends change where every mode executes, so the
            # segment applies to predict and exploration rounds alike;
            # the in-memory default keeps the original id format
            base += f":store={self.backend}"
        return base + f":seed={self.seed}"

    @property
    def cell(self) -> tuple:
        """The aggregation key: everything except the seed."""
        return (
            self.mode,
            self.app,
            self.workload,
            self.isolation,
            self.strategy,
        )

    def workload_config(self) -> WorkloadConfig:
        return _workload_config(self.workload, self.ops_scale)

    def history_source(self, backend=None):
        """The :class:`repro.sources.HistorySource` this round analyzes.

        ``backend`` is the store backend the source executes on (``None``
        for the in-memory default); whoever built it closes it.
        """
        from ..sources import BenchAppSource, FuzzSource, TraceFileSource

        if self.source == "bench":
            return BenchAppSource(
                self.app, self.workload_config(), self.seed,
                backend=backend,
            )
        if self.source == "fuzz":
            # the round seed is the *shape* seed: each seed is a fresh
            # scenario, recorded under the same deterministic scheduler seed
            return FuzzSource(
                shape_seed=self.seed,
                config=self.workload_config(),
                seed=self.seed,
                backend=backend,
            )
        return TraceFileSource(self.source[len("trace:"):])


def _as_tuple(value, what: str) -> tuple:
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
        if not parts:
            raise ValueError(f"empty {what} list")
        return tuple(parts)
    if isinstance(value, Sequence):
        out = tuple(value)
        if not out:
            raise ValueError(f"empty {what} list")
        return out
    raise ValueError(f"{what} must be a list or comma-separated string")


def _normalize_seeds(value) -> tuple[int, ...]:
    """A count (``4`` or ``"4"`` → seeds 0..3) or an explicit list.

    A string with commas is always an explicit list (``"7,"`` is the
    one-element list containing seed 7); a bare number string is a count,
    matching the CLI's ``--seeds N``.
    """
    if isinstance(value, bool):
        raise ValueError("seeds must be an int count or a list of ints")
    if isinstance(value, str) and "," not in value:
        value = int(value)
    if isinstance(value, int):
        if value < 1:
            raise ValueError("seed count must be >= 1")
        return tuple(range(value))
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    if isinstance(value, Sequence):
        seeds = tuple(int(s) for s in value)
        if not seeds:
            raise ValueError("seeds must not be empty")
        return seeds
    raise ValueError("seeds must be an int count or a list of ints")


@dataclass(frozen=True)
class CampaignSpec:
    """A full sweep: apps × isolation levels × strategies × seeds.

    ``seeds`` may be given as a count (``4`` → seeds 0..3) or an explicit
    list; ``max_rounds`` is the round *budget* — expansion stops after that
    many rounds, in the deterministic expansion order, which makes truncated
    dry runs reproducible. ``max_seconds`` is the per-round soft timeout
    (the solver budget inside the round), not a campaign-wide limit.
    """

    name: str = "campaign"
    apps: tuple = ("smallbank",)
    isolation_levels: tuple = ("causal",)
    strategies: tuple = ("approx-relaxed",)
    workloads: tuple = ("small",)
    seeds: tuple = (0, 1, 2)
    modes: tuple = ("predict",)
    source: str = "bench"
    ops_scale: int = 1
    validate: bool = True
    max_seconds: Optional[float] = 120.0
    max_predictions: int = 1
    max_rounds: Optional[int] = None
    backend: str = "inmemory"

    def __post_init__(self):
        # normalize user-friendly forms ("all", comma strings, counts) so
        # frozen equality/round-tripping sees canonical values.
        _check_source(self.source)
        object.__setattr__(
            self, "backend", store_backend_spec(self.backend)
        )
        if self.source == "bench":
            apps = _as_tuple(self.apps, "apps")
            if apps == ("all",):
                apps = KNOWN_APPS
        elif self.source == "fuzz":
            apps = ("randomapp",)  # the app column is a label, not a class
        else:
            apps = (Path(self.source[len("trace:"):]).stem or "trace",)
        object.__setattr__(self, "apps", apps)
        object.__setattr__(
            self,
            "isolation_levels",
            tuple(
                str(IsolationLevel.parse(level))
                for level in _as_tuple(self.isolation_levels, "isolation")
            ),
        )
        object.__setattr__(
            self,
            "strategies",
            tuple(
                str(PredictionStrategy.parse(s))
                for s in _as_tuple(self.strategies, "strategies")
            )
            if self.strategies
            else (),
        )
        object.__setattr__(
            self, "workloads", _as_tuple(self.workloads, "workloads")
        )
        object.__setattr__(self, "seeds", _normalize_seeds(self.seeds))
        object.__setattr__(self, "modes", _as_tuple(self.modes, "modes"))
        if "predict" in self.modes and not self.strategies:
            raise ValueError("predict mode requires at least one strategy")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.source.startswith("trace:") and len(self.seeds) > 1:
            # A trace file is a fixed history: sweeping seeds over it just
            # re-labels one analysis per (trace, config). The per-worker
            # memo in campaign.rounds makes the duplicates cheap, but the
            # sweep is almost certainly not what was meant.
            warnings.warn(
                f"campaign source {self.source!r} with "
                f"{len(self.seeds)} seeds: a trace is a fixed history, so "
                "every seed repeats the same analysis (its result is "
                "computed once and re-labelled); use seeds=1 unless the "
                "duplicated rows are intentional",
                stacklevel=2,
            )
        # expansion validates each round eagerly (unknown app/mode/workload);
        # the tuple is kept as a plain attribute, not a field, so equality,
        # hashing, repr and to_mapping ignore it
        object.__setattr__(self, "_rounds", self._expand())

    # ------------------------------------------------------------------
    def rounds(self) -> tuple[RoundSpec, ...]:
        """Expand to concrete rounds, deterministically, budget applied.

        Order: mode → workload → app → isolation → strategy → seed. The
        non-predict modes ignore strategies (one round per cell×seed), and
        ``interleaved`` pins isolation to read committed — it models the
        paper's MySQL stand-in. The spec is frozen, so the expansion made
        at construction is returned every time.
        """
        return self._rounds

    def _expand(self) -> tuple[RoundSpec, ...]:
        out: list[RoundSpec] = []
        for mode in self.modes:
            levels = (
                ("rc",) if mode == "interleaved" else self.isolation_levels
            )
            strategies = (
                self.strategies if mode == "predict" else (NO_STRATEGY,)
            )
            for workload in self.workloads:
                for app in self.apps:
                    for isolation in levels:
                        for strategy in strategies:
                            for seed in self.seeds:
                                out.append(
                                    RoundSpec(
                                        app=app,
                                        isolation=isolation,
                                        strategy=strategy,
                                        workload=workload,
                                        seed=seed,
                                        mode=mode,
                                        source=self.source,
                                        ops_scale=self.ops_scale,
                                        validate=self.validate,
                                        max_seconds=self.max_seconds,
                                        max_predictions=self.max_predictions,
                                        backend=self.backend,
                                    )
                                )
                                if (
                                    self.max_rounds is not None
                                    and len(out) >= self.max_rounds
                                ):
                                    return tuple(out)
        return tuple(out)

    # ------------------------------------------------------------------
    def to_mapping(self) -> dict:
        """A plain-dict form that round-trips through ``from_mapping``."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_mapping(cls, data: dict) -> "CampaignSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown campaign spec keys: {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**data)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Load a spec from a ``.toml`` or ``.json`` file.

        TOML files may put the keys at top level or under a ``[campaign]``
        table; JSON files are a single object.
        """
        path = Path(path)
        text = path.read_text()
        if path.suffix.lower() == ".toml":
            import tomllib

            data = tomllib.loads(text)
            data = data.get("campaign", data)
        else:
            data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"campaign spec {path} must be a table/object")
        spec = cls.from_mapping(data)
        if spec.name == "campaign" and "name" not in data:
            spec = replace(spec, name=path.stem)
        return spec
