"""One incremental prediction session per (isolation, strategy) family.

A *window family* is the streaming counterpart of one
:class:`repro.api.Analysis` configuration: one
:class:`~repro.predict.analysis.IsoPredict` analyzer — parsed and
validated once, reused for every window — plus at most one live
:class:`~repro.predict.analysis.PredictionEnumeration` at a time. Asking
the same window for more predictions (a ``k`` sweep, a resumed limit)
extends the live incremental solver instead of re-encoding; moving to
the next window releases the previous enumeration, folding its stage
timings and solver counters into the family's running totals so service
metrics see the whole stream, not just the last window.
"""
from __future__ import annotations

from typing import Optional, Union

from ..isolation.levels import IsolationLevel
from ..predict.analysis import (
    MAX_CANDIDATES,
    IsoPredict,
    PredictionEnumeration,
    PredictionResult,
)
from ..predict.strategies import PredictionStrategy
from .window import Window

__all__ = ["WindowFamily"]


class WindowFamily:
    """The incremental analysis lane for one (isolation, strategy) pair."""

    def __init__(
        self,
        isolation: Union[IsolationLevel, str],
        strategy: Union[PredictionStrategy, str] = (
            PredictionStrategy.APPROX_RELAXED
        ),
        *,
        max_seconds: Optional[float] = None,
        max_conflicts: Optional[int] = None,
        max_candidates: int = MAX_CANDIDATES,
    ):
        if isinstance(isolation, str):
            isolation = IsolationLevel.parse(isolation)
        if isinstance(strategy, str):
            strategy = PredictionStrategy.parse(strategy)
        self.isolation = isolation
        self.strategy = strategy
        self.analyzer = IsoPredict(
            isolation,
            strategy,
            max_seconds=max_seconds,
            max_conflicts=max_conflicts,
            max_candidates=max_candidates,
        )
        self._key: Optional[tuple] = None
        self._enum: Optional[PredictionEnumeration] = None
        self._totals: dict = {}
        self.windows = 0

    @property
    def name(self) -> str:
        return f"{self.isolation}/{self.strategy}"

    # ------------------------------------------------------------------
    def _fold(self, stats: dict) -> None:
        for key, value in stats.items():
            if isinstance(value, (int, float)):
                self._totals[key] = self._totals.get(key, 0) + value

    def analyze(
        self,
        window: Window,
        k: int = 1,
        run_key: object = None,
    ) -> tuple[list[PredictionResult], dict]:
        """Predictions for ``window`` plus that window's own stats.

        ``run_key`` disambiguates windows of different runs (window
        indices restart per run). Re-querying the window this family is
        already holding — same run, same index — extends the live
        incremental solver; a new window releases the old enumeration
        first, so exactly one solver per family is alive at any moment.
        """
        key = (run_key, window.index, window.start, window.stop)
        if self._enum is None or self._key != key:
            self.release()
            self._enum = self.analyzer.enumerator(window.history)
            self._key = key
            self.windows += 1
        self._enum.ensure(k)
        return list(self._enum.predictions), dict(self._enum.stats)

    def release(self) -> None:
        """Release the live enumeration, folding its stats into totals."""
        if self._enum is not None:
            self._fold(self._enum.release())
            self._enum = None
            self._key = None

    @property
    def stats(self) -> dict:
        """Cumulative stage/solver totals across every window so far."""
        merged = dict(self._totals)
        if self._enum is not None:
            for key, value in self._enum.stats.items():
                if isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
        merged["windows"] = self.windows
        return merged
