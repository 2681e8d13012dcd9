"""Prediction strategies (paper Table 2) and solver budgets.

:class:`Budget` is the shared spelling for "how long may the solver
search": a wall-clock bound, a conflict bound, or both. It parses from
the CLI's ``--budget`` flag (``"30s"``, ``"20000c"``, ``"30s,20000c"``, a
bare number meaning seconds) and feeds :class:`repro.predict.IsoPredict`,
which threads it to every solver call of the analysis.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = ["Budget", "EncodingMode", "BoundaryMode", "PredictionStrategy"]


@dataclass(frozen=True)
class Budget:
    """Solver search limits: wall-clock seconds and/or conflict count.

    Both limits apply *per solver call*: an incremental enumeration
    grants every re-check its own allowance.
    """

    max_seconds: Optional[float] = None
    max_conflicts: Optional[int] = None

    @classmethod
    def parse(cls, text: "str | float | Budget | None") -> "Budget":
        """``"30s"`` / ``"20000c"`` / ``"30s,20000c"`` / ``30`` (seconds)."""
        if text is None:
            return cls()
        if isinstance(text, Budget):
            return text
        if isinstance(text, (int, float)):
            return cls(max_seconds=float(text))
        seconds: Optional[float] = None
        conflicts: Optional[int] = None
        for part in str(text).split(","):
            part = part.strip().lower()
            if not part:
                continue
            try:
                if part.endswith("s"):
                    seconds = float(part[:-1])
                elif part.endswith("c"):
                    conflicts = int(part[:-1])
                else:
                    seconds = float(part)
            except ValueError:
                raise ValueError(
                    f"bad budget component {part!r}; expected e.g. "
                    "'30s', '20000c', or '30s,20000c'"
                ) from None
        return cls(max_seconds=seconds, max_conflicts=conflicts)

    def __str__(self) -> str:
        parts = []
        if self.max_seconds is not None:
            parts.append(f"{self.max_seconds:g}s")
        if self.max_conflicts is not None:
            parts.append(f"{self.max_conflicts}c")
        return ",".join(parts) if parts else "unbounded"


class EncodingMode(enum.Enum):
    """How unserializability is encoded (§4.2)."""

    EXACT = "exact"  # §4.2.1 — necessary and sufficient (via CEGIS here)
    APPROX = "approx"  # §4.2.2 — sufficient (pco least fixpoint is cyclic)


class BoundaryMode(enum.Enum):
    """How much potentially divergent behaviour is excluded (§4.5)."""

    STRICT = "strict"  # exclude events after any read with a changed writer
    RELAXED = "relaxed"  # exclude events after the *transaction* containing one


@dataclass(frozen=True)
class PredictionStrategy:
    """An (encoding, boundary) combination.

    The paper evaluates three: Exact-Strict, Approx-Strict, Approx-Relaxed.
    Exact-Relaxed is constructible but was not part of the evaluation.
    """

    encoding: EncodingMode
    boundary: BoundaryMode

    def __str__(self) -> str:
        return f"{self.encoding.value}-{self.boundary.value}"

    @classmethod
    def parse(cls, text: str) -> "PredictionStrategy":
        try:
            enc, bnd = text.strip().lower().split("-")
            return cls(EncodingMode(enc), BoundaryMode(bnd))
        except ValueError:
            raise ValueError(
                f"unknown strategy {text!r}; expected e.g. 'approx-strict'"
            ) from None


PredictionStrategy.EXACT_STRICT = PredictionStrategy(
    EncodingMode.EXACT, BoundaryMode.STRICT
)
PredictionStrategy.APPROX_STRICT = PredictionStrategy(
    EncodingMode.APPROX, BoundaryMode.STRICT
)
PredictionStrategy.APPROX_RELAXED = PredictionStrategy(
    EncodingMode.APPROX, BoundaryMode.RELAXED
)
PredictionStrategy.ALL = (
    PredictionStrategy.EXACT_STRICT,
    PredictionStrategy.APPROX_STRICT,
    PredictionStrategy.APPROX_RELAXED,
)
