"""Prediction strategies (paper Table 2)."""
from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["EncodingMode", "BoundaryMode", "PredictionStrategy"]


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
