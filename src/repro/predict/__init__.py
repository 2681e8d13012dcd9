"""IsoPredict's predictive analysis — the paper's primary contribution (§4).

Given an observed execution history, generate SMT constraints whose models
are *feasible, unserializable* executions of the same program under a weak
isolation level, and decode a satisfying model back into a predicted
history. See ``docs/architecture.md`` for how the exact strategy's
quantified encoding is realized via CEGIS on our quantifier-free substrate.
"""
from .strategies import BoundaryMode, EncodingMode, PredictionStrategy
from .encoder import Encoding
from .analysis import (
    IsoPredict,
    PredictionBatch,
    PredictionEnumeration,
    PredictionResult,
    predict_unserializable,
)

__all__ = [
    "BoundaryMode",
    "Encoding",
    "EncodingMode",
    "IsoPredict",
    "PredictionBatch",
    "PredictionEnumeration",
    "PredictionResult",
    "PredictionStrategy",
    "predict_unserializable",
]
