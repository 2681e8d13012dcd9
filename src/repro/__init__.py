"""IsoPredict reproduction: predictive analysis for weak-isolation anomalies.

Reproduction of Geng, Blanas, Bond & Wang, *IsoPredict: Dynamic Predictive
Analysis for Detecting Unserializable Behaviors in Weakly Isolated Data
Store Applications* (PLDI 2024), including every substrate it depends on —
a pure-Python SMT solver, a MonkeyDB-style transactional key-value store,
an SQL-to-KV layer, and the four OLTP benchmark applications.

Quickstart::

    from repro import (
        HistoryBuilder, IsolationLevel, IsoPredict, PredictionStrategy,
    )

    b = HistoryBuilder(initial={"acct": 0})
    b.txn("t1", "s1").read("acct", writer="t0").write("acct", 50)
    b.txn("t2", "s2").read("acct", writer="t1").write("acct", 110)
    observed = b.build()

    result = IsoPredict(
        IsolationLevel.CAUSAL, PredictionStrategy.APPROX_RELAXED
    ).predict(observed)
    assert result.found  # the Fig. 3a lost update
"""
from .api import Analysis, AnalysisResult, ReplayUnavailable
from .history import (
    History,
    HistoryBuilder,
    Transaction,
    load_history,
    load_trace,
    save_history,
)
from .isolation import (
    IsolationLevel,
    is_causal,
    is_read_committed,
    is_serializable,
    pco_unserializable,
)
from .predict import (
    IsoPredict,
    PredictionResult,
    PredictionStrategy,
    predict_unserializable,
)
from .sources import (
    BenchAppSource,
    FuzzSource,
    HistorySource,
    ProgramsSource,
    RecordedRun,
    SqliteTraceSource,
    TraceFileSource,
)
from .store import (
    Client,
    DataStore,
    DirectedReplayPolicy,
    InterleavedScheduler,
    LatestWriterPolicy,
    RandomIsolationPolicy,
    SerialScheduler,
    ShardedBackend,
    SqliteBackend,
    StoreBackend,
    make_store_backend,
)
from .validate import ValidationReport, validate_prediction

__version__ = "1.1.0"

__all__ = [
    "Analysis",
    "AnalysisResult",
    "BenchAppSource",
    "Client",
    "DataStore",
    "FuzzSource",
    "HistorySource",
    "ProgramsSource",
    "RecordedRun",
    "ReplayUnavailable",
    "ShardedBackend",
    "SqliteBackend",
    "SqliteTraceSource",
    "StoreBackend",
    "TraceFileSource",
    "make_store_backend",
    "DirectedReplayPolicy",
    "History",
    "HistoryBuilder",
    "InterleavedScheduler",
    "IsoPredict",
    "IsolationLevel",
    "LatestWriterPolicy",
    "PredictionResult",
    "PredictionStrategy",
    "RandomIsolationPolicy",
    "SerialScheduler",
    "Transaction",
    "ValidationReport",
    "is_causal",
    "is_read_committed",
    "is_serializable",
    "load_history",
    "load_trace",
    "pco_unserializable",
    "predict_unserializable",
    "save_history",
    "validate_prediction",
    "__version__",
]
