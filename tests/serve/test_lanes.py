"""Lanes: one IsoPredict per isolation level, one predict_many per window."""
import gc
import weakref

from repro.bench_apps import Smallbank, WorkloadConfig, record_observed
from repro.gallery import deposit_observed
from repro.isolation.levels import IsolationLevel
from repro.predict.analysis import IsoPredict
from repro.predict.strategies import PredictionStrategy
from repro.serve import (
    StreamingAnalysis,
    StreamMetrics,
    WindowConfig,
    finding_key,
    segment_history,
)
from repro.sources import RecordedRun

#: Integer solver counters that must sum exactly across windows and lanes.
COUNTERS = ("literals", "clauses", "vars", "conflicts", "decisions")

CONFIG = WindowConfig(size=6, stride=3)
LEVELS = ("causal", "rc")


def _history():
    return record_observed(Smallbank(WorkloadConfig.small()), 1).history


def _direct(history, config=CONFIG, levels=LEVELS, k=2):
    """Every (window, batch) pair the migration spelling produces."""
    lanes = [
        IsoPredict(
            IsolationLevel.parse(level),
            PredictionStrategy.parse("approx-relaxed"),
        )
        for level in levels
    ]
    return [
        (window, lane.predict_many(window.history, k))
        for window in segment_history(history, config)
        for lane in lanes
    ]


class TestLaneConstruction:
    def test_one_lane_per_level_with_the_engine_limits(self):
        engine = StreamingAnalysis(
            deposit_observed(),
            isolation=["causal", "ra", "rc"],
            strategy="exact-strict",
            max_seconds=7.5,
            max_conflicts=123,
            max_candidates=9,
        )
        assert [lane.isolation for lane in engine.lanes] == [
            IsolationLevel.parse("causal"),
            IsolationLevel.parse("ra"),
            IsolationLevel.parse("rc"),
        ]
        for lane in engine.lanes:
            assert isinstance(lane, IsoPredict)
            assert lane.strategy == PredictionStrategy.parse("exact-strict")
            assert lane.max_seconds == 7.5
            assert lane.max_conflicts == 123
            assert lane.max_candidates == 9

    def test_families_are_lane_names_in_lane_order(self):
        report = StreamingAnalysis(
            deposit_observed(), window=16, isolation=["rc", "causal"], k=1
        ).run()
        assert report.families == ("rc/approx-relaxed", "causal/approx-relaxed")
        assert report.summary()["families"] == sorted(report.families)


class TestOneBatchPerWindowAndLane:
    def test_findings_are_the_direct_predict_many_keys(self):
        history = _history()
        report = StreamingAnalysis(
            history, window=CONFIG, isolation=list(LEVELS), k=2
        ).run()
        expected = {
            finding_key(prediction, window.history)
            for window, batch in _direct(history)
            for prediction in batch.predictions
        }
        assert expected
        assert {f.key for f in report.findings} == expected
        assert report.metrics.windows == len(segment_history(history, CONFIG))

    def test_metrics_sum_every_lane_batch(self):
        history = _history()
        report = StreamingAnalysis(
            history, window=CONFIG, isolation=list(LEVELS), k=2
        ).run()
        for key in COUNTERS:
            expected = sum(
                int(batch.stats.get(key, 0)) for _, batch in _direct(history)
            )
            assert report.metrics.counters.get(key, 0) == expected, key

    def test_each_run_is_analyzed_afresh(self):
        history = deposit_observed()

        class TwoRuns:
            name = "two-runs"

            def record(self):
                raise AssertionError("runs() should be used")

            def runs(self):
                yield RecordedRun(history=history, meta={"run": 0})
                yield RecordedRun(history=history, meta={"run": 1})

        config = WindowConfig(size=4, stride=2)
        one = StreamingAnalysis(history, window=config, k=1).run().metrics
        two = StreamingAnalysis(TwoRuns(), window=config, k=1).run().metrics
        # the same windows under a second run are encoded again, not
        # served from the first run's solver
        assert two.runs == 2
        assert two.windows == 2 * one.windows
        for key in COUNTERS:
            assert two.counters.get(key, 0) == 2 * one.counters.get(key, 0)

    def test_window_solvers_are_freed_after_each_call(self, monkeypatch):
        made = []
        enumerator = IsoPredict.enumerator

        def tracked(self, observed):
            enum = enumerator(self, observed)
            made.append(weakref.ref(enum))
            return enum

        monkeypatch.setattr(IsoPredict, "enumerator", tracked)
        history = _history()
        report = StreamingAnalysis(
            history, window=CONFIG, isolation=list(LEVELS), k=2
        ).run()
        assert report.findings
        assert len(made) == len(LEVELS) * report.metrics.windows
        gc.collect()
        assert all(ref() is None for ref in made)


class TestObserveWindow:
    def test_lane_stats_sum_into_one_window(self):
        metrics = StreamMetrics()
        metrics.observe_window(
            0.5,
            {"literals": 3, "conflicts": 1, "encode_seconds": 0.25},
            {"literals": 4, "decisions": 2, "encode_seconds": 0.5},
        )
        assert metrics.windows == 1
        assert metrics.window_walls == [0.5]
        assert metrics.counters == {
            "literals": 7, "conflicts": 1, "decisions": 2,
        }
        assert metrics.stage_seconds == {"encode_seconds": 0.75}

    def test_keys_outside_the_vocabulary_are_not_summed(self):
        metrics = StreamMetrics()
        metrics.observe_window(0.0, {"predictions": 3, "literals": 1})
        metrics.observe_window(0.0)
        assert metrics.windows == 2
        assert metrics.counters == {"literals": 1}
        assert metrics.stage_seconds == {}
