"""Cross-backend equivalence: the PR 5 acceptance invariant.

For any app and seed, analyzing a ``ShardedBackend(shards=1)`` or
``SqliteBackend`` run must yield the same prediction verdicts — and the
same *set* of distinct predicted histories — as the in-memory default
(``backend=None``).
Backends change where execution happens and what gets persisted, never
what the analysis sees. The CI backend-smoke job checks the same
invariant end to end through the CLI.
"""
import pytest

from repro.api import Analysis
from repro.bench_apps import ALL_APPS, WorkloadConfig
from repro.history import history_to_json
from repro.sources import BenchAppSource, SqliteTraceSource
from repro.store import ShardedBackend, SqliteBackend

SEEDS = (0, 1)

_APP_IDS = [app.name for app in ALL_APPS]


def _verdict_set(app_cls, seed, backend):
    """The analysis outcome fingerprint: status + distinct predictions."""
    session = Analysis(
        BenchAppSource(app_cls, WorkloadConfig.tiny(), seed=seed),
        backend=backend,
    ).under("causal")
    batch = session.predict(k=2)
    predictions = frozenset(
        str(history_to_json(r.predicted))
        for r in batch.predictions
        if r.predicted is not None
    )
    return batch.status, len(batch), predictions


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("app_cls", ALL_APPS, ids=_APP_IDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sharded_one_shard_matches_inmemory(self, app_cls, seed):
        assert _verdict_set(
            app_cls, seed, ShardedBackend(shards=1)
        ) == _verdict_set(app_cls, seed, None)

    @pytest.mark.parametrize("app_cls", ALL_APPS, ids=_APP_IDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sharded_many_shards_matches_inmemory(self, app_cls, seed):
        # stronger than the acceptance floor: with the default global
        # read policy *any* shard count records the same history
        assert _verdict_set(
            app_cls, seed, ShardedBackend(shards=3)
        ) == _verdict_set(app_cls, seed, None)

    @pytest.mark.parametrize("app_cls", ALL_APPS, ids=_APP_IDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sqlite_matches_inmemory(self, app_cls, seed, tmp_path):
        archive = tmp_path / "equiv.sqlite"
        assert _verdict_set(
            app_cls, seed, SqliteBackend(archive)
        ) == _verdict_set(app_cls, seed, None)

    def test_reopened_archive_matches_live_analysis(self, tmp_path):
        """The durable path: analyze, reopen the archive, analyze again."""
        archive = tmp_path / "reopen.sqlite"
        app_cls = ALL_APPS[0]
        live = Analysis(
            BenchAppSource(app_cls, WorkloadConfig.tiny(), seed=1),
            backend=SqliteBackend(archive),
        ).under("causal")
        live_batch = live.predict(k=2)
        reopened = Analysis(SqliteTraceSource(archive)).under("causal")
        reopened_batch = reopened.predict(k=2)
        assert reopened_batch.status == live_batch.status
        assert len(reopened_batch) == len(live_batch)
        live_predictions = {
            str(history_to_json(r.predicted))
            for r in live_batch.predictions
        }
        reopened_predictions = {
            str(history_to_json(r.predicted))
            for r in reopened_batch.predictions
        }
        assert reopened_predictions == live_predictions


class TestValidationEquivalence:
    def test_validation_verdicts_match_across_backends(self, tmp_path):
        """Replay validation agrees wherever the app executes."""
        reports = {}
        for label, backend in (
            ("inmemory", None),
            ("sharded", ShardedBackend(shards=2)),
            ("sqlite", SqliteBackend(tmp_path / "val.sqlite")),
        ):
            session = Analysis(
                BenchAppSource(
                    ALL_APPS[0], WorkloadConfig.small(), seed=1
                ),
                backend=backend,
            ).under("causal")
            batch = session.predict(k=1)
            assert batch.found
            report = session.validate()
            reports[label] = (
                report.validated,
                report.diverged,
                history_to_json(report.validating),
            )
        assert reports["sharded"] == reports["inmemory"]
        assert reports["sqlite"] == reports["inmemory"]
