"""The process-wide plan cache: statements are parsed once per text."""
import pytest

from repro.bench_apps import TPCC, WorkloadConfig
from repro.bench_apps.base import record_observed
from repro.sqlkv import SqlParseError, parse, parser


@pytest.fixture
def tokenize_calls(monkeypatch):
    calls = []
    real = parser.tokenize
    monkeypatch.setattr(
        parser, "tokenize", lambda sql: calls.append(sql) or real(sql)
    )
    return calls


def test_second_recording_tokenizes_nothing(tokenize_calls):
    first = record_observed(TPCC(WorkloadConfig.tiny()), seed=1)
    tokenize_calls.clear()
    # a fresh app and fresh engines: DDL and DML plans come from the cache
    second = record_observed(TPCC(WorkloadConfig.tiny()), seed=1)
    assert tokenize_calls == []
    assert len(second.history) == len(first.history) > 0


def test_engines_share_one_plan():
    sql = "SELECT c FROM plan_cache_t WHERE k = ?"
    assert parse(sql) is parse(sql)


def test_errors_are_not_cached(tokenize_calls):
    for _ in range(3):
        with pytest.raises(SqlParseError):
            parse("SELECT FROM WHERE")
    assert len(tokenize_calls) == 3
