"""Corpus rows: canonical JSONL, round-trips, resumable loading."""
import json

import pytest

from repro.fuzz import CorpusEntry, append_entry, load_corpus, random_plan
from repro.fuzz.corpus import CORPUS_VERSION


@pytest.fixture
def entry():
    return CorpusEntry(
        id="abcdef123456-causal",
        plan=random_plan(7),
        isolation="causal",
        backend="inmemory",
        record_seed=0,
        k=2,
        status="sat",
        predictions=2,
        fingerprints=("iso=causal|cycle=rw.rw|rep=1|cut=0",),
        novel="iso=causal|cycle=rw.rw|rep=1|cut=0",
        witness=None,
        parent=None,
        trail=("insert-op:0.1+read(k0)@0",),
        iteration=3,
        meta={"max_conflicts": 20_000},
    )


class TestRoundTrip:
    def test_json_round_trip(self, entry):
        assert CorpusEntry.from_json(entry.to_json()) == entry

    def test_line_is_canonical(self, entry):
        line = entry.line()
        assert "\n" not in line
        data = json.loads(line)
        assert data["version"] == CORPUS_VERSION
        # sorted keys + compact separators: re-encoding is a fixpoint
        assert (
            json.dumps(data, sort_keys=True, separators=(",", ":")) == line
        )

    def test_newer_versions_are_rejected(self, entry):
        data = entry.to_json()
        data["version"] = CORPUS_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            CorpusEntry.from_json(data)


class TestFileLayout:
    def test_append_then_load(self, tmp_path, entry):
        path = tmp_path / "nested" / "corpus.jsonl"
        append_entry(path, entry)
        append_entry(path, entry)
        loaded = load_corpus(path)
        assert loaded == [entry, entry]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "absent.jsonl") == []

    def test_partial_trailing_line_is_tolerated(self, tmp_path, entry):
        """An interrupted campaign leaves a torn last line; the corpus
        must stay resumable."""
        path = tmp_path / "corpus.jsonl"
        append_entry(path, entry)
        with path.open("a") as out:
            out.write(entry.line()[: len(entry.line()) // 2])
        assert load_corpus(path) == [entry]

    def test_append_after_a_torn_row_repairs_the_tail(self, tmp_path, entry):
        """An append after an interrupted run drops the torn fragment
        instead of gluing the new row onto it."""
        path = tmp_path / "corpus.jsonl"
        first, second = entry, CorpusEntry.from_json(
            {**entry.to_json(), "id": "second"}
        )
        append_entry(path, first)
        append_entry(path, second)
        with path.open("a") as out:
            out.write(entry.line()[: len(entry.line()) // 2])
        append_entry(path, entry)
        assert load_corpus(path) == [first, second, entry]

    def test_blank_lines_are_skipped(self, tmp_path, entry):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n" + entry.line() + "\n\n")
        assert load_corpus(path) == [entry]
