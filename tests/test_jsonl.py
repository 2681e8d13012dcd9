"""The one JSONL policy: torn final lines, append repair, atomic writes."""
import json
import os
import re

import pytest

from repro.jsonl import JsonlError, JsonlReader, open_append, write_atomic

ROWS = [{"id": i, "pad": "x" * i} for i in range(3)]


def lines(rows):
    return "".join(json.dumps(row) + "\n" for row in rows)


def read_jsonl(path, decode=None):
    reader = JsonlReader(path, decode)
    return list(reader), reader.torn


def strict(doc):
    if not (isinstance(doc, dict) and "id" in doc):
        raise ValueError("no id")
    return doc["id"]


class TestRead:
    def test_missing_file_reads_as_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "absent.jsonl") == ([], 0)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("\n" + lines(ROWS[:1]) + "\n  \n" + lines(ROWS[1:]))
        assert read_jsonl(path) == (ROWS, 0)

    def test_complete_unterminated_final_line_is_a_record(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(lines(ROWS).rstrip("\n"))
        assert read_jsonl(path) == (ROWS, 0)

    @pytest.mark.parametrize("tail", ['{"id": 3, "pa', '{"id": 3, "pa\n\n'])
    def test_torn_final_line_is_skipped_and_counted(self, tmp_path, tail):
        path = tmp_path / "r.jsonl"
        path.write_text(lines(ROWS) + tail)
        assert read_jsonl(path, strict) == ([0, 1, 2], 1)

    def test_multibyte_char_cut_short_is_torn(self, tmp_path):
        path = tmp_path / "r.jsonl"
        row = json.dumps({"id": 3, "name": "é"}, ensure_ascii=False)
        data = row.encode("utf-8")
        path.write_bytes(lines(ROWS).encode() + data[: data.index(b"\xa9")])
        assert read_jsonl(path) == (ROWS, 1)

    def test_mid_file_garbage_names_path_and_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(lines(ROWS[:1]) + '{"id": 1\n' + lines(ROWS[2:]))
        match = re.escape(f"{path}:2: not valid JSON")
        with pytest.raises(JsonlError, match=match):
            read_jsonl(path)

    @pytest.mark.parametrize("where", [0, 1, 3])
    def test_decode_rejection_raises_wherever_the_line_is(
        self, tmp_path, where
    ):
        path = tmp_path / "r.jsonl"
        rows = [json.dumps(row) for row in ROWS]
        rows.insert(where, '{"no_id": true}')
        path.write_text("\n".join(rows) + "\n")
        match = re.escape(f"{path}:{where + 1}: rejected")
        with pytest.raises(JsonlError, match=match):
            read_jsonl(path, strict)

    def test_streams_records_before_reaching_bad_lines(self, tmp_path):
        """One line of lookahead: records before a bad line are yielded
        before the error surfaces."""
        path = tmp_path / "r.jsonl"
        path.write_text(lines(ROWS[:2]) + "garbage\n" + lines(ROWS[2:]))
        reader = iter(JsonlReader(path))
        assert next(reader) == ROWS[0]
        assert next(reader) == ROWS[1]
        with pytest.raises(JsonlError, match=":3:"):
            next(reader)


class TestAppend:
    def append(self, path, rows):
        fh, dropped = open_append(path)
        with fh:
            fh.write(lines(rows))
        return dropped

    def test_creates_file_and_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "r.jsonl"
        assert self.append(path, ROWS) == 0
        assert path.read_text() == lines(ROWS)

    def test_complete_unterminated_row_gets_its_newline(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(lines(ROWS[:2]).rstrip("\n"))
        assert self.append(path, ROWS[2:]) == 0
        assert path.read_text() == lines(ROWS)

    @pytest.mark.parametrize(
        "tail", ['{"id": 9, "pa', '{"id": 9, "pa\n', "garbage\n\n"]
    )
    def test_torn_final_line_is_truncated_and_counted(self, tmp_path, tail):
        path = tmp_path / "r.jsonl"
        path.write_text(lines(ROWS[:2]) + tail)
        assert self.append(path, ROWS[2:]) == 1
        assert path.read_text() == lines(ROWS)
        assert read_jsonl(path) == (ROWS, 0)

    def test_torn_only_line_truncates_to_empty(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"id": 0, "pa')
        assert self.append(path, ROWS) == 1
        assert read_jsonl(path) == (ROWS, 0)

    def test_intact_file_is_untouched(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(lines(ROWS[:2]) + "\n")
        assert self.append(path, []) == 0
        assert path.read_text() == lines(ROWS[:2]) + "\n"


class TestWriteAtomic:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "sub" / "doc.json"
        assert write_atomic(path, "one") == path
        write_atomic(path, "two")
        assert path.read_text() == "two"
        assert os.listdir(path.parent) == ["doc.json"]

    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.json"
        path.write_text("old")

        def broken_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", broken_fsync)
        with pytest.raises(OSError, match="disk full"):
            write_atomic(path, "new")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["doc.json"]
