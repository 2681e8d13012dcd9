"""JSONL files: one torn-line rule, one append repair, one atomic writer.

A process killed mid-append leaves at most one *torn* line: a prefix of
the row it was writing, at the end of the file. Reading
(:class:`JsonlReader`) skips blank lines, reads a missing file as empty,
and skips and counts a final line that is not valid JSON. Any earlier
line that is not valid JSON, and any line the caller's ``decode``
rejects, raises :class:`JsonlError` naming ``PATH:LINE``: a torn prefix
of a JSON object is never valid JSON, so neither can come from a torn
write. :func:`open_append` repairs the final line before appending, so a
row never glues onto a torn fragment. :func:`write_atomic` replaces
whole files: a crash leaves the old file or the new one, never half.
"""
from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Iterator, Optional, TextIO, Union

__all__ = ["JsonlError", "JsonlReader", "open_append", "write_atomic"]

PathLike = Union[str, Path]


class JsonlError(ValueError):
    """A JSONL line that is neither a valid record nor a torn tail."""


def _parses(line: bytes) -> bool:
    try:
        json.loads(line)
    except ValueError:  # JSONDecodeError, or a multi-byte char cut short
        return False
    return True


class JsonlReader:
    """The records of one JSONL file, read a line at a time.

    ``decode`` maps each parsed document to the caller's record type; a
    ``ValueError``, ``TypeError``, ``KeyError`` or ``AttributeError`` it
    raises rejects the line. After iterating, ``torn`` counts the torn
    final line skipped (0 or 1).
    """

    def __init__(self, path: PathLike, decode: Optional[Callable] = None):
        self.path = Path(path)
        self.decode = decode or (lambda doc: doc)
        self.torn = 0

    def __iter__(self) -> Iterator:
        self.torn = 0
        try:
            fh = self.path.open("rb")
        except FileNotFoundError:
            return
        with fh:
            held = None  # the previous non-blank line: it may be the last
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    if held:
                        yield self._record(*held)
                    held = lineno, line
        if held and _parses(held[1]):
            yield self._record(*held)
        elif held:
            self.torn = 1

    def _record(self, lineno: int, line: bytes):
        try:
            doc = json.loads(line)
        except ValueError as exc:
            raise JsonlError(
                f"{self.path}:{lineno}: not valid JSON ({exc})"
            ) from None
        try:
            return self.decode(doc)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise JsonlError(
                f"{self.path}:{lineno}: rejected record "
                f"({type(exc).__name__}: {exc})"
            ) from exc


def open_append(path: PathLike) -> tuple[TextIO, int]:
    """Open ``path`` (and parents) to append rows, after giving a complete
    final row its missing newline or truncating a torn final line.
    Returns the text file and the number of torn lines dropped."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    dropped = 0
    if path.exists():
        with path.open("r+b") as fh:
            data = fh.read()
            start = data.rstrip().rfind(b"\n") + 1  # the final non-blank line
            line = data[start:]
            if line.strip() and not _parses(line):
                fh.truncate(start)
                dropped = 1
            elif line.strip() and not data.endswith(b"\n"):
                fh.write(b"\n")
    return path.open("a", encoding="utf-8"), dropped


def write_atomic(path: PathLike, text: str) -> Path:
    """Replace ``path`` (creating parents) via a same-directory temp file,
    flush, fsync and ``os.replace``; a failed write leaves it untouched."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
