"""Sweep journal: append-only JSONL checkpoint of completed cells.

The persistent :class:`~repro.harness.cache.ResultCache` already makes an
interrupted sweep resumable — every finished cell's result survives on
disk.  The journal adds the *ledger*: one line per completed cell,
flushed and fsynced at completion time, so a resumed invocation can tell
exactly which cells the previous (possibly SIGKILLed) run finished, report
"resuming N of M", and distinguish a cache hit that is a genuine resume
from one that predates the sweep.

Format: one JSON object per line — ``{"key": ..., "label": ...,
"seconds": ...}``.  The loader is deliberately tolerant: a torn final line
(the process died mid-append) or any undecodable line is skipped, because
the journal is an optimization over the cache, never an authority.
"""

from __future__ import annotations

import json
import os
from typing import Any, BinaryIO, Optional

__all__ = ["JsonlAppender", "SweepJournal", "read_jsonl"]


def read_jsonl(path: str) -> tuple[list[Any], int]:
    """Decoded lines of a JSON-lines log, and how many were skipped.

    Tolerant: a torn final line (the writer died mid-append) or any
    undecodable line is skipped, never fatal; a missing or unreadable
    file reads as empty.
    """
    entries: list[Any] = []
    skipped = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except json.JSONDecodeError:
                    skipped += 1
    except OSError:
        pass
    return entries, skipped


class JsonlAppender:
    """Durable append-only JSON-lines writer (not thread-safe).

    Opened lazily on the first append.  Each append is written, flushed
    and fsynced before it returns, and raises ``OSError`` if any step
    fails; the failed line is cut off again, so a later reader never
    replays an entry whose append was reported as failed.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: Optional[BinaryIO] = None

    def append(self, entry: Any) -> None:
        line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        if self._fh is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._fh = open(self.path, "ab")
            # A writer killed mid-append leaves a torn line with no
            # newline; start on a fresh line so the next entry isn't
            # glued onto the garbage and lost with it.
            if self._fh.tell() > 0 and not self._ends_with_newline():
                self._fh.write(b"\n")
        start = self._fh.tell()
        try:
            self._fh.write(line)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError:
            self.close()
            try:
                # Cut the line only while it is the file's whole tail; a
                # torn part of it is harmless (the loader skips it).
                if os.path.getsize(self.path) == start + len(line):
                    os.truncate(self.path, start)
            except OSError:
                pass
            raise

    def _ends_with_newline(self) -> bool:
        with open(self.path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) == b"\n"

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


class SweepJournal:
    """Append-only completion ledger for one sweep directory."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._log = JsonlAppender(path)
        self.recorded = 0
        #: Torn/garbage lines skipped by the loader.
        self.skipped_lines = 0
        #: Per-key simulation seconds, for entries that carried one; lets
        #: a resumed run (or the sweep service) report how long a cell
        #: took even when it was finished by an earlier process.
        self.seconds: dict[str, float] = {}
        #: Keys found on disk when the journal was opened (prior runs).
        self.completed: set[str] = self._load()

    def _load(self) -> set[str]:
        done: set[str] = set()
        entries, self.skipped_lines = read_jsonl(self.path)
        for entry in entries:
            key = entry.get("key") if isinstance(entry, dict) else None
            if not isinstance(key, str):
                self.skipped_lines += 1
                continue
            done.add(key)
            if isinstance(entry.get("seconds"), (int, float)):
                self.seconds[key] = float(entry["seconds"])
        return done

    def record(self, key: str, label: str, seconds: float) -> None:
        """Append one completed cell; crash-safe (flush + fsync)."""
        if key in self.completed:
            return
        try:
            self._log.append(
                {"key": key, "label": label, "seconds": round(seconds, 6)}
            )
        except OSError:
            # An unwritable journal degrades resume reporting, nothing else.
            return
        self.completed.add(key)
        self.seconds[key] = round(seconds, 6)
        self.recorded += 1

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
