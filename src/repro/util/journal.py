"""Crash-tolerant append-only JSONL journal.

One event per line, written as ``json.dumps(entry, sort_keys=True)`` and
flushed and fsynced as it is appended, so a killed process leaves a
journal describing exactly the events that happened.  Reading skips a
torn final line (the crash may have landed mid-append), any unparsable
or non-object line, and any object without an ``"event"`` key — a
journal under-promises rather than lies.

The runner's checkpoint journal
(:class:`~repro.experiments.journal.RunJournal`) and the ``repro serve``
job journal are both this file format; only their event schemas differ.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading


class Journal:
    """Append-only JSONL event log with fsynced appends.

    Appends are serialized by a lock, so threads sharing one instance
    never interleave lines.

    Args:
        path: The journal file (created, with its directory, on first
            append).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = pathlib.Path(path)
        self._lock = threading.Lock()

    def append(self, entry: dict) -> None:
        """Append one event durably (flush + fsync).

        Args:
            entry: JSON-ready event dict (carrying an ``"event"`` key).
        """
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())

    def entries(self) -> list[dict]:
        """Every intact event, in append order.

        Returns:
            The event dicts (empty when no journal exists yet).
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        events: list[dict] = []
        for line in text.splitlines():
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and "event" in entry:
                events.append(entry)
        return events

    def clear(self) -> None:
        """Delete the journal file (a missing file is fine)."""
        try:
            self.path.unlink()
        except OSError:
            pass
