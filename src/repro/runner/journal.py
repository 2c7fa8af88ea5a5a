"""Persistent sweep journal: append-only JSONL checkpoints for resume.

A crash, OOM kill, or Ctrl-C used to cost a sweep every in-flight result.
The journal makes sweep progress durable: as each job finishes, the
supervisor appends one self-contained JSON line — keyed by the same
content-hash :meth:`~repro.runner.runner.SimJob.key` the result cache uses —
and flushes it to disk.  A later run with ``resume=True`` replays every
completed key and re-executes only the remainder (failed or never-started
points), so ``python -m repro fig10 --resume`` picks a sweep up exactly
where it died.

Record shapes (one JSON object per line)::

    {"kind": "begin",   "total": 12, "code_version": "...", "meta": {...}}
    {"kind": "result",  "key": "<sha256>", "index": 3, "result": ...}
    {"kind": "failure", "key": "<sha256>", "index": 7, "failure": {...}}

The format is deliberately forgiving: records are appended with a flush
per line, the loader skips any line that does not parse (a torn tail from
a crash mid-write), and later records win over earlier ones per key — so
a journal can accumulate several runs' worth of history and still load to
a consistent "latest state per point".  Content-hash keys make stale
journals safe: entries from an older code version or a different grid
simply match no job and are ignored.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, Optional, Union

from .cache import code_version

#: Environment variable overriding the default journal directory.
JOURNAL_DIR_ENV = "REPRO_JOURNAL_DIR"

#: Default journal directory (relative to the working directory).
DEFAULT_JOURNAL_DIR = ".repro_sweeps"


def default_journal_path(name: str) -> Path:
    """Conventional journal location for a named sweep (CLI commands)."""
    root = Path(os.environ.get(JOURNAL_DIR_ENV, DEFAULT_JOURNAL_DIR))
    return root / f"{name}.jsonl"


@dataclass
class JournalState:
    """Latest state per job key, reconstructed from a journal file."""

    #: key -> stored result, for every point whose *latest* record is a
    #: completed result.
    results: Dict[str, Any] = field(default_factory=dict)
    #: key -> failure payload, for points whose latest record is a
    #: failure (these are re-executed on resume).
    failures: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Total records parsed (all kinds, before last-wins collapsing).
    records: int = 0
    #: Lines that did not parse as JSON (torn tail from a crash).
    torn: int = 0


class SweepJournal:
    """Append-only JSONL checkpoint for one sweep.

    The file handle is opened lazily on the first write (so constructing
    a journal for a fully-cached sweep touches nothing) and every record
    is flushed as written — the journal's whole point is surviving a
    process that dies without warning.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = None
        self.written = 0

    # ------------------------------------------------------------------ #
    # Writing.
    # ------------------------------------------------------------------ #
    def _write(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self.written += 1

    def record_begin(
        self, total: int, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        """Mark the start of a (possibly resumed) run over ``total`` jobs."""
        record = {
            "kind": "begin",
            "total": total,
            "code_version": code_version(),
        }
        if meta:
            record["meta"] = meta
        self._write(record)

    def record_result(self, key: str, index: int, result: Any) -> None:
        """Checkpoint one completed point (flushed immediately)."""
        self._write(
            {"kind": "result", "key": key, "index": index, "result": result}
        )

    def record_failure(
        self, key: str, index: int, failure: Dict[str, Any]
    ) -> None:
        """Checkpoint one exhausted point (re-executed on resume)."""
        self._write(
            {"kind": "failure", "key": key, "index": index,
             "failure": failure}
        )

    def flush(self) -> None:
        """Force buffered records and the OS file state to disk."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Reading.
    # ------------------------------------------------------------------ #
    def load(self) -> JournalState:
        """Replay this journal file into a :class:`JournalState`."""
        return load_journal(self.path)

    def completed(self) -> Dict[str, Any]:
        """key -> result for every point completed in a previous run."""
        return self.load().results


def load_journal(path: Union[str, Path]) -> JournalState:
    """Parse a journal file, tolerating a torn tail and stale records.

    Unparsable lines are counted in ``torn`` and skipped; for each key
    the *last* record wins, so a point that failed and later succeeded
    (or vice versa) resolves to its most recent outcome.
    """
    state = JournalState()
    path = Path(path)
    if not path.exists():
        return state
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                state.torn += 1
                continue
            if not isinstance(record, dict):
                state.torn += 1
                continue
            state.records += 1
            kind = record.get("kind")
            key = record.get("key")
            if kind == "result" and isinstance(key, str):
                state.results[key] = record.get("result")
                state.failures.pop(key, None)
            elif kind == "failure" and isinstance(key, str):
                failure = record.get("failure")
                state.failures[key] = (
                    failure if isinstance(failure, dict) else {}
                )
                state.results.pop(key, None)
    return state
