"""Crash-safe append-only job journal for the evaluation service.

The journal is the durability layer of fleet mode: every job the service
*accepts* is recorded before the client sees its 202, and every state
transition after that (started, requeued, completed) is appended as it
happens.  After a coordinator crash — ``kill -9``, OOM, power loss — a
restart replays the journal, restores terminal jobs (answering their
results from the run cache) and re-enqueues everything that never made
it to a terminal state.  Nothing accepted is ever lost.

Each line is one sealed record of kind ``journal``, the envelope the
run cache's entries use (:func:`repro.analysis.persistence.seal`): the
payload ``{"data", "event", "job_id", "ts"}`` inline, with the schema
stamp and a ``sha256`` over the payload.  A torn final line (the classic
crash-mid-append artifact), a bit-flipped record, a line that is not
UTF-8 or one from a foreign schema is skipped with a counter rather than
poisoning replay — the same quarantine-not-crash posture the cache takes
with corrupt entries.

Appends go through a single ``write + flush`` of one line under a lock,
so concurrent scheduler threads interleave whole records.  Compaction
(rewriting the journal to one summary record per live job) goes through
the cache's :func:`~repro.analysis.persistence.atomic_write`, so a crash
mid-compact leaves either the old journal or the new one, never a hybrid.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Iterable

from ..analysis.persistence import atomic_write, seal, unseal
from ..obs import obs_count

__all__ = ["JobJournal", "JournalRecord"]

#: The sealed-record kind of a journal line.
KIND = "journal"

# Events a record may carry, in lifecycle order.  "accepted" is written
# before the submission response; "completed" carries the terminal state.
# "fleet" records worker-pool transitions (autoscaler grow/retire) for
# the audit trail; replay ignores them for job recovery and compaction
# drops them.
EVENTS = ("accepted", "started", "requeued", "completed", "fleet")


class JournalRecord(dict):
    """One replayed journal record (a dict with attribute sugar)."""

    @property
    def event(self) -> str:
        return self["event"]

    @property
    def job_id(self) -> str:
        return self["job_id"]

    @property
    def data(self) -> dict:
        return self.get("data", {})


def lifecycles(
    records: Iterable[JournalRecord],
) -> list[tuple[JournalRecord, JournalRecord | None]]:
    """Each job's latest ``accepted`` record with its latest ``completed``
    one (None while the job is open), in first-appearance order."""
    latest: dict[str, dict[str, JournalRecord]] = {}
    for record in records:
        latest.setdefault(record.job_id, {})[record.event] = record
    return [
        (events["accepted"], events.get("completed"))
        for events in latest.values()
        if "accepted" in events
    ]


def _line(record: dict) -> str:
    """One journal line: ``record`` sealed inline."""
    return seal(KIND, json.dumps(record, sort_keys=True), inline=True) + "\n"


class JobJournal:
    """Append-only journal of job lifecycle events with integrity checks.

    Parameters
    ----------
    path:
        Journal file location.  Parent directories are created lazily on
        first append, so constructing a journal never touches disk.
    fsync:
        When true, every append is ``fsync``'d for durability across
        power loss (not just process crash).  Defaults to false: the
        chaos scenarios this repo tests are process kills, and fsync per
        record would dominate service latency.
    """

    def __init__(self, path: str | Path, *, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._lock = threading.Lock()
        self._handle = None
        # Jobs accepted but not yet completed, per this journal's view.
        # len() of this is the journal lag surfaced in /metricsz.
        self._open_jobs: set[str] = set()
        self._appends = 0
        self._replayed = 0
        self._corrupt_skipped = 0
        self._compactions = 0

    # ------------------------------------------------------------------
    # Appending

    def append(self, event: str, job_id: str, **data: object) -> None:
        """Durably append one lifecycle event for ``job_id``.

        The record is a single line flushed before return, so once this
        method returns the event survives a coordinator ``kill -9``.
        """
        if event not in EVENTS:
            raise ValueError(f"unknown journal event {event!r}")
        line = _line(
            {"event": event, "job_id": job_id, "ts": time.time(), "data": data}
        )
        with self._lock:
            handle = self._ensure_handle()
            handle.write(line)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
            self._appends += 1
            if event == "accepted":
                self._open_jobs.add(job_id)
            elif event == "completed":
                self._open_jobs.discard(job_id)
        obs_count("journal.appends")

    def _ensure_handle(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    # ------------------------------------------------------------------
    # Replay

    def replay(self) -> list[JournalRecord]:
        """Read every intact record from disk, oldest first.

        Corrupt records — torn final lines, checksum mismatches, bytes
        that are not UTF-8, foreign schema versions — are skipped and
        counted, never raised: the journal's job after a crash is to
        recover as much as it can.  Each line is decoded on its own, so
        one bad byte costs only its line.  Replaying also rebuilds the
        open-jobs (lag) accounting.
        """
        records: list[JournalRecord] = []
        corrupt = 0
        try:
            data = self.path.read_bytes()
        except OSError:
            return records
        for line in data.split(b"\n"):
            if not line.strip():
                continue
            record = self._parse_line(line)
            if record is None:
                corrupt += 1
                continue
            records.append(record)
        with self._lock:
            self._replayed += len(records)
            self._corrupt_skipped += corrupt
            self._open_jobs = self._open_after(records)
        if corrupt:
            obs_count("journal.corrupt_skipped", corrupt)
        obs_count("journal.replayed", len(records))
        return records

    @staticmethod
    def _parse_line(line: bytes) -> JournalRecord | None:
        document = unseal(line, KIND)
        if (
            not isinstance(document, dict)
            or document.get("event") not in EVENTS
            or not isinstance(document.get("job_id"), str)
        ):
            return None
        return JournalRecord(document)

    @staticmethod
    def _open_after(records: Iterable[JournalRecord]) -> set[str]:
        open_jobs: set[str] = set()
        for record in records:
            if record.event == "accepted":
                open_jobs.add(record.job_id)
            elif record.event == "completed":
                open_jobs.discard(record.job_id)
        return open_jobs

    # ------------------------------------------------------------------
    # Compaction

    def compact(self, records: Iterable[JournalRecord] | None = None) -> int:
        """Rewrite the journal to its minimal equivalent and return the
        number of records written.

        For every job the compacted journal keeps the latest ``accepted``
        record and, when the job is terminal, the latest ``completed``
        record — replaying the compacted journal reconstructs exactly the
        same job set as replaying the original.  The rewrite is atomic
        (:func:`~repro.analysis.persistence.atomic_write`) so a crash
        mid-compact cannot tear the journal.
        """
        if records is None:
            records = self.replay()
        keep = [
            record
            for lifecycle in lifecycles(records)
            for record in lifecycle
            if record is not None
        ]
        text = "".join(_line(record) for record in keep)
        with self._lock:
            self._close_handle_locked()
            atomic_write(self.path, text)
            self._compactions += 1
            self._open_jobs = self._open_after(keep)
        obs_count("journal.compactions")
        return len(keep)

    # ------------------------------------------------------------------
    # Introspection / lifecycle

    def lag(self) -> int:
        """Number of accepted jobs not yet journaled as completed."""
        with self._lock:
            return len(self._open_jobs)

    def stats(self) -> dict:
        with self._lock:
            return {
                "path": str(self.path),
                "lag": len(self._open_jobs),
                "appends": self._appends,
                "replayed": self._replayed,
                "corrupt_skipped": self._corrupt_skipped,
                "compactions": self._compactions,
            }

    def close(self) -> None:
        with self._lock:
            self._close_handle_locked()

    def _close_handle_locked(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
