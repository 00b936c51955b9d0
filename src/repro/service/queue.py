"""Bounded, fair job queue for the evaluation service.

Ordering is two-level:

1. **Priority** — lower numbers dispatch first (``priority=0`` is an
   express lane for interactive probes ahead of bulk sweeps).
2. **Per-client round-robin** — within a priority band the queue deals
   one job per client in rotation, so a client that dumps 500 jobs
   cannot starve a client that submits one.

Depth is bounded: :meth:`JobQueue.put` raises a typed
:class:`~repro.errors.QueueFullError` (HTTP 429) instead of buffering
without limit — backpressure is the client's signal to slow down.
Queued jobs can be plucked back out by id (:meth:`JobQueue.remove`),
which is how ``DELETE /v1/jobs/<id>`` cancels work that has not started.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque

from repro.errors import QueueFullError
from repro.service.jobs import JobRecord

__all__ = ["JobQueue"]


class JobQueue:
    """Thread-safe bounded FIFO with priority bands and client fairness."""

    def __init__(self, max_depth: int = 256) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        # priority -> client -> deque of JobRecord.  OrderedDict keeps the
        # client rotation order stable (insertion order, rotated on take).
        self._bands: dict[int, "OrderedDict[str, deque[JobRecord]]"] = {}
        self._depth = 0
        self._closed = False

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    def oldest_submitted_us(self) -> float | None:
        """Submission timestamp (``now_us`` clock) of the longest-queued
        job, or ``None`` when the queue is empty.  Feeds the oldest-wait
        gauge on ``/metricsz`` and the autoscaler's SLO-breach signal."""
        with self._lock:
            oldest: float | None = None
            for band in self._bands.values():
                for jobs in band.values():
                    for record in jobs:
                        if oldest is None or record.submitted_us < oldest:
                            oldest = record.submitted_us
            return oldest

    def put(self, record: JobRecord) -> None:
        """Enqueue, or raise :class:`QueueFullError` when at capacity."""
        with self._lock:
            if self._depth >= self.max_depth:
                raise QueueFullError(
                    f"job queue is full ({self._depth}/{self.max_depth})",
                    depth=self._depth,
                    max_depth=self.max_depth,
                )
            band = self._bands.setdefault(record.request.priority, OrderedDict())
            band.setdefault(record.request.client, deque()).append(record)
            self._depth += 1
            self._not_empty.notify()

    def put_front(self, record: JobRecord) -> None:
        """Re-enqueue at the head of the record's band (redispatch path).

        Used when a worker dies mid-job and its in-flight work must run
        again: the job already passed admission once, so this bypasses
        the depth bound (re-dispatch is recovery, not new load) and jumps
        the client's line so recovered work is not penalized by the
        fairness rotation.
        """
        with self._lock:
            band = self._bands.setdefault(record.request.priority, OrderedDict())
            jobs = band.setdefault(record.request.client, deque())
            jobs.appendleft(record)
            band.move_to_end(record.request.client, last=False)
            self._depth += 1
            self._not_empty.notify()

    def take_batch(
        self, max_jobs: int, *, timeout: float | None = None
    ) -> list[JobRecord]:
        """Dequeue up to ``max_jobs`` jobs, fairly, as soon as there is one.

        Blocks up to ``timeout`` seconds for the first job (``None`` =
        forever, return ``[]`` only when closed).
        """
        with self._lock:
            while self._depth == 0 and not self._closed:
                if not self._not_empty.wait(timeout):
                    return []
            return self._drain_locked(max_jobs)

    def _drain_locked(self, max_jobs: int) -> list[JobRecord]:
        taken: list[JobRecord] = []
        for priority in sorted(self._bands):
            band = self._bands[priority]
            # Round-robin: one job per client per pass until the band is
            # empty or the batch is full.
            while band and len(taken) < max_jobs:
                for client in list(band):
                    jobs = band[client]
                    taken.append(jobs.popleft())
                    self._depth -= 1
                    if jobs:
                        band.move_to_end(client)  # rotate
                    else:
                        del band[client]
                    if len(taken) >= max_jobs:
                        break
            if not band:
                del self._bands[priority]
            if len(taken) >= max_jobs:
                break
        return taken

    def remove(self, job_id: str) -> JobRecord | None:
        """Pluck a still-queued job out by id (for cancellation)."""
        with self._lock:
            for priority, band in list(self._bands.items()):
                for client, jobs in list(band.items()):
                    for record in jobs:
                        if record.job_id == job_id:
                            jobs.remove(record)
                            self._depth -= 1
                            if not jobs:
                                del band[client]
                            if not band:
                                del self._bands[priority]
                            return record
        return None

    def drain_all(self) -> list[JobRecord]:
        """Empty the queue entirely (drain-timeout cancellation sweep)."""
        with self._lock:
            leftovers = self._drain_locked(self._depth)
            return leftovers

    def close(self) -> None:
        """Wake any blocked :meth:`take_batch` callers for shutdown."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobQueue(depth={self.depth}, max_depth={self.max_depth})"
