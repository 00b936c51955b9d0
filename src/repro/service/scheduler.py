"""The serving scheduler: dedup, dispatch, durability, and completion.

Three serving-layer optimizations happen here, all invisible to the
client beyond latency:

* **Single-flight dedup.**  Job ids are deterministic functions of the
  cell's content digest (:func:`~repro.service.jobs.job_id_for`), so a
  second submission of an in-flight or finished cell returns the
  *existing* record instead of scheduling twice.  Duplicate-heavy load
  therefore fans out strictly fewer backend cells than it accepts jobs.

* **Submission-time cache probe.**  Before queueing, the scheduler asks
  the harness's :class:`~repro.analysis.persistence.RunCache` for the
  cell by digest; a warm entry completes the job immediately (``source
  = "cache"``) without ever touching the queue or backend — this is
  what keeps cache-hit p95 latency in single-digit milliseconds.
  Fault-carrying jobs skip the probe (and get salted ids): an injected
  fault must actually reach the backend, not be satisfied from cache.

* **One dispatch rule.**  When a seat is free, the next queued job is
  begun and its one cell run (:func:`~repro.service.jobs.run_job_cell`);
  nothing waits for a burst and no two jobs share a fan-out.  In-process
  mode has one seat, the dispatcher thread, and retries a job inline
  under the harness's fault policy; fleet mode has a seat per worker
  process and makes each dispatch one attempt.

Two robustness layers stack on top in fleet mode:

* **Durability.**  With a :class:`~repro.service.journal.JobJournal`
  attached, every accepted job is journaled *before* the submission
  returns, and every terminal transition afterwards.  A restarted
  coordinator calls :meth:`recover`: terminal jobs are restored (their
  answers re-attached without a compute), incomplete jobs re-enqueued.
  Zero accepted jobs are lost to a coordinator ``kill -9``.

* **Degradation.**  With a :class:`~repro.service.supervisor.
  WorkerSupervisor` attached, dispatch goes to worker processes instead
  of an in-process thread, and admission control becomes load-aware:
  queue-full submissions shed with 429 + ``Retry-After``; when *all*
  workers are down a circuit breaker flips to warm-cache-only mode —
  cache hits still complete, cold jobs shed with a typed
  :class:`~repro.errors.WorkersUnavailableError` (503) instead of
  queueing behind a dead fleet.

The scheduler owns the job registry: every record a client can observe
lives in ``_jobs`` and is mutated only under ``_lock``.
"""

from __future__ import annotations

import math
import threading
import time

from repro.analysis.harness import CellFailure, EvaluationHarness
from repro.errors import (
    DeadlineUnattainableError,
    JobNotFinishedError,
    JobNotFoundError,
    QueueFullError,
    ReproError,
    ServiceDrainingError,
    ServiceError,
    WorkersUnavailableError,
)
from repro.obs import get_tracer, now_us, obs_count, span_percentiles
from repro.service.jobs import JobRecord, JobRequest, job_id_for, run_job_cell
from repro.service.journal import JobJournal, lifecycles
from repro.service.queue import JobQueue

__all__ = ["Scheduler"]

#: The ``service.*`` counter of each submission-time answer source.
_HITS = {"cache": "cache_hits", "transfer": "transfer_hits", "predicted": "predict_hits"}


class Scheduler:
    """Single-flight job scheduler over an EvaluationHarness.

    Construction does not start the dispatcher; call :meth:`start`.
    (Tests exploit this: submissions to an unstarted scheduler stay
    ``queued``, which is how cancellation and backpressure are pinned
    down deterministically.)

    ``journal`` and ``supervisor`` are optional and independent: a
    journal alone gives a single-process service durable recovery; a
    supervisor alone gives a fleet without persistence; together they
    are fleet mode as ``pka serve --workers N`` configures it.
    """

    #: EWMA smoothing for the observed per-job service time that feeds
    #: the admission-control queue-wait estimate.
    EWMA_ALPHA = 0.3

    def __init__(
        self,
        harness: EvaluationHarness,
        *,
        max_queue: int = 256,
        journal: JobJournal | None = None,
        supervisor=None,
        autoscaler=None,
        retry_after: float = 1.0,
        default_deadline: float | None = None,
        brownout_hold: float = 2.0,
    ) -> None:
        if default_deadline is not None and not default_deadline > 0:
            raise ValueError("default_deadline must be > 0 seconds")
        self.harness = harness
        self.queue = JobQueue(max_depth=max_queue)
        self.journal = journal
        self.supervisor = supervisor
        self.autoscaler = autoscaler
        self.retry_after = retry_after
        self.default_deadline = default_deadline
        self.brownout_hold = brownout_hold
        self._lock = threading.RLock()
        self._jobs: dict[str, JobRecord] = {}
        self._draining = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # Observed mean service time (seconds per computed job), EWMA'd;
        # None until the first computed completion warms the estimator.
        self._service_time_ewma_s: float | None = None
        # Deadline sheds latch the brownout readiness state briefly so
        # load balancers see a stable signal, not a per-request flicker.
        self._brownout_until = 0.0
        if supervisor is not None:
            supervisor.bind(self)
        if autoscaler is not None:
            autoscaler.bind(self)
        if journal is not None:
            self.recover()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self.supervisor is not None:
            self.supervisor.start()
            if self.autoscaler is not None:
                self.autoscaler.start()
            return
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="pka-scheduler", daemon=True
        )
        self._thread.start()

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: float = 30.0) -> bool:
        """Stop accepting work and wait for accepted jobs to finish.

        Returns ``True`` when every accepted job reached a terminal
        state within ``timeout`` (a *clean* drain).  On timeout, jobs
        still queued are cancelled (they can no longer run) and the
        drain reports unclean; jobs already running are left to finish
        or die with the process.  A clean drain compacts the journal, so
        the next boot replays a minimal file.
        """
        self._draining = True
        # Stop the control loop first: a drain must not race scale
        # decisions (growing a pool that is shutting down, or retiring a
        # worker the drain is waiting on).
        if self.autoscaler is not None:
            self.autoscaler.stop()
        deadline = threading.Event()
        step = 0.02
        waited = 0.0
        while waited < timeout:
            if not self._pending_jobs():
                break
            deadline.wait(step)
            waited += step
        # Anything still queued after the deadline will never run.
        for record in self.queue.drain_all():
            self._complete(record, "cancelled")
        clean = not self._pending_jobs()
        self._stop.set()
        self.queue.close()
        if self.supervisor is not None:
            self.supervisor.stop()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self.journal is not None:
            if clean:
                try:
                    self.journal.compact()
                except OSError:
                    pass
            self.journal.close()
        return clean

    def close(self) -> None:
        """Immediate stop (no drain): cancel queued jobs, join the loop."""
        self._draining = True
        if self.autoscaler is not None:
            self.autoscaler.stop()
        self._stop.set()
        self.queue.close()
        for record in self.queue.drain_all():
            self._complete(record, "cancelled")
        if self.supervisor is not None:
            self.supervisor.stop(kill=True)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self.journal is not None:
            self.journal.close()

    def _pending_jobs(self) -> int:
        with self._lock:
            return sum(1 for record in self._jobs.values() if not record.terminal)

    # -- durability ------------------------------------------------------

    def _journal_event(self, event: str, record: JobRecord, **data) -> None:
        if self.journal is None:
            return
        try:
            self.journal.append(event, record.job_id, **data)
        except OSError:
            # A journal that cannot be written must not take serving
            # down; durability degrades, availability does not.
            obs_count("journal.append_failures")

    def note_fleet(self, action: str, **data) -> None:
        """Journal a worker-pool transition (grow/retire) as an audit
        record.  Replay ignores ``fleet`` events for job recovery, so
        this never perturbs durability — it only makes scaling decisions
        reconstructible after the fact."""
        if self.journal is None:
            return
        try:
            self.journal.append("fleet", f"fleet:{action}", **data)
        except OSError:
            obs_count("journal.append_failures")

    def recover(self) -> int:
        """Replay the journal into the registry; returns jobs restored.

        Terminal jobs come back terminal; a done job's answer is
        re-attached the way a submission finds one (the run cache, then
        the approximate tiers), and a done job nothing answers any more
        runs again.  Jobs to run — those and every job accepted but never
        completed — are re-enqueued at the front of the queue, to run as
        soon as :meth:`start` is called.  The journal is then
        compacted so repeated crash/restart cycles do not grow it
        without bound.
        """
        if self.journal is None:
            return 0
        records = self.journal.replay()
        if not records:
            return 0
        pending: list[JobRecord] = []
        restored = 0
        with self._lock:
            for accepted, completed in lifecycles(records):
                job_id = accepted.job_id
                if job_id in self._jobs:
                    continue
                try:
                    request = JobRequest.from_document(accepted.data["request"])
                    digest = accepted.data["digest"]
                except (KeyError, ServiceError):
                    obs_count("journal.unrecoverable")
                    continue
                record = JobRecord(job_id=job_id, request=request, digest=digest)
                if completed is not None:
                    final = completed.data
                    record.state = final.get("state", "done")
                    record.error = final.get("error")
                    record.attempts = final.get("attempts") or 0
                    record.latency_ms = final.get("latency_ms")
                if record.state == "done":
                    record.outcome = self._answer(record)
                    if record.outcome is None:
                        # No answer without a compute any more (an evicted
                        # entry, a tier that now escalates): run it again.
                        record.state = "queued"
                if record.state == "queued":
                    pending.append(record)
                self._jobs[job_id] = record
                restored += 1
        # Front of the queue, original order: recovered work predates
        # anything submitted after the restart.
        for record in reversed(pending):
            self.queue.put_front(record)
        obs_count("service.recovered_jobs", restored)
        if pending:
            obs_count("service.recovered_pending", len(pending))
        try:
            self.journal.compact(records)
        except OSError:
            pass
        return restored

    def _answer(self, record: JobRecord):
        """The job's answer without a compute (submit and recovery), or None."""
        request = record.request
        try:
            return self.harness.probe_cell(
                request.workload, request.method, request.gpu, record.digest
            )
        except ReproError:  # a workload this process cannot name
            return None

    # -- admission control ------------------------------------------------

    def _dispatch_capacity(self) -> int:
        """Parallel drain capacity: serving (non-draining, alive) fleet
        workers, or 1 for the in-process dispatcher."""
        if self.supervisor is None:
            return 1
        return max(1, self.supervisor.serving_workers)

    def estimate_queue_wait(self, extra: int = 0) -> float | None:
        """Predicted queue wait (seconds) for a job arriving now behind
        the current backlog plus ``extra`` jobs, from the observed
        per-job service-time EWMA and the serving capacity.  ``None``
        until the estimator has seen at least one computed completion —
        a cold estimator must not shed anything."""
        with self._lock:
            ewma = self._service_time_ewma_s
        if ewma is None:
            return None
        backlog = self.queue.depth + extra
        # Defense in depth for scale events: _dispatch_capacity clamps
        # to >= 1 already, but a supervisor mid-replacement can briefly
        # report zero (or a mocked/raced value) serving workers — never
        # let a transient fleet state turn the estimate into a
        # ZeroDivisionError or a non-finite shed-everything answer.
        capacity = max(1, self._dispatch_capacity())
        estimate = backlog * ewma / capacity
        if not math.isfinite(estimate):
            return None
        return estimate

    def _observe_service_time(self, seconds: float) -> None:
        if seconds < 0:
            return
        with self._lock:
            if self._service_time_ewma_s is None:
                self._service_time_ewma_s = seconds
            else:
                self._service_time_ewma_s += self.EWMA_ALPHA * (
                    seconds - self._service_time_ewma_s
                )

    @property
    def service_time_ewma_s(self) -> float | None:
        with self._lock:
            return self._service_time_ewma_s

    def in_brownout(self) -> bool:
        """True while deadline-aware admission is shedding (or would
        shed) work: recent deadline sheds latch it for ``brownout_hold``
        seconds, and a warm estimator predicting waits beyond the
        default deadline reports it proactively."""
        if time.monotonic() < self._brownout_until:
            return True
        if self.default_deadline is not None:
            predicted = self.estimate_queue_wait(extra=1)
            if predicted is not None and predicted > self.default_deadline:
                return True
        return False

    def _admit_deadline(self, record: JobRecord) -> None:
        """Shed the job now if its predicted queue wait exceeds its
        deadline.  Raises :class:`DeadlineUnattainableError` with a
        ``Retry-After`` derived from the backlog estimate."""
        deadline = record.request.deadline_s
        if deadline is None:
            deadline = self.default_deadline
        if deadline is None:
            return
        predicted = self.estimate_queue_wait(extra=1)
        if predicted is None or predicted <= deadline:
            return
        with self._lock:
            self._jobs.pop(record.job_id, None)
        self._brownout_until = time.monotonic() + self.brownout_hold
        obs_count("service.jobs_shed")
        obs_count("service.jobs_rejected")
        obs_count("service.deadline_sheds")
        raise DeadlineUnattainableError(
            f"predicted queue wait {predicted:.2f}s exceeds the "
            f"{deadline:.2f}s deadline; job shed at admission",
            predicted_wait=predicted,
            deadline=deadline,
            # How long until the backlog has drained enough for this
            # deadline to fit — not a static constant.
            retry_after=max(0.05, predicted - deadline),
        )

    # -- client-facing operations ----------------------------------------

    def submit(self, request: JobRequest) -> tuple[JobRecord, bool]:
        """Accept one job; returns ``(record, created)``.

        ``created=False`` means single-flight dedup matched an existing
        job (queued, running, or already terminal) and the caller
        attached to it.  Raises :class:`ServiceDrainingError` while
        draining, :class:`InvalidJobRequestError` for requests naming
        unknown workloads/methods/GPUs, :class:`QueueFullError` when
        backpressure applies, and :class:`WorkersUnavailableError` for a
        cold cell while every fleet worker is down (warm-cache-only
        mode).

        Durability contract: when a journal is attached, the job's
        ``accepted`` record is on disk before this method returns — a
        coordinator crash after the client's 202 can never lose the job.
        """
        if self._draining:
            raise ServiceDrainingError(
                "service is draining and no longer accepts jobs"
            )
        try:
            digest = self.harness.cell_digest_for(
                request.workload, request.method, request.gpu
            )
        except ServiceError:
            raise
        except ReproError as exc:
            # Unknown workload / method / GPU: the client's fault, not ours.
            from repro.errors import InvalidJobRequestError

            raise InvalidJobRequestError(str(exc)) from exc
        job_id = job_id_for(digest, request.fault)
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                existing.dedup_hits += 1
                obs_count("service.dedup_hits")
                return existing, False
            record = JobRecord(job_id=job_id, request=request, digest=digest)
            self._jobs[job_id] = record
        obs_count("service.jobs_submitted")
        # Warm path: a cell the run cache holds, or that the semantic
        # cache (similarity transfer) or the prediction tiers can answer
        # within their error bound, completes right here — it never
        # queues and never runs the DES.  Escalations fall through to the
        # normal compute pipeline below.
        outcome = self._answer(record) if request.fault is None else None
        supervisor = self.supervisor
        if outcome is None:
            # Circuit breaker: a cold cell cannot complete while every
            # worker is down — shed it now with retry advice instead of
            # queueing behind a dead fleet.  (Checked outside _lock; the
            # supervisor takes its own lock for liveness.)
            if supervisor is not None and not supervisor.any_alive:
                with self._lock:
                    self._jobs.pop(job_id, None)
                obs_count("service.jobs_shed")
                obs_count("service.jobs_rejected")
                raise WorkersUnavailableError(
                    "all fleet workers are down; cold jobs are shed "
                    "(warm-cache submissions still complete)",
                    retry_after=supervisor.next_retry_after(),
                )
            # Deadline-aware admission: shed a job whose predicted queue
            # wait cannot meet its (or the server's default) deadline.
            self._admit_deadline(record)
        # Journal before completing or enqueueing: once the client hears
        # "accepted", the record is already durable.
        self._journal_event(
            "accepted", record, request=request.to_document(), digest=digest
        )
        if outcome is not None:
            self._complete(record, "done", outcome=outcome)
            obs_count(f"service.{_HITS[outcome.source]}")
            return record, True
        try:
            self.queue.put(record)
        except QueueFullError as exc:
            with self._lock:
                del self._jobs[job_id]
            # Compensate the accepted record so replay won't resurrect it.
            self._journal_event("completed", record, state="cancelled")
            obs_count("service.jobs_shed")
            obs_count("service.jobs_rejected")
            # Backlog-derived backoff when the estimator is warm (time
            # for one queue slot to open up); static fallback otherwise.
            with self._lock:
                ewma = self._service_time_ewma_s
            if ewma is not None:
                exc.retry_after = max(0.05, ewma / self._dispatch_capacity())
            else:
                exc.retry_after = self.retry_after
            raise
        # A drain that raced this submission may already have swept the
        # queue; make the outcome exactly-once either way.  If the
        # record is still in the queue, pull it back and refuse; if it
        # is not, the dispatcher or the drain sweep owns it and will
        # complete or cancel it exactly once.
        if self._draining:
            plucked = self.queue.remove(job_id)
            if plucked is not None:
                with self._lock:
                    self._jobs.pop(job_id, None)
                self._journal_event("completed", record, state="cancelled")
                obs_count("service.jobs_rejected")
                raise ServiceDrainingError(
                    "service is draining and no longer accepts jobs"
                )
        return record, True

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise JobNotFoundError(f"no such job: {job_id}")
        return record

    def result(self, job_id: str) -> JobRecord:
        record = self.get(job_id)
        if not record.terminal:
            raise JobNotFinishedError(
                f"job {job_id} is still {record.state}; poll until terminal"
            )
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job.  Terminal jobs are a no-op; running jobs
        cannot be recalled from the backend and raise."""
        record = self.get(job_id)
        with self._lock:
            if record.terminal:
                return record
            if record.state == "queued":
                plucked = self.queue.remove(job_id)
                if plucked is not None:
                    self._complete(record, "cancelled")
                    return record
            # Between the take and the running transition there is a
            # sliver where the job is neither in the queue nor marked
            # running; treat it like running — it is about to execute.
        raise JobNotFinishedError(
            f"job {job_id} is {record.state} and can no longer be cancelled"
        )

    def jobs(self) -> list[JobRecord]:
        with self._lock:
            return list(self._jobs.values())

    # -- fleet hooks (called by the WorkerSupervisor) --------------------

    def begin(self, record: JobRecord) -> bool:
        """Transition queued -> running at dispatch; False if the job was
        cancelled (or completed) in the take window."""
        with self._lock:
            if record.state != "queued":
                return False
            record.state = "running"
            started_us = now_us()
            record.started_us = started_us
            record.queue_wait_ms = (started_us - record.submitted_us) / 1000.0
            get_tracer().record_span(
                "service.queue_wait",
                start_us=record.submitted_us,
                duration_us=started_us - record.submitted_us,
                job=record.job_id,
            )
        self._journal_event("started", record)
        return True

    def requeue(
        self,
        record: JobRecord,
        *,
        evidence: dict | None = None,
        count: bool = True,
    ) -> bool:
        """Put an in-flight job back at the front of the queue after a
        failed attempt.  ``count=False`` is for dispatch backouts (no
        attempt was made)."""
        with self._lock:
            if record.terminal:
                return False
            record.state = "queued"
            if count:
                record.redispatches += 1
        if count:
            obs_count("service.redispatches")
            self._journal_event(
                "requeued",
                record,
                redispatches=record.redispatches,
                evidence=evidence,
            )
        self.queue.put_front(record)
        return True

    def quarantine(self, record: JobRecord, evidence: dict) -> None:
        """Poison-job terminal state: the job's last attempt the budget
        allowed lost its worker (died or killed); fail it with the
        evidence."""
        obs_count("service.jobs_quarantined")
        self._complete(
            record,
            "failed",
            error={
                "kind": "quarantined",
                "error_type": "WorkerCrashError",
                "message": (
                    f"attempt {record.redispatches + 1} lost its worker "
                    f"({evidence['reason']}); quarantined after exhausting "
                    "its redispatch budget"
                ),
                "evidence": evidence,
            },
            attempts=record.redispatches + 1,
        )

    def finish(
        self, record: JobRecord, *, outcome=None, error: dict | None = None
    ) -> None:
        """Terminal completion from a fleet worker's reported outcome,
        charged one attempt per dispatch (``redispatches + 1``)."""
        state = "failed" if error is not None else "done"
        self._complete(
            record,
            state,
            outcome=outcome,
            error=error,
            attempts=record.redispatches + 1,
        )

    # -- dispatch --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        # The one dispatch rule: the seat is free, so take one job and
        # run its one cell.  Nothing waits for a burst to arrive.
        while not self._stop.is_set():
            for record in self.queue.take_batch(1, timeout=0.1):
                if self.begin(record):
                    self._run(record)

    def _run(self, record: JobRecord) -> None:
        request = record.request
        cell = (request.workload, request.method, request.gpu)
        try:
            result, attempts = run_job_cell(self.harness, cell, request.fault)
        except Exception as exc:  # defensive: never kill the loop
            error = {
                "kind": "scheduler",
                "error_type": type(exc).__name__,
                "message": str(exc),
            }
            self._complete(record, "failed", error=error)
            return
        if isinstance(result, CellFailure):
            self._complete(
                record, "failed", error=result.to_record(), attempts=attempts
            )
        else:
            self._complete(record, "done", outcome=result, attempts=attempts)

    def _complete(
        self,
        record: JobRecord,
        state: str,
        *,
        outcome=None,
        error: dict | None = None,
        attempts: int | None = None,
    ) -> None:
        with self._lock:
            if record.terminal:
                return
            record.state = state
            record.outcome = outcome
            record.error = error
            if attempts is not None:
                record.attempts = attempts
            end_us = now_us()
            record.latency_ms = (end_us - record.submitted_us) / 1000.0
            # Only a real compute feeds the service-time estimate.
            if (
                state == "done"
                and record.source == "computed"
                and record.started_us is not None
            ):
                self._observe_service_time(
                    (end_us - record.started_us) / 1_000_000.0
                )
            get_tracer().record_span(
                "service.job",
                start_us=record.submitted_us,
                duration_us=end_us - record.submitted_us,
                job=record.job_id,
                state=state,
                source=record.source or "none",
            )
        obs_count(f"service.jobs_{state}")
        self._journal_event(
            "completed",
            record,
            state=state,
            source=record.source,
            error=error,
            attempts=record.attempts,
            latency_ms=record.latency_ms,
        )

    # -- introspection ---------------------------------------------------

    def metrics(self) -> dict:
        """A JSON-ready snapshot for ``/metricsz`` and drain manifests."""
        tracer = get_tracer()
        with self._lock:
            states: dict[str, int] = {}
            for record in self._jobs.values():
                states[record.state] = states.get(record.state, 0) + 1
            total_jobs = len(self._jobs)
        counters = {
            name: value
            for name, value in sorted(tracer.counters.items())
            if name.startswith(
                ("service.", "tasks.", "harness.", "cache.", "backend.",
                 "fleet.", "journal.", "autoscaler.", "semcache.",
                 "predict.")
            )
        }
        cache = self.harness.run_cache
        lookups = cache.hits + cache.misses
        latency = {"all": span_percentiles(tracer, "service.job")}
        for source in ("cache", "computed", "transfer", "predicted"):
            latency[source] = span_percentiles(
                tracer,
                "service.job",
                where=lambda args, source=source: args.get("source") == source,
            )
        oldest_us = self.queue.oldest_submitted_us()
        queue_age = span_percentiles(tracer, "service.queue_wait")
        queue_age["oldest_wait_s"] = (
            max(0.0, (now_us() - oldest_us) / 1_000_000.0)
            if oldest_us is not None
            else None
        )
        ewma = self.service_time_ewma_s
        document = {
            "queue_depth": self.queue.depth,
            "draining": self._draining,
            "jobs": total_jobs,
            "states": states,
            "counters": counters,
            "queue_age": queue_age,
            "admission": {
                "default_deadline_s": self.default_deadline,
                "service_time_ewma_ms": (
                    ewma * 1000.0 if ewma is not None else None
                ),
                "predicted_wait_s": self.estimate_queue_wait(extra=1),
                "brownout": self.in_brownout(),
            },
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "writes": cache.writes,
                "evictions": cache.evictions,
                "evicted_bytes": cache.evicted_bytes,
                "hit_ratio": (cache.hits / lookups) if lookups else None,
            },
            "latency_ms": latency,
        }
        for section, tier in (
            ("semcache", self.harness.semcache),
            ("predict", self.harness.predict),
        ):
            document[section] = (
                tier.snapshot() if tier is not None else {"enabled": False}
            )
        if self.supervisor is not None:
            document["workers"] = self.supervisor.snapshot()
        if self.autoscaler is not None:
            document["autoscaler"] = self.autoscaler.snapshot()
        if self.journal is not None:
            document["journal"] = self.journal.stats()
        return document
