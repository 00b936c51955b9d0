"""Supervised worker fleet: process spawning, liveness, and recovery.

Fleet mode splits the service into a **coordinator** (the HTTP process:
admission, single-flight dedup, the journal) and N **worker processes**
that actually compute cells.  The supervisor owns everything about the
workers' lives:

* **Dispatch** — an idle worker pulls the next job from the scheduler's
  fair queue; each worker holds at most one job at a time, so in-flight
  accounting is exact and a dead worker orphans exactly the jobs it was
  visibly running.  Dispatch is event-driven: a worker that frees up,
  is (re)spawned, or is resurrected from draining wakes the dispatcher,
  so it gets the next queued job immediately rather than on a poll.
* **Liveness** — workers heartbeat on a side channel; a worker whose
  process exited *or* whose heartbeat went stale (hung) is declared
  dead and killed.
* **Recovery** — a dead worker's in-flight job is re-dispatched to the
  front of the queue.  Each dead worker costs its job one attempt of the
  harness's :class:`~repro.sim.parallel.FaultPolicy` — the same
  ``max_retries`` budget the process pool charges crashes against; a
  job that keeps killing workers is routed to **poison quarantine** (a
  typed ``failed`` terminal state carrying the crash evidence) instead
  of crash-looping the fleet — mirroring the run cache's corrupt-entry
  quarantine posture.
* **Respawn** — dead workers are respawned with exponential backoff
  (consecutive deaths back off further; a successful job resets the
  streak), so a systemic failure cannot fork-bomb the host.

When *every* worker is down the scheduler's circuit breaker flips the
service to warm-cache-only mode (see ``Scheduler.submit``); the
supervisor contributes ``any_alive`` and a next-respawn estimate for
the 503 ``Retry-After`` header.

Workers are not daemonic, so a cell may start its intra-run pool in one.
A drain stops them; an ``atexit`` hook kills them if the coordinator
exits without stopping; after a SIGKILL they (and their pool workers)
watch ``getppid`` and exit.  They are started, killed and collected
through the primitive :mod:`repro.sim.parallel` shares with the pool.
"""

from __future__ import annotations

import atexit
import os
import queue as queue_mod
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.analysis.harness import CellFailure, CellOutcome, EvaluationHarness
from repro.obs import obs_count
from repro.service.jobs import JobRecord, parse_job_fault
from repro.sim.faults import FaultPlan, InjectedFault
from repro.sim.parallel import kill_worker, reap_worker, spawn_worker, worker_context

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.scheduler import Scheduler

__all__ = ["WorkerSupervisor"]


def _worker_main(
    worker_id: int,
    generation: int,
    task_queue,
    event_queue,
    harness_spec: dict,
    heartbeat_interval: float,
    parent_pid: int,
) -> None:
    """Fleet worker: compute one job at a time with a local harness.

    Runs a daemon heartbeat thread that also watches the parent pid —
    if the coordinator dies (even SIGKILL), the worker exits instead of
    leaking.  Injected "crash" faults run with ``crash_in_process=True``
    so they genuinely ``os._exit`` this process: that is how poison jobs
    kill real workers and exercise the supervisor.  Retries and the
    per-attempt timeout follow the coordinator's fault policy.
    """
    harness = EvaluationHarness(**harness_spec)
    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            if os.getppid() != parent_pid:
                os._exit(0)  # coordinator died; do not leak
            try:
                event_queue.put(
                    ("heartbeat", worker_id, generation, os.getpid())
                )
            except Exception:
                os._exit(0)
            stop.wait(heartbeat_interval)

    threading.Thread(target=beat, name="pka-worker-beat", daemon=True).start()
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            job_id, cell, fault_kind, fault_attempts = task
            plan = None
            if fault_kind is not None and fault_attempts >= 1:
                plan = FaultPlan(
                    faults=(
                        InjectedFault(
                            task_index=0,
                            kind=fault_kind,
                            attempts=fault_attempts,
                        ),
                    )
                )
            answers = []
            [result] = harness.evaluate_cells(
                [cell],
                strict=False,
                fault_plan=plan,
                crash_in_process=True,
                progress=answers.append,
            )
            if not isinstance(result, CellFailure):
                result = answers[0].value  # the cell's CellOutcome
            event_queue.put(
                ("finished", worker_id, generation, job_id, _serialize_result(result))
            )
    finally:
        stop.set()


def _serialize_result(result: CellOutcome | CellFailure) -> dict:
    """Portable (queue-safe) rendering of one cell's outcome or failure."""
    if isinstance(result, CellFailure):
        return {
            "ok": False,
            "failure": result.to_record(),
            "attempts": result.attempts,
        }
    return {"ok": True, **result.dump()}


_deserialize_result = CellOutcome.load


@dataclass
class _WorkerSlot:
    """Coordinator-side bookkeeping for one worker seat."""

    worker_id: int
    process: Any = None
    task_queue: Any = None
    generation: int = 0
    pid: int | None = None
    last_heartbeat: float = 0.0
    current: JobRecord | None = None
    consecutive_deaths: int = 0
    respawn_at: float = 0.0
    deaths: int = 0
    completed: int = 0
    last_exit: dict | None = field(default=None)
    #: Scale-down in progress: no new dispatch; the in-flight job (if
    #: any) finishes — deadline-bounded by ``drain_deadline`` — before
    #: the slot retires.
    draining: bool = False
    drain_deadline: float = 0.0
    #: Retired slots stay in the list (worker ids index it) but are
    #: never dispatched to, never respawned, and not counted as
    #: configured capacity.
    retired: bool = False

    def snapshot(self, now: float) -> dict:
        alive = self.process is not None and self.process.is_alive()
        return {
            "worker_id": self.worker_id,
            "pid": self.pid,
            "alive": alive,
            "generation": self.generation,
            "heartbeat_age_s": (
                round(now - self.last_heartbeat, 3) if alive else None
            ),
            "current_job": self.current.job_id if self.current else None,
            "deaths": self.deaths,
            "completed": self.completed,
            "respawn_in_s": (
                round(max(0.0, self.respawn_at - now), 3)
                if not alive and not self.retired
                else None
            ),
            "draining": self.draining,
            "retired": self.retired,
            "last_exit": self.last_exit,
        }


class WorkerSupervisor:
    """Spawn, watch, and recover a fleet of worker processes.

    The supervisor is bound to its scheduler after construction (the
    scheduler holds the registry and the journal; the supervisor holds
    the processes) and started by ``Scheduler.start()``.
    """

    def __init__(
        self,
        harness: EvaluationHarness,
        workers: int = 2,
        *,
        heartbeat_interval: float = 0.2,
        heartbeat_timeout: float = 10.0,
        respawn_backoff: float = 0.25,
        respawn_backoff_cap: float = 5.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.harness = harness
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.respawn_backoff = respawn_backoff
        self.respawn_backoff_cap = respawn_backoff_cap
        self.scheduler: "Scheduler" | None = None
        self._ctx = worker_context()
        self._events = self._ctx.Queue()
        self._slots = [_WorkerSlot(worker_id=i) for i in range(workers)]
        self._lock = threading.RLock()
        #: Signalled (under ``_lock``) by every transition that can make
        #: a slot dispatchable, and by ``stop()``.
        self._dispatchable = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._started = False
        # Monotonic counters for /metricsz.
        self.worker_deaths = 0
        self.respawns = 0
        self.redispatches = 0
        self.quarantined = 0
        self.retired_total = 0
        self.grown_total = 0

    @property
    def workers(self) -> int:
        """Configured pool size: non-retired slots (the scaling target).

        Dead-but-respawning and draining slots still count — a slot
        leaves the configured pool only when it retires.
        """
        with self._lock:
            return sum(1 for slot in self._slots if not slot.retired)

    # ------------------------------------------------------------------
    # Lifecycle

    def bind(self, scheduler: "Scheduler") -> None:
        self.scheduler = scheduler

    def start(self) -> None:
        if self._started:
            return
        if self.scheduler is None:
            raise RuntimeError("WorkerSupervisor.start() before bind()")
        self._started = True
        atexit.register(self.stop, kill=True)
        now = time.monotonic()
        with self._lock:
            for slot in self._slots:
                if not slot.retired:
                    self._spawn_locked(slot, now)
        for target, name in (
            (self._dispatch_loop, "pka-fleet-dispatch"),
            (self._event_loop, "pka-fleet-events"),
            (self._monitor_loop, "pka-fleet-monitor"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self, *, kill: bool = False) -> None:
        """Stop the fleet.  Graceful by default (sentinel + join); with
        ``kill=True`` workers are terminated immediately."""
        atexit.unregister(self.stop)
        with self._lock:
            self._stop.set()
            self._dispatchable.notify_all()
            slots = list(self._slots)
        for slot in slots:
            process = slot.process
            if process is None:
                continue
            if kill:
                kill_worker(process)
            else:
                try:
                    slot.task_queue.put(None)
                except Exception:
                    pass
        deadline = time.monotonic() + (0.5 if kill else 5.0)
        for slot in slots:
            process = slot.process
            if process is None:
                continue
            reap_worker(process, grace=max(0.0, deadline - time.monotonic()))
            slot.process = None
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads.clear()

    # ------------------------------------------------------------------
    # Spawning

    def _spawn_locked(self, slot: _WorkerSlot, now: float) -> None:
        slot.generation += 1
        slot.last_heartbeat = now
        slot.process, slot.task_queue = spawn_worker(
            self._ctx,
            _worker_main,
            slot.worker_id,
            slot.generation,
            self._events,
            self.harness.worker_spec(),
            self.heartbeat_interval,
            os.getpid(),
            name=f"pka-worker-{slot.worker_id}",
        )
        slot.pid = slot.process.pid
        slot.respawn_at = 0.0
        self._dispatchable.notify()

    # ------------------------------------------------------------------
    # Elastic scaling (driven by repro.service.autoscaler)

    def grow(self, count: int) -> int:
        """Add ``count`` fresh worker slots; returns the new configured
        size.  Draining (not yet retired) slots are *resurrected* first —
        cancelling an in-progress scale-down is cheaper and faster than
        forking a new interpreter, and it is how a scale-up decision that
        races a scale-down wins without ever double-spawning.
        """
        if count < 1:
            raise ValueError("grow() needs count >= 1")
        now = time.monotonic()
        added = 0
        with self._lock:
            for slot in self._slots:
                if added >= count:
                    break
                if slot.retired or not slot.draining:
                    continue
                slot.draining = False
                slot.drain_deadline = 0.0
                self._dispatchable.notify()
                added += 1
            while added < count:
                slot = _WorkerSlot(worker_id=len(self._slots))
                self._slots.append(slot)
                if self._started:
                    self._spawn_locked(slot, now)
                added += 1
            self.grown_total += count
            configured = sum(1 for s in self._slots if not s.retired)
        obs_count("fleet.grown", count)
        return configured

    def retire(self, count: int = 1, *, grace: float = 10.0) -> int:
        """Begin graceful scale-down of up to ``count`` workers; returns
        how many victims were marked.

        Victim preference is loss-free and respawn-aware: dead slots
        sitting out a respawn backoff retire immediately (scale-down and
        respawn backoff must never fight — the pending respawn is simply
        cancelled), then idle live workers, then busy ones.  A live
        victim is marked ``draining``: dispatch stops, its in-flight job
        (if any) finishes within ``grace`` seconds, and the monitor loop
        retires it; past the deadline the worker is killed and its job
        re-dispatched through the PR-7 recovery path, so scale-down never
        loses an accepted job.
        """
        if count < 1:
            raise ValueError("retire() needs count >= 1")
        now = time.monotonic()
        marked = 0
        with self._lock:
            candidates = [
                slot
                for slot in self._slots
                if not slot.retired and not slot.draining
            ]
            # Dead-in-backoff first (free), then idle, then busy.
            def rank(slot: _WorkerSlot) -> int:
                alive = slot.process is not None and slot.process.is_alive()
                if not alive:
                    return 0
                return 1 if slot.current is None else 2

            for slot in sorted(candidates, key=rank):
                if marked >= count:
                    break
                alive = slot.process is not None and slot.process.is_alive()
                if not alive:
                    self._retire_locked(slot, graceful=True)
                else:
                    slot.draining = True
                    slot.drain_deadline = now + max(0.0, grace)
                marked += 1
        return marked

    def _retire_locked(self, slot: _WorkerSlot, *, graceful: bool) -> None:
        """Finalize one slot's retirement (caller holds the lock)."""
        process = slot.process
        if process is not None and process.is_alive():
            try:
                slot.task_queue.put(None)  # graceful: worker exits its loop
            except Exception:
                kill_worker(process)
        slot.retired = True
        slot.draining = False
        slot.respawn_at = 0.0
        self.retired_total += 1
        obs_count("fleet.retired")
        scheduler = self.scheduler
        if scheduler is not None:
            scheduler.note_fleet(
                "worker-retired",
                worker_id=slot.worker_id,
                graceful=graceful,
                completed=slot.completed,
                deaths=slot.deaths,
            )

    # ------------------------------------------------------------------
    # Liveness / introspection

    @property
    def alive_workers(self) -> int:
        with self._lock:
            return sum(
                1
                for slot in self._slots
                if not slot.retired
                and slot.process is not None
                and slot.process.is_alive()
            )

    @property
    def serving_workers(self) -> int:
        """Workers that can take *new* work: alive, not retired, not
        draining.  This is the capacity admission control divides by."""
        with self._lock:
            return sum(
                1
                for slot in self._slots
                if not slot.retired
                and not slot.draining
                and slot.process is not None
                and slot.process.is_alive()
            )

    @property
    def busy_workers(self) -> int:
        """Non-retired workers currently holding a job."""
        with self._lock:
            return sum(
                1
                for slot in self._slots
                if not slot.retired and slot.current is not None
            )

    @property
    def any_alive(self) -> bool:
        return self.alive_workers > 0

    def next_retry_after(self) -> float:
        """Seconds until the soonest dead worker is due to respawn —
        the server's ``Retry-After`` advice in warm-cache-only mode."""
        now = time.monotonic()
        with self._lock:
            waits = [
                max(0.0, slot.respawn_at - now)
                for slot in self._slots
                if not slot.retired
                and (slot.process is None or not slot.process.is_alive())
            ]
        if not waits:
            return self.respawn_backoff
        return max(self.respawn_backoff, min(waits))

    def snapshot(self) -> dict:
        now = time.monotonic()
        with self._lock:
            slots = [
                slot.snapshot(now) for slot in self._slots if not slot.retired
            ]
            retired = sum(1 for slot in self._slots if slot.retired)
        return {
            "configured": len(slots),
            "alive": sum(1 for slot in slots if slot["alive"]),
            "draining": sum(1 for slot in slots if slot["draining"]),
            "busy": sum(1 for slot in slots if slot["current_job"]),
            "retired": retired,
            "heartbeat_timeout_s": self.heartbeat_timeout,
            "redispatch_budget": self.harness.fault_policy.max_retries,
            "deaths": self.worker_deaths,
            "respawns": self.respawns,
            "redispatches": self.redispatches,
            "quarantined": self.quarantined,
            "grown": self.grown_total,
            "slots": slots,
        }

    # ------------------------------------------------------------------
    # Dispatch

    def _idle_slots_locked(self) -> list[_WorkerSlot]:
        return [
            slot
            for slot in self._slots
            if not slot.retired
            and not slot.draining
            and slot.process is not None
            and slot.process.is_alive()
            and slot.current is None
        ]

    def _dispatch_loop(self) -> None:
        scheduler = self.scheduler
        while True:
            with self._lock:
                # Sleep until a slot frees up, spawns or is resurrected;
                # the timeout only backstops a missed transition.
                idle = self._idle_slots_locked()
                while not idle and not self._stop.is_set():
                    self._dispatchable.wait(self.heartbeat_interval)
                    idle = self._idle_slots_locked()
                if self._stop.is_set():
                    return
            batch = scheduler.queue.take_batch(
                len(idle), linger=0.0, timeout=self.heartbeat_interval
            )
            if not batch:
                continue
            leftovers: list[JobRecord] = []
            with self._lock:
                # After stop() a worker's task queue may already hold its
                # exit sentinel: a job sent now would never run.
                idle = [] if self._stop.is_set() else self._idle_slots_locked()
                for record in batch:
                    if not idle:
                        leftovers.append(record)
                        continue
                    if not scheduler.begin(record):
                        continue  # cancelled in the take window
                    slot = idle.pop(0)
                    slot.current = record
                    try:
                        slot.task_queue.put(self._task_for(record))
                    except Exception:
                        slot.current = None
                        leftovers.append(record)
            # Slots vanished (or the fleet stopped) between sizing and
            # assignment: not a loss, the jobs go back to the front.
            for record in leftovers:
                scheduler.requeue(record, count=False)

    @staticmethod
    def _task_for(record: JobRecord) -> tuple:
        request = record.request
        cell = (request.workload, request.method, request.gpu)
        fault_kind = None
        fault_attempts = 0
        if request.fault is not None:
            fault_kind, fault_attempts = parse_job_fault(request.fault)
            # A worker's in-process attempt counter restarts on every
            # dispatch, so charge prior dispatches against the fault's
            # attempt budget: "crashx2" kills two workers, then runs.
            fault_attempts -= record.redispatches
            if fault_attempts <= 0:
                fault_kind = None
        return (record.job_id, cell, fault_kind, fault_attempts)

    # ------------------------------------------------------------------
    # Events

    def _event_loop(self) -> None:
        while not self._stop.is_set():
            try:
                event = self._events.get(timeout=0.2)
            except (queue_mod.Empty, OSError, EOFError):
                continue
            kind = event[0]
            if kind == "heartbeat":
                _, worker_id, generation, _pid = event
                with self._lock:
                    if worker_id >= len(self._slots):
                        continue
                    slot = self._slots[worker_id]
                    if slot.generation == generation:
                        slot.last_heartbeat = time.monotonic()
            elif kind == "finished":
                _, worker_id, generation, job_id, payload = event
                self._handle_finished(worker_id, generation, job_id, payload)

    def _handle_finished(
        self, worker_id: int, generation: int, job_id: str, payload: dict
    ) -> None:
        scheduler = self.scheduler
        with self._lock:
            if worker_id >= len(self._slots):
                return
            slot = self._slots[worker_id]
            if slot.generation == generation:
                if slot.current is not None and slot.current.job_id == job_id:
                    slot.current = None
                    self._dispatchable.notify()
                slot.completed += 1
                slot.consecutive_deaths = 0
                slot.last_heartbeat = time.monotonic()
        try:
            record = scheduler.get(job_id)
        except Exception:
            return  # job evaporated (should not happen); nothing to complete
        if payload.get("ok"):
            scheduler.finish(record, outcome=_deserialize_result(payload))
        else:
            scheduler.finish(
                record,
                error=payload.get("failure"),
                attempts=payload.get("attempts"),
            )
        obs_count("fleet.jobs_finished")

    # ------------------------------------------------------------------
    # Monitoring

    def _monitor_loop(self) -> None:
        poll = max(0.02, self.heartbeat_interval / 2.0)
        while not self._stop.is_set():
            now = time.monotonic()
            with self._lock:
                for slot in self._slots:
                    if slot.retired:
                        # Collect the exited process of a gracefully
                        # retired worker; never respawn it.
                        process = slot.process
                        if process is not None and not process.is_alive():
                            process.join(timeout=0)
                            slot.process = None
                            slot.pid = None
                        continue
                    if slot.process is None:
                        if now >= slot.respawn_at:
                            self._spawn_locked(slot, now)
                            self.respawns += 1
                            obs_count("fleet.respawns")
                        continue
                    if slot.draining and slot.process.is_alive():
                        if slot.current is None:
                            # In-flight work done (or none): retire now.
                            self._retire_locked(slot, graceful=True)
                            continue
                        if now >= slot.drain_deadline:
                            # Deadline-bounded drain: put the worker
                            # down; _reap_locked re-dispatches the job
                            # (PR-7 path) and then retires the slot.
                            self._reap_locked(
                                slot, now, exited=False,
                                reason="drain-deadline",
                            )
                            continue
                    exited = not slot.process.is_alive()
                    stale = (
                        now - slot.last_heartbeat
                    ) > self.heartbeat_timeout
                    if exited or stale:
                        self._reap_locked(slot, now, exited=exited)
            self._stop.wait(poll)

    def _reap_locked(
        self,
        slot: _WorkerSlot,
        now: float,
        *,
        exited: bool,
        reason: str | None = None,
    ) -> None:
        """Declare one worker dead: kill, record evidence, recover its job."""
        # A hung or overdue worker is put down first.
        exitcode = reap_worker(slot.process, kill=not exited)
        evidence = {
            "worker_id": slot.worker_id,
            "pid": slot.pid,
            "generation": slot.generation,
            "reason": reason or ("exited" if exited else "stale-heartbeat"),
            "exitcode": exitcode,
            "heartbeat_age_s": round(now - slot.last_heartbeat, 3),
        }
        slot.last_exit = evidence
        slot.process = None
        slot.pid = None
        slot.deaths += 1
        slot.consecutive_deaths += 1
        backoff = min(
            self.respawn_backoff_cap,
            self.respawn_backoff * (2 ** (slot.consecutive_deaths - 1)),
        )
        slot.respawn_at = now + backoff
        self.worker_deaths += 1
        obs_count("fleet.worker_deaths")
        record, slot.current = slot.current, None
        if slot.draining:
            # A draining victim that died (or overstayed its drain
            # deadline) retires instead of respawning — scale-down and
            # respawn backoff never compete for the same slot.
            self._retire_locked(slot, graceful=False)
        if record is None or record.terminal:
            return
        evidence = dict(evidence, job_id=record.job_id)
        if record.redispatches >= self.harness.fault_policy.max_retries:
            self.quarantined += 1
            self.scheduler.quarantine(record, evidence)
        else:
            self.redispatches += 1
            obs_count("fleet.redispatches")
            self.scheduler.requeue(record, evidence=evidence)
