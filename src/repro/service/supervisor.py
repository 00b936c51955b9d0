"""Supervised worker fleet: process spawning, liveness, and recovery.

Fleet mode splits the service into a **coordinator** (the HTTP process:
admission, single-flight dedup, the journal) and N **worker processes**
that actually compute cells.  Each worker sits in a seat of the same
kind the process pool uses (:mod:`repro.sim.parallel`): one process with
its own task queue and its own result pipe, holding at most one job.
The supervisor owns everything about the workers' lives:

* **Dispatch** — an idle worker pulls the next job from the scheduler's
  fair queue, so in-flight accounting is exact and a dead worker orphans
  exactly the job it held.  Dispatch is event-driven: a worker that
  frees up, is (re)spawned, or is resurrected from draining wakes the
  dispatcher, so it gets the next queued job immediately.
* **Liveness** — one rule: process exit or job deadline, nothing else.
  One coordinator loop waits on every worker's result pipe and process
  sentinel.  A worker is dead when its sentinel fires or its pipe hits
  EOF; it is overdue when its job has run longer than the fault
  policy's ``timeout_seconds`` since dispatch, and is then killed.
* **Recovery** — each dispatch is exactly one attempt, and every failed
  attempt (an exception the worker reports, a worker death, a deadline
  kill) is charged against the harness's one
  :class:`~repro.sim.parallel.FaultPolicy` ``max_retries`` budget, as
  the pool charges its tasks.  While attempts remain the job goes back
  to the front of the queue; once they run out an exception fails the
  job with the worker's cell-failure record, and a death or kill routes
  it to **poison quarantine** (a typed ``failed`` terminal state
  carrying the evidence) instead of crash-looping the fleet.
* **Respawn** — dead workers are respawned with exponential backoff
  (consecutive deaths back off further; a reply resets the streak), so
  a systemic failure cannot fork-bomb the host.

When *every* worker is down the scheduler's circuit breaker flips the
service to warm-cache-only mode (see ``Scheduler.submit``); the
supervisor contributes ``any_alive`` and a next-respawn estimate for
the 503 ``Retry-After`` header.

Workers are not daemonic, so a cell may start its intra-run pool in one.
A drain stops them; an ``atexit`` hook kills them if the coordinator
exits without stopping; after a SIGKILL they exit once idle, as pool
workers do.
"""

from __future__ import annotations

import atexit
import os
import queue as queue_mod
import threading
import time
from multiprocessing.connection import wait
from typing import TYPE_CHECKING

from repro.analysis.harness import CellFailure, CellOutcome, EvaluationHarness
from repro.obs import obs_count
from repro.service.jobs import JobRecord, run_job_cell
from repro.sim.parallel import FAIL_FAST, _Seat, kill_worker, worker_context

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.scheduler import Scheduler

__all__ = ["WorkerSupervisor"]

#: Longest the coordinator and the dispatcher sleep before looking again
#: at what no handle signals: respawn backoffs, drain deadlines, a
#: grown slot, a stop.
_BACKSTOP = 0.1


def _worker_main(
    worker_id: int,
    generation: int,
    task_queue,
    send,
    harness_spec: dict,
    owner: int,
) -> None:
    """Fleet worker: one attempt per job with a local harness, until ``None``.

    A task is ``(job_id, cell, fault, spent)``: the job's fault spec and
    the attempts its earlier dispatches spent.  The cell runs with no
    retries and no in-process timeout: the coordinator charges failed
    attempts and enforces the deadline.  Injected "crash" faults
    genuinely ``os._exit`` this process, and injected hangs sleep past
    the coordinator's deadline: that is how poison jobs exercise the
    supervisor.  ``send`` replies on this worker's own pipe.  A worker
    whose ``owner`` died without reaping it exits once idle.
    """
    harness = EvaluationHarness(**harness_spec)
    while True:
        try:
            task = task_queue.get(timeout=1.0)
        except queue_mod.Empty:
            if os.getppid() != owner:
                return
            continue
        if task is None:
            return
        job_id, cell, fault, spent = task
        result, _ = run_job_cell(
            harness,
            cell,
            fault,
            spent=spent,
            fault_policy=FAIL_FAST,
            crash_in_process=True,
        )
        send(("finished", worker_id, generation, job_id, _serialize_result(result)))


def _serialize_result(result: CellOutcome | CellFailure) -> dict:
    """Portable (pipe-safe) rendering of one cell's outcome or failure."""
    if isinstance(result, CellFailure):
        return {
            "ok": False,
            "failure": result.to_record(),
            "attempts": result.attempts,
        }
    return {"ok": True, **result.dump()}


_deserialize_result = CellOutcome.load


class _WorkerSlot(_Seat):
    """One fleet seat: the worker, the job it holds (``held``), and the
    coordinator's bookkeeping for its lives."""

    __slots__ = (
        "consecutive_deaths", "respawn_at", "deaths", "completed", "last_exit",
        "draining", "drain_deadline", "retired",
    )

    def __init__(self, worker_id: int) -> None:
        super().__init__(worker_id)
        self.consecutive_deaths = 0
        self.respawn_at = 0.0
        self.deaths = 0
        self.completed = 0
        self.last_exit: dict | None = None
        #: Scale-down in progress: no new dispatch; the held job (if
        #: any) finishes — bounded by ``drain_deadline`` — before the
        #: slot retires.
        self.draining = False
        self.drain_deadline = 0.0
        #: Retired slots stay in the list (worker ids index it) but are
        #: never dispatched to, never respawned, and not counted as
        #: configured capacity.
        self.retired = False

    @property
    def pid(self) -> int | None:
        return None if self.process is None else self.process.pid

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def snapshot(self, now: float) -> dict:
        alive = self.alive
        return {
            "worker_id": self.worker_id,
            "pid": self.pid,
            "alive": alive,
            "generation": self.generation,
            "current_job": self.held.job_id if self.held else None,
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
        respawn_backoff: float = 0.25,
        respawn_backoff_cap: float = 5.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.harness = harness
        self.respawn_backoff = respawn_backoff
        self.respawn_backoff_cap = respawn_backoff_cap
        self.scheduler: "Scheduler" | None = None
        self._ctx = worker_context()
        self._slots = [_WorkerSlot(i) for i in range(workers)]
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
        with self._lock:
            for slot in self._slots:
                if not slot.retired:
                    self._spawn_locked(slot)
        for target, name in (
            (self._dispatch_loop, "pka-fleet-dispatch"),
            (self._coordinate, "pka-fleet-coordinator"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self, *, kill: bool = False) -> None:
        """Stop the fleet.  Graceful by default (sentinel + join); with
        ``kill=True`` workers are killed immediately.  Either way every
        worker is collected before this returns."""
        atexit.unregister(self.stop)
        with self._lock:
            self._stop.set()
            self._dispatchable.notify_all()
        # The loops exit within a backstop; after that nothing else puts
        # a worker down or waits on its handles.
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads.clear()
        with self._lock:
            for slot in self._slots:
                if slot.process is not None:
                    slot.put_down(kill=kill)

    def _spawn_locked(self, slot: _WorkerSlot) -> None:
        slot.start(
            self._ctx,
            _worker_main,
            self.harness.worker_spec(),
            os.getpid(),
            name=f"pka-worker-{slot.worker_id}",
        )
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
                slot = _WorkerSlot(len(self._slots))
                self._slots.append(slot)
                if self._started:
                    self._spawn_locked(slot)
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
        victim is marked ``draining``: dispatch stops, its held job (if
        any) finishes within ``grace`` seconds, and the coordinator
        retires it; past the deadline the worker is killed and its job
        charged a failed attempt like any other lost worker's, so
        scale-down never loses an accepted job.
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
                if not slot.alive:
                    return 0
                return 1 if slot.held is None else 2

            for slot in sorted(candidates, key=rank):
                if marked >= count:
                    break
                if not slot.alive:
                    self._retire_locked(slot, graceful=True)
                else:
                    slot.draining = True
                    slot.drain_deadline = now + max(0.0, grace)
                marked += 1
        return marked

    def _retire_locked(self, slot: _WorkerSlot, *, graceful: bool) -> None:
        """Finalize one slot's retirement (caller holds the lock).  A live
        worker is told to exit; the coordinator collects it."""
        if slot.alive:
            try:
                slot.tasks.put(None)  # graceful: worker exits its loop
            except Exception:
                kill_worker(slot.process)
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
                1 for slot in self._slots if not slot.retired and slot.alive
            )

    @property
    def serving_workers(self) -> int:
        """Workers that can take *new* work: alive, not retired, not
        draining.  This is the capacity admission control divides by."""
        with self._lock:
            return sum(
                1
                for slot in self._slots
                if not slot.retired and not slot.draining and slot.alive
            )

    @property
    def busy_workers(self) -> int:
        """Non-retired workers currently holding a job."""
        with self._lock:
            return sum(
                1
                for slot in self._slots
                if not slot.retired and slot.held is not None
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
                if not slot.retired and not slot.alive
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
            and slot.held is None
            and slot.alive
        ]

    def _dispatch_loop(self) -> None:
        scheduler = self.scheduler
        timeout = self.harness.fault_policy.timeout_seconds
        while True:
            with self._lock:
                # Sleep until a slot frees up, spawns or is resurrected;
                # the timeout only backstops a missed transition.
                idle = self._idle_slots_locked()
                while not idle and not self._stop.is_set():
                    self._dispatchable.wait(_BACKSTOP)
                    idle = self._idle_slots_locked()
                if self._stop.is_set():
                    return
            batch = scheduler.queue.take_batch(len(idle), timeout=_BACKSTOP)
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
                    try:
                        slot.hold(record, self._task_for(record), timeout)
                    except Exception:
                        slot.release()
                        leftovers.append(record)
            # Slots vanished (or the fleet stopped) between sizing and
            # assignment: not a loss, the jobs go back to the front.
            for record in leftovers:
                scheduler.requeue(record, count=False)

    @staticmethod
    def _task_for(record: JobRecord) -> tuple:
        request = record.request
        cell = (request.workload, request.method, request.gpu)
        # Each dispatch is one attempt, so a fault poisons the first
        # ``attempts`` dispatches: "crashx2" kills two workers, then the
        # job runs.
        return (record.job_id, cell, request.fault, record.redispatches)

    # ------------------------------------------------------------------
    # The coordinator: one loop over every worker's pipe and sentinel

    def _coordinate(self) -> None:
        live: list[_WorkerSlot] = []
        ready: set = set()
        while True:
            with self._lock:
                if self._stop.is_set():
                    return
                now = time.monotonic()
                settled = [self._poll_locked(slot, ready, now) for slot in live]
                settled += self._tend_locked(now)
                live = [slot for slot in self._slots if slot.process is not None]
                handles = [slot.results for slot in live]
                handles += [slot.process.sentinel for slot in live]
                wakes = [slot.deadline for slot in live if slot.deadline is not None]
                wakes += [slot.drain_deadline for slot in live if slot.draining]
                wakes += [
                    slot.respawn_at
                    for slot in self._slots
                    if slot.process is None and not slot.retired
                ]
                timeout = min(
                    [_BACKSTOP] + [max(0.0, wake - now) for wake in wakes]
                )
            for action in settled:
                if action is not None:
                    self._settle(*action)
            if handles:
                ready = set(wait(handles, timeout))
            else:
                self._stop.wait(timeout)
                ready = set()

    def _poll_locked(self, slot: _WorkerSlot, ready: set, now: float):
        """What became of one worker, as a ``_settle`` action or None."""
        process = slot.process
        event = slot.poll(ready, now)
        if event is None or slot.retired:
            return None  # a retired worker's exit is only collected
        status, payload = event
        if status == "crash":
            return self._lost_locked(slot, process, now, "exited")
        if status == "timeout":
            return self._lost_locked(slot, process, now, "timeout")
        record = slot.release()
        slot.completed += 1
        slot.consecutive_deaths = 0
        self._dispatchable.notify()
        obs_count("fleet.jobs_finished")
        if status == "error":  # the reply did not unpickle
            failure = {
                "kind": "exception",
                "error_type": type(payload).__name__,
                "message": str(payload),
            }
            return record, {"ok": False, "failure": failure}, None
        return record, payload[-1], None

    def _tend_locked(self, now: float) -> list:
        """Respawn due slots, retire drained ones, and put down a draining
        worker past its deadline; returns ``_settle`` actions."""
        settled = []
        for slot in self._slots:
            if slot.retired:
                continue
            if slot.process is None:
                if now >= slot.respawn_at:
                    self._spawn_locked(slot)
                    self.respawns += 1
                    obs_count("fleet.respawns")
            elif slot.draining and slot.held is None:
                self._retire_locked(slot, graceful=True)
            elif slot.draining and now >= slot.drain_deadline:
                process = slot.process
                slot.put_down(kill=True)
                settled.append(
                    self._lost_locked(slot, process, now, "drain-deadline")
                )
        return settled

    def _lost_locked(self, slot: _WorkerSlot, process, now: float, reason: str):
        """Record a worker that was put down; its job, if any, is charged
        one failed attempt (a ``_settle`` action)."""
        record = slot.release()
        evidence = {
            "worker_id": slot.worker_id,
            "pid": process.pid,
            "generation": slot.generation,
            "reason": reason,
            "exitcode": process.exitcode,
        }
        if record is not None:
            evidence["job_id"] = record.job_id
        slot.last_exit = evidence
        slot.deaths += 1
        slot.consecutive_deaths += 1
        backoff = self.respawn_backoff * 2 ** (slot.consecutive_deaths - 1)
        slot.respawn_at = now + min(self.respawn_backoff_cap, backoff)
        self.worker_deaths += 1
        obs_count("fleet.worker_deaths")
        if slot.draining:
            # A draining victim that died (or overstayed its drain
            # deadline) retires instead of respawning — scale-down and
            # respawn backoff never compete for the same slot.
            self._retire_locked(slot, graceful=False)
        return None if record is None else (record, None, evidence)

    def _settle(self, record: JobRecord, payload: dict | None, evidence) -> None:
        """Complete one attempt's job, outside the lock: a good reply
        finishes it; a failed attempt (a failure reply, or ``evidence``
        of a lost worker) re-dispatches it while the policy grants
        another attempt, and otherwise fails or quarantines it."""
        scheduler = self.scheduler
        if payload is not None and payload["ok"]:
            scheduler.finish(record, outcome=_deserialize_result(payload))
            return
        if record.terminal:
            return
        failure = None if payload is None else payload["failure"]
        if record.redispatches < self.harness.fault_policy.max_retries:
            self.redispatches += 1
            obs_count("fleet.redispatches")
            scheduler.requeue(record, evidence=evidence or failure)
        elif failure is not None:
            scheduler.finish(
                record, error=dict(failure, attempts=record.redispatches + 1)
            )
        else:
            self.quarantined += 1
            scheduler.quarantine(record, evidence)
