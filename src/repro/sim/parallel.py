"""Parallel execution backends for the simulation substrate.

The paper's pitch is tractability, and per-kernel simulation is
embarrassingly parallel: every distinct (kernel spec, grid) pair is an
independent, deterministic computation.  This module provides the
execution backends the rest of the stack fans work out through:

* :class:`SerialBackend` — in-process, in-order execution (the default);
* :class:`ProcessPoolBackend` — a fan-out over worker processes with a
  *deterministic reduce*: results always come back in submission order,
  so callers accumulate them exactly as the serial path would and
  parallel results are bit-identical to serial ones.

Workers are plain module-level functions over picklable payloads
(frozen dataclasses all the way down), with per-process caches so one
worker builds its :class:`~repro.sim.simulator.Simulator` or
:class:`~repro.sim.silicon.SiliconExecutor` once and reuses it across
batches.

Backends are specified as ``None``/"serial" (serial), "auto"/0 (process
pool, one worker per CPU), an integer worker count, or a ready-made
backend object; :func:`resolve_backend` normalizes all of these.

On top of the order-preserving ``map_tasks`` sits the **fault-tolerant
runtime**: ``run_tasks`` executes every task under a
:class:`FaultPolicy` (bounded retries with deterministic seeded
exponential backoff, an optional wall-clock timeout) and returns one
:class:`TaskOutcome` per task — a value or a structured
:class:`TaskFailure` — instead of aborting the whole batch on the first
problem.  Like the service's worker fleet, which starts, kills and
collects its workers with this module's :func:`spawn_worker`,
:func:`kill_worker` and :func:`reap_worker`, the pool keeps at most one
task on each worker: a worker that dies, or misses the deadline its
task got at dispatch, is charged to exactly that task, and every other
task runs once.  Recovery never reorders results, so the bit-identical
serial == parallel guarantee holds for every non-quarantined task.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import queue
import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Protocol, runtime_checkable

from repro.errors import (
    ConfigurationError,
    RetryExhaustedError,
    TaskFailureError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.obs import ObsSnapshot, capture_tracer, get_tracer, obs_count, obs_span
from repro.sim.faults import DEFAULT_HANG_SECONDS, FaultPlan, run_with_fault

__all__ = [
    "FAIL_FAST",
    "ExecutionBackend",
    "FaultPolicy",
    "ProcessPoolBackend",
    "SerialBackend",
    "TaskFailure",
    "TaskOutcome",
    "auto_worker_count",
    "chunked",
    "kill_worker",
    "reap_worker",
    "resolve_backend",
    "spawn_worker",
    "worker_context",
]


def auto_worker_count() -> int:
    """Worker count for ``jobs="auto"``: one per available CPU."""
    return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Fault policy and task outcomes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPolicy:
    """How the runtime treats a failing task.

    ``max_retries`` bounds how many times one task is re-attempted after
    its first failure; ``timeout_seconds`` bounds the wall clock one
    attempt may consume (``None`` disables the watchdog).  Backoff
    between attempts grows exponentially with a *deterministic seeded
    jitter*: the jitter for ``(task, attempt)`` is a pure function of
    ``jitter_seed``, so a replayed sweep sleeps exactly as long as the
    original did and stays reproducible.

    Timeout enforcement differs by backend, by necessity: the process
    pool enforces it preemptively (hung workers are terminated), the
    serial backend post-hoc (an attempt that returns after its deadline
    is discarded and classified as a timeout).  Both classify the task
    identically, which is what the serial == parallel guarantee needs.
    """

    max_retries: int = 2
    timeout_seconds: float | None = None
    backoff_base_seconds: float = 0.02
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.25
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError("timeout_seconds must be positive or None")
        if self.backoff_base_seconds < 0:
            raise ConfigurationError("backoff_base_seconds must be >= 0")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def backoff_seconds(self, task_index: int, attempt: int) -> float:
        """Sleep before re-attempting ``task_index`` after ``attempt`` failed.

        Exponential in the attempt number, with a jitter fraction drawn
        deterministically from ``sha256(jitter_seed, task_index, attempt)``
        — no shared clock, no RNG state, same value on every replay.
        """
        base = self.backoff_base_seconds * self.backoff_multiplier ** (attempt - 1)
        seed = f"{self.jitter_seed}:{task_index}:{attempt}".encode("utf-8")
        digest = hashlib.sha256(seed).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 + self.jitter_fraction * fraction)

    def hang_seconds(self) -> float:
        """How long an injected hang sleeps when the fault doesn't say."""
        if self.timeout_seconds is None:
            return DEFAULT_HANG_SECONDS
        return self.timeout_seconds * 1.5


#: Zero retries, no timeout: the policy ``map_tasks`` runs under, which
#: preserves its historical fail-fast semantics exactly.
FAIL_FAST = FaultPolicy(max_retries=0, backoff_base_seconds=0.0)


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task's final, post-retry failure.

    ``kind`` is the runtime's classification — ``"exception"`` (the task
    body raised), ``"timeout"`` (an attempt outlived the policy
    deadline) or ``"crash"`` (the worker process died) — and
    ``error_type``/``message`` describe the last underlying error.
    The record is plain data: it serializes into sweep manifests and
    reconstructs a typed exception via :meth:`to_error`.
    """

    index: int
    label: str
    kind: str
    error_type: str
    message: str
    attempts: int

    def to_error(self) -> TaskFailureError:
        """The typed exception equivalent of this record."""
        if self.kind == "timeout":
            cls: type[TaskFailureError] = TaskTimeoutError
        elif self.kind == "crash":
            cls = WorkerCrashError
        else:
            cls = RetryExhaustedError
        return cls(
            f"{self.label}: {self.error_type}: {self.message} "
            f"(after {self.attempts} attempt{'s' if self.attempts != 1 else ''})",
            task_index=self.index,
            task_label=self.label,
            attempts=self.attempts,
        )


@dataclass
class TaskOutcome:
    """One task's result under ``run_tasks``: a value or a failure.

    ``exception`` carries the original in-flight exception object for
    strict re-raising (parent-side only; excluded from equality so
    outcomes compare on what they *mean*).
    """

    index: int
    label: str
    value: Any = None
    failure: TaskFailure | None = None
    exception: BaseException | None = field(
        default=None, compare=False, repr=False
    )
    #: Worker-side spans/counters captured while the task ran (pool
    #: backend with tracing enabled only).  Excluded from equality:
    #: telemetry must never break the bit-identical serial == parallel
    #: comparison.
    obs: ObsSnapshot | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.failure is None


class _TaskState:
    """Mutable bookkeeping for one task across its attempts."""

    __slots__ = ("index", "item", "label", "fault", "attempt")

    def __init__(self, index: int, item: Any, label: str, fault) -> None:
        self.index = index
        self.item = item
        self.label = label
        self.fault = fault
        self.attempt = 1


def _task_states(
    work: Sequence[Any],
    labels: Sequence[str] | None,
    policy: FaultPolicy,
    fault_plan: FaultPlan | None,
) -> list[_TaskState]:
    """One state per task: its label and its resolved injected fault."""
    names = [f"task {i}" for i in range(len(work))] if labels is None else list(labels)
    if len(names) != len(work):
        raise ConfigurationError(f"got {len(names)} labels for {len(work)} tasks")
    hang = policy.hang_seconds()
    return [
        _TaskState(
            index, item, names[index],
            fault_plan.resolved(index, hang) if fault_plan else None,
        )
        for index, item in enumerate(work)
    ]


def _raise_outcome(outcome: TaskOutcome) -> None:
    """Strict mode: re-raise a failed outcome as the caller should see it.

    A plain exception that was never retried surfaces with its original
    type and message (the historical ``map_tasks`` contract); everything
    else surfaces as the typed :class:`~repro.errors.TaskFailureError`
    subclass, chained to the underlying cause when one was captured.
    """
    failure = outcome.failure
    assert failure is not None
    if (
        failure.kind == "exception"
        and failure.attempts == 1
        and outcome.exception is not None
    ):
        raise outcome.exception
    if outcome.exception is not None:
        raise failure.to_error() from outcome.exception
    raise failure.to_error()


def _classify(exc: BaseException) -> str:
    return "crash" if isinstance(exc, WorkerCrashError) else "exception"


def _settle(
    state: _TaskState, policy: FaultPolicy, kind: str, exc: BaseException | None
) -> TaskOutcome | None:
    """Charge ``state`` one failed attempt.

    None when the policy grants another attempt (after its deterministic
    backoff); otherwise the task's quarantined outcome.
    """
    if state.attempt < policy.max_attempts:
        time.sleep(policy.backoff_seconds(state.index, state.attempt))
        state.attempt += 1
        obs_count("tasks.retries")
        return None
    obs_count("tasks.quarantined")
    if exc is not None:
        error_type, message = type(exc).__name__, str(exc)
    elif kind == "timeout":
        error_type, message = "TaskTimeoutError", "attempt exceeded the policy timeout"
    else:
        error_type, message = "WorkerCrashError", "worker process died mid-task"
    failure = TaskFailure(
        state.index, state.label, kind, error_type, message, state.attempt
    )
    return TaskOutcome(state.index, state.label, failure=failure, exception=exc)


def _run_tasks_inline(
    fn: Callable[[Any], Any],
    work: Sequence[Any],
    policy: FaultPolicy,
    labels: Sequence[str] | None,
    fault_plan: FaultPlan | None,
    strict: bool,
    on_outcome: Callable[[TaskOutcome], None] | None = None,
    in_worker: bool = False,
) -> list[TaskOutcome]:
    """The in-process fault-tolerant loop both backends share.

    Used directly by :class:`SerialBackend` and as the pool backend's
    degenerate path (one task, or one worker).  ``in_worker`` defaults to
    False, so injected crashes are simulated as
    :class:`~repro.errors.WorkerCrashError` instead of taking the caller
    down; fleet worker processes pass True (via the harness's
    ``crash_in_process``) so a "crash" fault genuinely kills them and
    exercises the supervisor's dead-worker recovery.
    """
    outcomes: list[TaskOutcome] = []
    for state in _task_states(work, labels, policy, fault_plan):
        outcome = None
        while outcome is None:
            started = time.monotonic()
            try:
                with obs_span("task", label=state.label, attempt=state.attempt):
                    value = run_with_fault(
                        (fn, state.item, state.fault, state.attempt, in_worker)
                    )
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                outcome = _settle(state, policy, _classify(exc), exc)
                continue
            if (
                policy.timeout_seconds is not None
                and time.monotonic() - started > policy.timeout_seconds
            ):
                outcome = _settle(state, policy, "timeout", None)
            else:
                outcome = TaskOutcome(state.index, state.label, value=value)
        if on_outcome is not None:
            on_outcome(outcome)
        if strict and not outcome.ok:
            _raise_outcome(outcome)
        outcomes.append(outcome)
    return outcomes


# ---------------------------------------------------------------------------
# Worker processes: the one spawn/kill/reap core the pool and the service's
# worker fleet share.
# ---------------------------------------------------------------------------


def worker_context():
    """The multiprocessing context every worker process is started from.

    Fork is the fast path and inherits loaded modules; fall back to the
    platform default where fork is unavailable (e.g. Windows).
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def spawn_worker(
    context,
    target: Callable[..., None],
    worker_id: int,
    generation: int,
    *args: Any,
    name: str,
):
    """Start ``target(worker_id, generation, task_queue, *args)``.

    Each child gets a fresh task queue of its own, so putting one worker
    down never strands another worker's work.  Returns ``(process,
    task_queue)``.  Not daemonic, since a cell's intra-run pool starts
    processes inside a worker; the owner reaps its workers explicitly.
    """
    task_queue = context.Queue()
    process = context.Process(
        target=target,
        args=(worker_id, generation, task_queue, *args),
        name=name,
        daemon=False,
    )
    process.start()
    return process, task_queue


def kill_worker(process) -> None:
    """SIGKILL a worker, falling back to terminate where kill fails."""
    try:
        process.kill()
    except Exception:
        try:
            process.terminate()
        except Exception:
            pass


def reap_worker(process, *, kill: bool = False, grace: float = 1.0) -> int | None:
    """Collect a worker process and return its exit code.

    With ``kill`` the worker is put down first; a worker still alive
    after ``grace`` seconds is killed too, so a reaped worker is never
    left running.
    """
    if kill:
        kill_worker(process)
    process.join(timeout=grace)
    if process.is_alive():
        kill_worker(process)
        process.join(timeout=1.0)
    return process.exitcode


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can run picklable tasks over items, in order."""

    jobs: int

    def map_tasks(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> list[Any]:
        """Apply ``fn`` to every item; results in item order."""
        ...

    def run_tasks(
        self, fn: Callable[[Any], Any], items: Iterable[Any], **options: Any
    ) -> list[TaskOutcome]:
        """Run every item under a :class:`FaultPolicy` (keywords
        ``policy``, ``labels``, ``fault_plan``, ``strict``,
        ``on_outcome``); one :class:`TaskOutcome` per item, in order."""
        ...

    def close(self) -> None:
        """Release whatever the backend holds between calls."""
        ...


class SerialBackend:
    """In-process execution: the reference the pool must reproduce."""

    jobs = 1

    def map_tasks(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> list[Any]:
        return [fn(item) for item in items]

    def run_tasks(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        policy: FaultPolicy | None = None,
        labels: Sequence[str] | None = None,
        fault_plan: FaultPlan | None = None,
        strict: bool = False,
        on_outcome: Callable[[TaskOutcome], None] | None = None,
    ) -> list[TaskOutcome]:
        """Fault-tolerant in-order execution; see :class:`FaultPolicy`.

        ``on_outcome`` is invoked once per task, as its outcome is
        decided — the hook the serving layer uses to complete jobs at
        task granularity instead of batch granularity.
        """
        return _run_tasks_inline(
            fn, list(items), policy or FAIL_FAST, labels, fault_plan, strict,
            on_outcome,
        )

    def close(self) -> None:
        """Nothing to release; present for backend-lifecycle symmetry."""

    def __repr__(self) -> str:
        return "SerialBackend()"


def _pool_worker(
    worker_id: int, generation: int, task_queue, results, owner: int
) -> None:
    """Pool worker: run one fault-wrapped task at a time until ``None``.

    A task is ``((fn, item, fault, attempt, True), label, capture)``; the
    inner tuple is exactly what :func:`~repro.sim.faults.run_with_fault`
    expects.  With ``capture`` set (the parent's tracer was on at
    dispatch) the task runs under an isolated tracer whose snapshot
    ships back with the value.  Replies go on this worker's own pipe,
    whose ``send`` pickles here, so a value that cannot cross the process
    boundary comes back as the task's own exception instead of vanishing.
    A worker whose ``owner`` process died without reaping it exits once
    idle.
    """
    while True:
        try:
            task = task_queue.get(timeout=1.0)
        except queue.Empty:
            if os.getppid() != owner:
                return
            continue
        if task is None:
            return
        inner, label, capture = task
        try:
            if capture:
                with capture_tracer() as tracer:
                    with tracer.span(
                        "task", label=label, attempt=inner[3], worker=os.getpid()
                    ):
                        value = run_with_fault(inner)
                    reply = (True, (value, tracer.snapshot()))
            else:
                reply = (True, (run_with_fault(inner), None))
        except Exception as exc:
            reply = (False, exc)
        try:
            results.send(reply)
        except Exception as exc:
            results.send((False, exc))


class _Seat:
    """One pool worker process and the one task it holds."""

    __slots__ = (
        "worker_id", "generation", "process", "tasks", "results", "state", "deadline"
    )

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.generation = 0
        self.process = None
        self.tasks = None
        self.results = None
        self.state: _TaskState | None = None
        self.deadline: float | None = None

    def dispatch(
        self, context, fn: Callable[[Any], Any], state: _TaskState,
        timeout: float | None, capture: bool,
    ) -> None:
        if self.process is not None and not self.process.is_alive():
            self.put_down(kill=True)  # died idle: charge it to no task
        if self.process is None:
            self.generation += 1
            self.results, writer = context.Pipe(duplex=False)
            self.process, self.tasks = spawn_worker(
                context, _pool_worker, self.worker_id, self.generation, writer,
                os.getpid(), name=f"pka-pool-{self.worker_id}",
            )
            writer.close()
        self.state = state
        self.deadline = None if timeout is None else time.monotonic() + timeout
        self.tasks.put(
            ((fn, state.item, state.fault, state.attempt, True), state.label, capture)
        )

    def poll(self, ready: set, now: float) -> tuple[str, Any] | None:
        """What became of the held task: None while it runs inside its
        deadline, else ``("ok", (value, obs))``, ``("error", exc)``,
        ``("crash", None)`` or ``("timeout", None)``.  A crashed or
        overdue worker is put down here."""
        if self.results in ready:
            try:
                ok, payload = self.results.recv()
            except (EOFError, OSError):
                status, payload = "crash", None  # died before replying
            except Exception as exc:  # the reply did not unpickle
                status, payload = "error", exc
            else:
                status = "ok" if ok else "error"
        elif self.process.sentinel in ready:
            status, payload = "crash", None
        elif self.deadline is not None and now >= self.deadline:
            status, payload = "timeout", None
        else:
            return None
        if status in ("crash", "timeout"):
            self.put_down(kill=True)
        return status, payload

    def put_down(self, *, kill: bool) -> None:
        """Collect this seat's worker; the next dispatch starts a fresh one."""
        if not kill:
            self.tasks.put(None)
        reap_worker(self.process, kill=kill)
        self.results.close()
        self.tasks.close()
        self.process = self.tasks = self.results = None


class ProcessPoolBackend:
    """Process-pool fan-out with a deterministic, order-preserving reduce.

    Results are gathered in item order regardless of completion order,
    so any reduction the caller performs over the returned list happens
    exactly as it would have serially.  If several tasks fail, the
    exception of the *earliest-submitted* failing task is raised — again
    independent of scheduling — and it carries the worker's original
    type and message.  Worker-process failures are re-raised as
    :mod:`repro.errors` types at this boundary: a dead worker surfaces as
    :class:`~repro.errors.WorkerCrashError` naming the task it held, a
    blown deadline as :class:`~repro.errors.TaskTimeoutError`.
    """

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ConfigurationError("jobs must be >= 1 (or None for auto)")
        self.jobs = jobs if jobs is not None else auto_worker_count()

    def close(self) -> None:
        """Nothing to release: workers live only inside ``run_tasks``."""

    def map_tasks(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> list[Any]:
        work = list(items)
        if len(work) <= 1 or self.jobs == 1:
            # Nothing to fan out; run inline (identical semantics, no
            # worker startup cost).
            return [fn(item) for item in work]
        results = []
        for outcome in self.run_tasks(fn, work, policy=FAIL_FAST):
            if not outcome.ok:
                _raise_outcome(outcome)
            results.append(outcome.value)
        return results

    def run_tasks(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        policy: FaultPolicy | None = None,
        labels: Sequence[str] | None = None,
        fault_plan: FaultPlan | None = None,
        strict: bool = False,
        on_outcome: Callable[[TaskOutcome], None] | None = None,
    ) -> list[TaskOutcome]:
        """Fault-tolerant fan-out: retries, timeouts, crash attribution.

        Starts ``min(jobs, len(items))`` workers and keeps at most one
        task on each.  A worker that dies is charged to the task it held
        (a crash); a task still running ``timeout_seconds`` after its
        dispatch has its worker killed and is charged a timeout; a dead
        or killed worker is replaced at its seat's next dispatch.  A
        charged task is queued again after its deterministic backoff
        until the policy quarantines it; every other task runs once.
        ``on_outcome`` sees each task's outcome as soon as it is decided.
        Every worker is collected before this returns or raises.
        """
        policy = policy or FAIL_FAST
        work = list(items)
        if len(work) <= 1 or self.jobs == 1:
            return _run_tasks_inline(
                fn, work, policy, labels, fault_plan, strict, on_outcome
            )
        states = _task_states(work, labels, policy, fault_plan)
        outcomes: list[TaskOutcome | None] = [None] * len(states)
        pending = deque(states)
        seats = [_Seat(worker_id) for worker_id in range(min(self.jobs, len(work)))]
        context = worker_context()
        capture = get_tracer().enabled
        unresolved = len(states)
        try:
            while unresolved:
                for seat in seats:
                    if seat.state is None and pending:
                        seat.dispatch(
                            context, fn, pending.popleft(),
                            policy.timeout_seconds, capture,
                        )
                busy = [seat for seat in seats if seat.state is not None]
                deadlines = [s.deadline for s in busy if s.deadline is not None]
                timeout = (
                    max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
                )
                handles = [seat.results for seat in busy]
                handles += [seat.process.sentinel for seat in busy]
                ready = set(wait(handles, timeout))
                now = time.monotonic()
                for seat in busy:
                    event = seat.poll(ready, now)
                    if event is None:
                        continue
                    status, payload = event
                    state, seat.state = seat.state, None
                    if status == "ok":
                        value, shipped = payload
                        if shipped is not None:
                            get_tracer().merge(shipped)
                        outcome = TaskOutcome(
                            state.index, state.label, value=value, obs=shipped
                        )
                    else:
                        kind = _classify(payload) if status == "error" else status
                        outcome = _settle(state, policy, kind, payload)
                        if outcome is None:
                            pending.append(state)  # retry on a free worker
                            continue
                    outcomes[state.index] = outcome
                    unresolved -= 1
                    if on_outcome is not None:
                        on_outcome(outcome)
        finally:
            for seat in seats:
                if seat.process is not None:
                    seat.put_down(kill=seat.state is not None)
        if strict:
            for outcome in outcomes:
                if not outcome.ok:
                    _raise_outcome(outcome)
        return outcomes

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(jobs={self.jobs})"


def resolve_backend(
    spec: ExecutionBackend | str | int | None,
) -> ExecutionBackend:
    """Normalize a backend specification into a backend object.

    Accepts ``None``/""/"serial"/1 (serial), "auto"/0 (process pool with
    one worker per CPU), a positive integer worker count (as int or
    numeric string), or an object already implementing the backend
    protocol.
    """
    if spec is None:
        return SerialBackend()
    if isinstance(spec, (SerialBackend, ProcessPoolBackend)):
        return spec
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text in ("", "serial"):
            return SerialBackend()
        if text in ("auto", "process", "process-pool"):
            return ProcessPoolBackend()
        try:
            spec = int(text)
        except ValueError as exc:
            raise ConfigurationError(
                f"unknown backend spec {text!r}; use 'serial', 'auto' or a "
                "worker count"
            ) from exc
    if isinstance(spec, int):
        if spec < 0:
            raise ConfigurationError("worker count must be >= 0")
        if spec == 0:
            return ProcessPoolBackend()
        if spec == 1:
            return SerialBackend()
        return ProcessPoolBackend(spec)
    if isinstance(spec, ExecutionBackend):
        return spec
    raise ConfigurationError(f"cannot interpret backend spec {spec!r}")


def chunked(items: Sequence[Any], n_chunks: int) -> list[list[Any]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, even chunks."""
    if n_chunks < 1:
        raise ConfigurationError("n_chunks must be >= 1")
    items = list(items)
    if not items:
        return []
    n_chunks = min(n_chunks, len(items))
    base, extra = divmod(len(items), n_chunks)
    chunks: list[list[Any]] = []
    start = 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


# ---------------------------------------------------------------------------
# Worker tasks.  Module-level so they pickle by reference; each keeps a
# per-process cache so one worker builds its executor once.
# ---------------------------------------------------------------------------

_WORKER_SIMULATORS: dict[tuple, Any] = {}
_WORKER_SILICON: dict[Any, Any] = {}

#: Batches submitted per worker — small enough to amortize dispatch,
#: large enough to balance uneven kernels across the pool.
CHUNKS_PER_WORKER = 4


def simulate_batch_task(payload: tuple) -> list:
    """Worker: fully simulate a batch of launches on one simulator.

    ``payload`` is ``(gpu, model_error, window_cycles, launches)``; the
    simulator is built once per (config, process) and reused.
    """
    gpu, model_error, window_cycles, launches = payload
    key = (gpu, model_error, window_cycles)
    simulator = _WORKER_SIMULATORS.get(key)
    if simulator is None:
        from repro.sim.simulator import Simulator

        simulator = Simulator(
            gpu, model_error=model_error, window_cycles=window_cycles
        )
        _WORKER_SIMULATORS[key] = simulator
    return [simulator.run_kernel(launch) for launch in launches]


def block_shard_task(payload: tuple) -> list:
    """Worker: per-slot partial finish times for one shard of a kernel.

    ``payload`` is ``(launch, perf, bias, slots, ranges)`` where
    ``ranges`` are contiguous wave-aligned fold chunks of the grid (see
    :func:`repro.sim.engine.fold_chunk_ranges`).  Returns the individual
    chunk partial-sum vectors, *not* their merge: the parent folds all
    chunks in global order so the accumulation order — and therefore the
    result, bitwise — is independent of the shard boundaries.
    """
    launch, perf, bias, slots, ranges = payload
    from repro.sim.engine import compute_shard_partials

    blocks = ranges[-1][1] - ranges[0][0]
    with obs_span(
        "sim.intra.shard",
        kernel=launch.spec.name,
        chunks=len(ranges),
        blocks=blocks,
    ):
        return compute_shard_partials(launch, perf, bias, slots, list(ranges))


def silicon_batch_task(payload: tuple) -> list[tuple]:
    """Worker: price a batch of launches on one silicon model.

    Returns ``(signature, grid_blocks, cycles, dram_bytes_per_block)``
    tuples — exactly the entries the parent's memo tables hold.
    """
    gpu, launches = payload
    executor = _WORKER_SILICON.get(gpu)
    if executor is None:
        from repro.sim.silicon import SiliconExecutor

        executor = SiliconExecutor(gpu)
        _WORKER_SILICON[gpu] = executor
    rows = []
    for launch in launches:
        rows.append(
            (
                launch.spec.signature(),
                launch.grid_blocks,
                executor.kernel_cycles(launch),
                executor.kernel_dram_bytes_per_block(launch),
            )
        )
    return rows
