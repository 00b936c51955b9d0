"""Typed jobs: the unit of work the evaluation service schedules.

A **job** is one evaluation cell — ``(workload, method, gpu)`` — plus
serving metadata (client identity, priority, an optional fault-injection
passthrough for chaos testing).  Its identity is **deterministic**:
the job id derives from the cell's :func:`RunKey
<repro.analysis.persistence.RunKey>`-based content digest (the same
address the :class:`~repro.analysis.persistence.RunCache` stores the
result under), so two clients submitting the same request necessarily
collide on one job — which is exactly how the scheduler's single-flight
dedup works.

Lifecycle::

    queued -> running -> done | failed
       \\-> cancelled            (while queued, or at drain timeout)

``done``, ``failed`` and ``cancelled`` are terminal; a graceful drain
guarantees every accepted job reaches one of them.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.analysis.harness import CellFailure, CellOutcome, EvaluationHarness
from repro.errors import InvalidJobRequestError
from repro.obs import now_us
from repro.sim.faults import FAULT_KINDS, PERSISTENT, FaultPlan, InjectedFault
from repro.sim.parallel import FaultPolicy

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobRecord",
    "JobRequest",
    "job_id_for",
    "parse_job_fault",
    "run_job_cell",
]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")


def parse_job_fault(text: str) -> tuple[str, int]:
    """Parse a job-level fault spec: ``kind`` or ``kindxN`` or ``kindxP``.

    The same vocabulary as the CLI's ``--inject-faults`` plans, minus the
    task index (a job runs as the one task of its dispatch).
    ``exception`` poisons the first attempt only (transient, survivable
    by retry); ``exceptionx99`` or ``exceptionxP`` is persistent poison
    the job cannot survive.
    """
    bare = text.strip().lower()
    if bare in FAULT_KINDS:
        return bare, 1
    # "exception" contains an 'x', so the attempts suffix must split on
    # the *last* 'x': "exceptionx99" -> ("exception", "99").
    kind, sep, attempts_text = bare.rpartition("x")
    if not sep or kind not in FAULT_KINDS:
        raise InvalidJobRequestError(
            f"unknown fault spec {text!r}; expected kind[xN] with kind "
            f"in {FAULT_KINDS}"
        )
    attempts_text = attempts_text.strip()
    if attempts_text.upper() == "P":
        return kind, PERSISTENT
    try:
        attempts = int(attempts_text)
    except ValueError as exc:
        raise InvalidJobRequestError(
            f"bad fault attempts {attempts_text!r} in {text!r}"
        ) from exc
    if attempts < 1:
        raise InvalidJobRequestError("fault attempts must be >= 1")
    return kind, attempts


def run_job_cell(
    harness: EvaluationHarness,
    cell: tuple,
    fault: str | None,
    *,
    spent: int = 0,
    fault_policy: FaultPolicy | None = None,
    crash_in_process: bool = False,
) -> tuple[CellOutcome | CellFailure, int]:
    """Run one job's cell: its outcome or failure, and the attempts taken.

    Both dispatch modes run a job through here.  ``fault`` (a
    :func:`parse_job_fault` spec) poisons the job's first attempts, less
    the ``spent`` ones earlier dispatches made.  ``fault_policy``
    (default: the harness's) decides the retries, and an injected hang
    sleeps for the harness policy's hang time, so it outlasts the job's
    deadline.  ``crash_in_process`` makes an injected crash kill this
    process, as a fleet worker's must.  No sweep manifest is written per
    job; the service's drain manifest accounts for every job.
    """
    plan = None
    if fault is not None:
        kind, attempts = parse_job_fault(fault)
        if attempts > spent:
            hang = harness.fault_policy.hang_seconds()
            plan = FaultPlan(faults=(InjectedFault(0, kind, attempts - spent, hang),))
    decided = []
    [result] = harness.evaluate_cells(
        [cell],
        strict=False,
        fault_policy=fault_policy,
        fault_plan=plan,
        crash_in_process=crash_in_process,
        progress=decided.append,
        manifest=False,
    )
    if isinstance(result, CellFailure):
        return result, result.attempts
    [outcome] = decided
    return outcome.value, outcome.attempts


@dataclass(frozen=True)
class JobRequest:
    """What a client asks for: one cell, plus serving metadata.

    ``priority`` orders dispatch (lower runs first); ``client``
    participates in the queue's per-client fairness; ``fault`` is the
    chaos-testing passthrough (see :func:`parse_job_fault`) that
    :func:`run_job_cell` turns into a :class:`~repro.sim.faults.FaultPlan`
    for the job's one cell.
    """

    workload: str
    method: str
    gpu: str | None = None
    client: str = "anonymous"
    priority: int = 1
    fault: str | None = None
    #: Admission deadline in seconds: the longest queue wait this client
    #: will tolerate.  ``None`` defers to the server's default (which may
    #: itself be None = no deadline-aware admission).  Does not change
    #: job identity — two clients with different deadlines still dedup
    #: onto one computation.
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.fault is not None:
            parse_job_fault(self.fault)  # validate eagerly
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise InvalidJobRequestError("'deadline_s' must be > 0 seconds")

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "JobRequest":
        """Build a request from a JSON document, with typed complaints."""
        if not isinstance(document, Mapping):
            raise InvalidJobRequestError("job request must be a JSON object")
        unknown = set(document) - {
            "workload", "method", "gpu", "client", "priority", "fault",
            "deadline_s",
        }
        if unknown:
            raise InvalidJobRequestError(
                f"unknown job request field(s): {sorted(unknown)}"
            )
        workload = document.get("workload")
        method = document.get("method")
        if not isinstance(workload, str) or not workload:
            raise InvalidJobRequestError("'workload' must be a non-empty string")
        if not isinstance(method, str) or not method:
            raise InvalidJobRequestError("'method' must be a non-empty string")
        gpu = document.get("gpu")
        if gpu is not None and not isinstance(gpu, str):
            raise InvalidJobRequestError("'gpu' must be a string or null")
        client = document.get("client", "anonymous")
        if not isinstance(client, str) or not client:
            raise InvalidJobRequestError("'client' must be a non-empty string")
        priority = document.get("priority", 1)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise InvalidJobRequestError("'priority' must be an integer")
        fault = document.get("fault")
        if fault is not None and not isinstance(fault, str):
            raise InvalidJobRequestError("'fault' must be a string or null")
        deadline = document.get("deadline_s")
        if deadline is not None:
            if isinstance(deadline, bool) or not isinstance(
                deadline, (int, float)
            ):
                raise InvalidJobRequestError(
                    "'deadline_s' must be a number or null"
                )
            deadline = float(deadline)
        return cls(
            workload=workload,
            method=method,
            gpu=gpu,
            client=client,
            priority=priority,
            fault=fault,
            deadline_s=deadline,
        )

    def to_document(self) -> dict:
        return {
            "workload": self.workload,
            "method": self.method,
            "gpu": self.gpu,
            "client": self.client,
            "priority": self.priority,
            "fault": self.fault,
            "deadline_s": self.deadline_s,
        }


def job_id_for(cell_digest: str, fault: str | None = None) -> str:
    """Deterministic job id: the cell digest, salted by any fault spec.

    Derived from the cell's RunKey-based content digest so identical
    requests collide (single-flight dedup); a fault-carrying request
    never shares an id with its clean twin, otherwise a dedup or cache
    hit would silently skip the injection.
    """
    if fault is None:
        return f"j{cell_digest[:24]}"
    salt = hashlib.sha256(f"{cell_digest}:{fault}".encode("utf-8")).hexdigest()
    return f"j{salt[:24]}"


@dataclass
class JobRecord:
    """One job's full serving state, mutated only under the scheduler lock.

    ``digest`` is the cell's cache address; ``outcome`` is the answer
    with its provenance (a :class:`~repro.analysis.harness.CellOutcome`,
    None until done, serialized lazily by the server), from which
    ``source`` and ``result`` read; ``latency_ms`` is submit-to-terminal
    wall time, also recorded as a ``service.job`` span for the
    ``/metricsz`` percentiles.

    ``attempts`` is how many attempts a finished job took (``done`` or
    ``failed``), counting retries and redispatches.  A job answered at
    submit — from the digest cache or an approximate tier — keeps 0:
    it never ran.
    """

    job_id: str
    request: JobRequest
    digest: str
    state: str = "queued"
    created_at: float = field(default_factory=time.time)
    submitted_us: float = field(default_factory=now_us)
    attempts: int = 0
    error: dict | None = None
    latency_ms: float | None = None
    #: When the job left the queue for a worker (``begin()``); None for
    #: jobs answered straight from cache.  Queue wait = started - submitted.
    started_us: float | None = None
    #: Submit-to-dispatch wall time, recorded as a ``service.queue_wait``
    #: span for the ``/metricsz`` queue-age percentiles.
    queue_wait_ms: float | None = None
    dedup_hits: int = 0
    #: Times this job was re-dispatched after a failed attempt (a
    #: reported exception, a worker death or a deadline kill).  Each
    #: dispatch is one attempt of the harness's one
    #: :class:`~repro.sim.parallel.FaultPolicy` budget (``max_retries``);
    #: a job whose last attempt dies or is killed goes to poison
    #: quarantine (``failed`` with the evidence attached).
    redispatches: int = 0
    outcome: Any = None

    @property
    def source(self) -> str | None:
        """``cache``, ``computed``, ``transfer`` or ``predicted`` (a tier
        answered, at submit or at dispatch); None without an answer."""
        return None if self.outcome is None else self.outcome.source

    @property
    def result(self) -> Any:
        """The answer's value: AppRunResult / KernelSelection / None
        (also for a not-applicable cell)."""
        return None if self.outcome is None else self.outcome.value

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_document(self) -> dict:
        """JSON-ready view (without the result payload)."""
        return {
            "job_id": self.job_id,
            "request": self.request.to_document(),
            "digest": self.digest,
            "state": self.state,
            "created_at": self.created_at,
            "source": self.source,
            "attempts": self.attempts,
            "error": self.error,
            "latency_ms": self.latency_ms,
            "queue_wait_ms": self.queue_wait_ms,
            "dedup_hits": self.dedup_hits,
            "redispatches": self.redispatches,
        }
