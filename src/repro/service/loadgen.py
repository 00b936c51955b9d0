"""Seeded load generator for the evaluation service.

Drives a :class:`~repro.service.client.ServiceClient` with a
**deterministic** request plan — ``random.Random(seed)`` chooses cells
and duplicate positions, so a failing run replays exactly — in either
of two classic load shapes:

* **open loop**: submissions arrive on a Poisson-ish schedule at
  ``rate`` jobs/second regardless of how fast the service responds
  (the honest way to find a saturation point);
* **closed loop**: ``concurrency`` workers each submit, wait for the
  terminal state, then submit the next (throughput self-limits to
  service speed).

Open-loop arrivals additionally follow a **traffic shape** — a
deterministic multiplier over the base ``rate``:

* ``constant`` — steady arrivals (the default);
* ``burst:<factor>@<t>`` — rate jumps to ``factor``× at ``t`` seconds
  (the autoscaler's scale-up trigger in CI);
* ``ramp:<r>`` — rate grows linearly, ``1 + r*t`` multiplier;
* ``diurnal:<period>`` — sinusoidal ±50% swing with the given period.

Shapes change *when* requests arrive, never *which* requests: the plan
is identical across shapes for a given seed, so the reconciliation
invariant holds under every shape.

``duplicate_ratio`` controls what fraction of submissions repeat an
earlier request *verbatim* — the knob that exercises single-flight
dedup and the warm-cache fast path.  An optional ``fault`` spec rides
on one submission to prove fault injection flows end-to-end through
the wire.

**Chaos schedules** (fleet mode): ``chaos=("kill-worker@0.5", ...)``
fires actions at seeded offsets from the start of the run.
``kill-worker`` SIGKILLs a random (seeded) live worker picked from the
server's ``/metricsz`` snapshot; ``kill-coordinator`` SIGKILLs the
coordinator itself (its pid is parsed from the service id).  Both
assume the loadgen shares a host with the service — exactly the CI
arrangement.  A custom ``chaos_driver`` can replace the kill mechanics
for tests.

The resulting :class:`LoadReport` carries client-observed counts and
latency percentiles plus the server's final ``/metricsz`` snapshot;
:meth:`LoadReport.reconcile` checks the two sides of the conversation
against each other, with shed (429/503) and quarantined jobs accounted
so ``jobs_submitted - jobs_shed == accepted - deduplicated`` balances
even under chaos.
"""

from __future__ import annotations

import math
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import (
    DeadlineUnattainableError,
    QueueFullError,
    ServiceError,
    WorkersUnavailableError,
)
from repro.service.client import ServiceClient
from repro.service.jobs import JobRequest, parse_job_fault
from repro.workloads.spec import iter_workloads

__all__ = [
    "CHAOS_ACTIONS",
    "LoadConfig",
    "LoadReport",
    "arrival_offsets",
    "build_plan",
    "parse_chaos",
    "parse_shape",
    "run_load",
]

#: How long the report's final scrape waits for chaos kills to be counted.
_CHAOS_SETTLE_SECONDS = 10.0

TERMINAL = ("done", "failed", "cancelled")

CHAOS_ACTIONS = ("kill-worker", "kill-coordinator")


def _percentile(sorted_values: list[float], percentile: float) -> float | None:
    """Nearest-rank percentile (matches repro.obs.span_percentiles)."""
    if not sorted_values:
        return None
    rank = int(-(-percentile * len(sorted_values) // 100)) - 1
    rank = max(0, min(len(sorted_values) - 1, rank))
    return sorted_values[rank]


def parse_chaos(specs: tuple[str, ...]) -> list[tuple[str, float]]:
    """Parse ``action@seconds`` chaos specs, sorted by fire time."""
    events: list[tuple[str, float]] = []
    for spec in specs:
        action, sep, at_text = spec.strip().partition("@")
        if not sep:
            raise ValueError(
                f"bad chaos spec {spec!r}; expected action@seconds"
            )
        action = action.strip().lower()
        if action not in CHAOS_ACTIONS:
            raise ValueError(
                f"unknown chaos action {action!r}; expected one of "
                f"{CHAOS_ACTIONS}"
            )
        try:
            at = float(at_text)
        except ValueError as exc:
            raise ValueError(f"bad chaos offset in {spec!r}") from exc
        if at < 0:
            raise ValueError("chaos offsets must be >= 0 seconds")
        events.append((action, at))
    return sorted(events, key=lambda event: event[1])


def parse_shape(spec: str) -> Callable[[float], float]:
    """Parse a traffic-shape spec into a rate multiplier ``m(t)``.

    ``t`` is seconds from the start of the run; the instantaneous
    submission rate is ``rate * m(t)``.  Raises :class:`ValueError` on
    malformed specs with the expected grammar in the message.
    """
    text = spec.strip().lower()
    if text == "constant":
        return lambda t: 1.0
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(
            f"unknown traffic shape {spec!r}; expected constant, "
            "burst:<factor>@<t>, ramp:<r>, or diurnal:<period>"
        )
    if kind == "burst":
        factor_text, at_sep, at_text = rest.partition("@")
        if not at_sep:
            raise ValueError(
                f"bad burst spec {spec!r}; expected burst:<factor>@<seconds>"
            )
        try:
            factor = float(factor_text)
            at = float(at_text)
        except ValueError as exc:
            raise ValueError(f"bad burst numbers in {spec!r}") from exc
        if factor < 1.0:
            raise ValueError("burst factor must be >= 1")
        if at < 0:
            raise ValueError("burst offset must be >= 0 seconds")
        return lambda t: factor if t >= at else 1.0
    if kind == "ramp":
        try:
            slope = float(rest)
        except ValueError as exc:
            raise ValueError(f"bad ramp slope in {spec!r}") from exc
        if slope < 0:
            raise ValueError("ramp slope must be >= 0")
        return lambda t: 1.0 + slope * t
    if kind == "diurnal":
        try:
            period = float(rest)
        except ValueError as exc:
            raise ValueError(f"bad diurnal period in {spec!r}") from exc
        if not period > 0:
            raise ValueError("diurnal period must be > 0 seconds")
        return lambda t: 1.0 + 0.5 * math.sin(2.0 * math.pi * t / period)
    raise ValueError(
        f"unknown traffic shape {spec!r}; expected constant, "
        "burst:<factor>@<t>, ramp:<r>, or diurnal:<period>"
    )


@dataclass(frozen=True)
class LoadConfig:
    """One load run, fully determined by its fields (seed included)."""

    jobs: int = 20
    mode: str = "open"  # "open" | "closed"
    rate: float = 50.0  # open loop: submissions per second
    concurrency: int = 4  # closed loop: worker count
    duplicate_ratio: float = 0.0
    seed: int = 20260807
    workloads: tuple[str, ...] | None = None
    methods: tuple[str, ...] = ("silicon",)
    gpus: tuple[str | None, ...] = (None,)
    fault: str | None = None  # attached to exactly one submission
    timeout: float = 120.0
    poll: float = 0.02
    chaos: tuple[str, ...] = ()  # "kill-worker@0.5", "kill-coordinator@2"
    #: Open-loop arrival pattern; see :func:`parse_shape`.
    shape: str = "constant"
    #: Per-job admission deadline (seconds) riding on every submission;
    #: None submits without one (the server default then applies).
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.mode not in ("open", "closed"):
            raise ValueError("mode must be 'open' or 'closed'")
        if not 0.0 <= self.duplicate_ratio <= 1.0:
            raise ValueError("duplicate_ratio must be within [0, 1]")
        if self.fault is not None:
            parse_job_fault(self.fault)
        parse_chaos(self.chaos)  # validate eagerly
        parse_shape(self.shape)
        if self.mode == "closed" and self.shape.strip().lower() != "constant":
            raise ValueError(
                "traffic shapes apply to open-loop mode only (closed-loop "
                "arrival times are set by service speed, not a schedule)"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError("deadline_s must be > 0 seconds")


@dataclass
class LoadReport:
    """What happened, from the client's side of the wire.

    ``shed`` counts submissions the server refused under overload
    protection (429 queue-full, 503 workers-down/draining) — distinct
    from ``rejected``, which counts every other submission error.
    ``quarantined`` counts jobs that terminated ``failed`` with the
    poison-quarantine error kind.
    """

    config: LoadConfig
    submitted: int = 0
    accepted: int = 0
    deduplicated: int = 0
    rejected: int = 0
    shed: int = 0
    completed: int = 0
    #: Completed jobs the server answered by semantic-cache transfer
    #: (``source == "transfer"``) rather than an exact-cache hit or a
    #: fresh simulation.
    transferred: int = 0
    #: Completed jobs the prediction tiers answered at submit time
    #: (``source == "predicted"``) — never queued, never simulated.
    predicted: int = 0
    failed: int = 0
    quarantined: int = 0
    cancelled: int = 0
    errors: int = 0
    distinct_jobs: int = 0
    wall_seconds: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    #: Retry-After advice carried by each shed (429/503) response, in
    #: submission order — lets tests assert the advice is backlog-derived.
    shed_retry_afters: list[float] = field(default_factory=list)
    chaos_events: list[dict] = field(default_factory=list)
    server_metrics: dict | None = None

    @property
    def throughput(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    @property
    def clean(self) -> bool:
        """No job lost, shed, or errored, client-side."""
        return (
            self.rejected == 0
            and self.shed == 0
            and self.errors == 0
            and self.failed == 0
            and self.completed == self.accepted
        )

    def reconcile(self) -> dict:
        """Client-vs-server accounting, chaos-aware.

        The invariant: every *fresh* accepted submission (accepted minus
        dedup hits) corresponds to exactly one server-side registered
        job that was not shed — ``jobs_submitted - jobs_shed ==
        accepted - deduplicated``.  When the server's metrics are
        unavailable (coordinator killed by chaos), ``balanced`` is
        ``None`` rather than a false alarm.
        """
        counters = (self.server_metrics or {}).get("counters", {})
        fresh_client = self.accepted - self.deduplicated
        document = {
            "client_fresh_accepted": fresh_client,
            "client_shed": self.shed,
            "client_quarantined": self.quarantined,
            "server_available": self.server_metrics is not None,
        }
        if self.server_metrics is None:
            document["balanced"] = None
            return document
        submitted_server = counters.get("service.jobs_submitted", 0)
        shed_server = counters.get("service.jobs_shed", 0)
        document["server_jobs_submitted"] = submitted_server
        document["server_jobs_shed"] = shed_server
        document["server_dedup_hits"] = counters.get("service.dedup_hits", 0)
        document["server_quarantined"] = counters.get(
            "service.jobs_quarantined", 0
        )
        document["balanced"] = (
            submitted_server - shed_server == fresh_client
        )
        return document

    def to_document(self) -> dict:
        latencies = sorted(self.latencies_ms)
        return {
            "config": {
                "jobs": self.config.jobs,
                "mode": self.config.mode,
                "rate": self.config.rate,
                "concurrency": self.config.concurrency,
                "duplicate_ratio": self.config.duplicate_ratio,
                "seed": self.config.seed,
                "methods": list(self.config.methods),
                "fault": self.config.fault,
                "chaos": list(self.config.chaos),
                "shape": self.config.shape,
                "deadline_s": self.config.deadline_s,
            },
            "submitted": self.submitted,
            "accepted": self.accepted,
            "deduplicated": self.deduplicated,
            "rejected": self.rejected,
            "shed": self.shed,
            "completed": self.completed,
            "transferred": self.transferred,
            "predicted": self.predicted,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "cancelled": self.cancelled,
            "errors": self.errors,
            "distinct_jobs": self.distinct_jobs,
            "wall_seconds": self.wall_seconds,
            "throughput_jobs_per_s": self.throughput,
            "latency_ms": {
                "count": len(latencies),
                "p50": _percentile(latencies, 50.0),
                "p95": _percentile(latencies, 95.0),
                "max": latencies[-1] if latencies else None,
            },
            "shed_retry_afters": {
                "count": len(self.shed_retry_afters),
                "min": min(self.shed_retry_afters, default=None),
                "max": max(self.shed_retry_afters, default=None),
            },
            "chaos_events": self.chaos_events,
            "reconciliation": self.reconcile(),
            "server_metrics": self.server_metrics,
        }


def build_plan(config: LoadConfig) -> list[JobRequest]:
    """The deterministic submission plan: ``jobs`` requests in order.

    A duplicate slot repeats an earlier request verbatim (same client,
    same fault) so its job id — and therefore the dedup key — matches.
    The fault spec, when present, rides on the first *fresh* request and
    every duplicate of it.
    """
    rng = random.Random(config.seed)
    if config.workloads is not None:
        names = list(config.workloads)
    else:
        names = [spec.name for spec in iter_workloads()]
    if not names:
        raise ValueError("no workloads available to generate load against")
    plan: list[JobRequest] = []
    fresh: list[JobRequest] = []
    for index in range(config.jobs):
        if fresh and rng.random() < config.duplicate_ratio:
            plan.append(rng.choice(fresh))
            continue
        request = JobRequest(
            workload=rng.choice(names),
            method=rng.choice(list(config.methods)),
            gpu=rng.choice(list(config.gpus)),
            client=f"loadgen-{index % max(1, config.concurrency)}",
            fault=config.fault if not fresh else None,
            deadline_s=config.deadline_s,
        )
        plan.append(request)
        fresh.append(request)
    return plan


def arrival_offsets(config: LoadConfig) -> list[float]:
    """Deterministic open-loop submission offsets (seconds from start).

    Integrates the shape's rate multiplier step by step: the gap after
    an arrival at ``t`` is ``1 / (rate * m(t))``, so a ``burst:10@1``
    shape emits 10× denser arrivals from one second in.  Pure function
    of the config — two runs with the same config submit at the same
    offsets.
    """
    if config.rate <= 0:
        return [0.0] * config.jobs
    multiplier = parse_shape(config.shape)
    offsets: list[float] = []
    t = 0.0
    for _ in range(config.jobs):
        offsets.append(t)
        t += 1.0 / (config.rate * max(1e-9, multiplier(t)))
    return offsets


def default_chaos_driver(
    client: ServiceClient, rng: random.Random
) -> Callable[[str], dict]:
    """SIGKILL-based chaos on a co-hosted service (the CI arrangement)."""

    def fire(action: str) -> dict:
        if action == "kill-worker":
            metrics = client.metrics()
            slots = (metrics.get("workers") or {}).get("slots", [])
            alive = [s for s in slots if s.get("alive") and s.get("pid")]
            if not alive:
                return {"action": action, "ok": False, "reason": "no live workers"}
            target = rng.choice(alive)
            os.kill(target["pid"], signal.SIGKILL)
            return {
                "action": action,
                "ok": True,
                "pid": target["pid"],
                "worker_id": target["worker_id"],
            }
        if action == "kill-coordinator":
            metrics = client.metrics()
            service_id = metrics.get("service_id", "")
            try:
                pid = int(service_id.split("-")[1])
            except (IndexError, ValueError):
                return {
                    "action": action,
                    "ok": False,
                    "reason": f"cannot parse pid from {service_id!r}",
                }
            os.kill(pid, signal.SIGKILL)
            return {"action": action, "ok": True, "pid": pid}
        return {"action": action, "ok": False, "reason": "unknown action"}

    return fire


def run_load(
    client: ServiceClient,
    config: LoadConfig,
    *,
    chaos_driver: Callable[[str], dict] | None = None,
) -> LoadReport:
    """Execute the plan against a live service and report."""
    plan = build_plan(config)
    report = LoadReport(config=config)
    report.distinct_jobs = len({id(request) for request in plan})
    lock = threading.Lock()
    job_ids: list[str] = []

    def submit_one(request: JobRequest) -> str | None:
        try:
            document = client.submit(request)
        except (
            DeadlineUnattainableError,
            QueueFullError,
            WorkersUnavailableError,
        ) as exc:
            with lock:
                report.shed += 1
                if exc.retry_after is not None:
                    report.shed_retry_afters.append(exc.retry_after)
            return None
        except ServiceError:
            with lock:
                report.rejected += 1
            return None
        with lock:
            report.accepted += 1
            if not document.get("created", True):
                report.deduplicated += 1
            job_ids.append(document["job_id"])
        return document["job_id"]

    def await_one(job_id: str) -> None:
        try:
            final = client.wait(job_id, timeout=config.timeout, poll=config.poll)
        except ServiceError:
            with lock:
                report.errors += 1
            return
        with lock:
            if final["state"] == "done":
                report.completed += 1
                if final.get("source") == "transfer":
                    report.transferred += 1
                elif final.get("source") == "predicted":
                    report.predicted += 1
            elif final["state"] == "failed":
                report.failed += 1
                if (final.get("error") or {}).get("kind") == "quarantined":
                    report.quarantined += 1
            else:
                report.cancelled += 1
            if final.get("latency_ms") is not None:
                report.latencies_ms.append(final["latency_ms"])

    started = time.monotonic()

    chaos_thread = None
    events = parse_chaos(config.chaos)
    if events:
        driver = chaos_driver or default_chaos_driver(
            client, random.Random(config.seed ^ 0xC4A05)
        )

        def chaos_loop() -> None:
            for action, at in events:
                delay = started + at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                try:
                    outcome = driver(action)
                except Exception as exc:  # chaos must not kill the loadgen
                    outcome = {
                        "action": action,
                        "ok": False,
                        "reason": f"{type(exc).__name__}: {exc}",
                    }
                with lock:
                    report.chaos_events.append({"at_s": at, **outcome})

        chaos_thread = threading.Thread(
            target=chaos_loop, name="loadgen-chaos", daemon=True
        )
        chaos_thread.start()

    if config.mode == "open":
        offsets = arrival_offsets(config)
        for request, offset in zip(plan, offsets, strict=True):
            target = started + offset
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            submit_one(request)
            report.submitted += 1
        # All submissions are in flight; wait on each outcome.
        waiters = [
            threading.Thread(target=await_one, args=(job_id,), daemon=True)
            for job_id in list(job_ids)
        ]
        for thread in waiters:
            thread.start()
        for thread in waiters:
            thread.join(timeout=config.timeout)
    else:  # closed loop
        cursor = {"next": 0}

        def worker() -> None:
            while True:
                with lock:
                    index = cursor["next"]
                    if index >= len(plan):
                        return
                    cursor["next"] = index + 1
                    report.submitted += 1
                job_id = submit_one(plan[index])
                if job_id is not None:
                    await_one(job_id)

        workers = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(max(1, config.concurrency))
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=config.timeout)
    if chaos_thread is not None:
        chaos_thread.join(timeout=config.timeout)
    report.wall_seconds = time.monotonic() - started
    kills = sum(
        1
        for event in report.chaos_events
        if event.get("action") == "kill-worker" and event.get("ok")
    )
    report.server_metrics = _settled_metrics(client, kills)
    return report


def _settled_metrics(client: ServiceClient, kills: int) -> dict | None:
    """The report's ``/metricsz`` scrape, once the fleet counts ``kills``.

    The supervisor notices a SIGKILLed worker on its next monitor poll,
    so a kill fired just before the load ended can still be missing from
    an immediate scrape.  Polls for at most :data:`_CHAOS_SETTLE_SECONDS`,
    and not at all without a fleet (nothing there counts deaths); None
    when the service cannot be scraped (e.g. its coordinator was killed).
    """
    deadline = time.monotonic() + _CHAOS_SETTLE_SECONDS
    while True:
        try:
            metrics = client.metrics()
        except ServiceError:
            return None
        deaths = metrics.get("counters", {}).get("fleet.worker_deaths", 0)
        if (
            deaths >= kills
            or "workers" not in metrics
            or time.monotonic() >= deadline
        ):
            return metrics
        time.sleep(0.05)
