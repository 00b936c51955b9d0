"""Stdlib HTTP facade over the scheduler: the PKA evaluation service.

JSON API (all bodies are ``application/json``):

========  =======================  ==============================================
Method    Path                     Meaning
========  =======================  ==============================================
POST      ``/v1/jobs``             Submit a job; 202 accepted (or 200 when dedup
                                   / cache completed it already)
GET       ``/v1/jobs/<id>``        Job record (state, latency, provenance)
GET       ``/v1/jobs/<id>/result`` Terminal job's result payload (409 earlier)
DELETE    ``/v1/jobs/<id>``        Cancel a queued job
GET       ``/healthz``             Liveness (always 200 while the process runs)
GET       ``/readyz``              Readiness (503 while draining)
GET       ``/metricsz``            Counters, queue depth, cache hit ratio,
                                   latency percentiles
========  =======================  ==============================================

Error mapping is type-driven: every :class:`~repro.errors.ServiceError`
subclass carries an HTTP status (400 invalid request, 404 unknown job,
409 not finished, 429 queue full, 503 draining or all workers down);
anything else is a 500 with the exception type in the body.  Shedding
responses (429/503) carry a ``Retry-After`` header with the server's
backoff advice.

**Fleet mode** (``workers >= 1``) attaches a
:class:`~repro.service.supervisor.WorkerSupervisor` (N supervised
worker processes execute jobs) and, when a journal path is configured,
a :class:`~repro.service.journal.JobJournal` — the service then
recovers accepted jobs across coordinator restarts.  ``/readyz``
reports ``degraded`` (503) while every worker is down; ``/metricsz``
gains ``workers`` and ``journal`` sections.

**Elastic fleet** (an :class:`~repro.service.autoscaler.
AutoscalerConfig` passed as ``autoscale``) additionally runs the
SLO-driven :class:`~repro.service.autoscaler.Autoscaler` control loop,
scaling the pool between ``min_workers`` and ``max_workers``;
``/readyz`` gains the ``brownout`` state (200, but deadline-aware
admission is shedding) and ``/metricsz`` the ``autoscaler`` and
``queue_age`` sections.

Built on :class:`http.server.ThreadingHTTPServer` — dependency-free by
design, like the rest of the repo.  Request handling is thin: parse,
call the scheduler, serialize; all serving policy lives in
:mod:`repro.service.scheduler`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.analysis.harness import EvaluationHarness
from repro.analysis.semcache import SemanticCache
from repro.predict import PredictTiers
from repro.errors import (
    DeadlineUnattainableError,
    InvalidJobRequestError,
    JobNotFinishedError,
    JobNotFoundError,
    QueueFullError,
    ServiceDrainingError,
    ServiceError,
    WorkersUnavailableError,
)
from repro.obs import enable as obs_enable, get_tracer
from repro.service.autoscaler import Autoscaler, AutoscalerConfig
from repro.service.jobs import JobRecord, JobRequest
from repro.service.journal import JobJournal
from repro.service.scheduler import Scheduler
from repro.service.supervisor import WorkerSupervisor

__all__ = ["PKAService", "STATUS_FOR"]

#: HTTP status per typed service error (matched in subclass order).
STATUS_FOR = (
    (InvalidJobRequestError, 400),
    (JobNotFoundError, 404),
    (JobNotFinishedError, 409),
    (QueueFullError, 429),
    (DeadlineUnattainableError, 429),
    (WorkersUnavailableError, 503),
    (ServiceDrainingError, 503),
)


def _status_for(exc: ServiceError) -> int:
    for cls, status in STATUS_FOR:
        if isinstance(exc, cls):
            return status
    return 500


#: Per approximate answer source, the result-block key of what answered.
_ANSWERED_BY = {tier.source: tier.by_field for tier in (SemanticCache, PredictTiers)}


def _result_document(record: JobRecord) -> dict:
    """JSON-ready result payload for a terminal job."""
    outcome = record.outcome
    # Kind "none": a not-applicable cell (done, value None), or a
    # failed/cancelled job with no answer at all.
    wire = outcome.dump() if outcome is not None else {"kind": "none", "text": None}
    document = {
        "job": record.to_document(),
        "result_kind": wire["kind"],
        "result": json.loads(wire["text"]) if wire["text"] is not None else None,
    }
    by_key = _ANSWERED_BY.get(outcome.source) if outcome is not None else None
    if by_key is not None:
        # Approximate answers keep the app_run wire shape (job.source
        # tells them apart) plus a block under their source: the bound
        # and what answered (``transferred_from`` / ``predicted_by``).
        document[outcome.source] = {
            "error_bound": outcome.bound,
            by_key: outcome.answered_by,
        }
    return document


class _Handler(BaseHTTPRequestHandler):
    """One request; the service instance rides on the server object."""

    server_version = "pka-service/1.0"
    protocol_version = "HTTP/1.1"

    # Silence the default stderr-per-request logging; the service keeps
    # its own counters.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    @property
    def service(self) -> "PKAService":
        return self.server.pka_service  # type: ignore[attr-defined]

    # -- plumbing --------------------------------------------------------

    def _send_json(
        self, status: int, document: dict, headers: dict | None = None
    ) -> None:
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, exc: Exception) -> None:
        if isinstance(exc, ServiceError):
            status = _status_for(exc)
        else:
            status = 500
        document = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, QueueFullError):
            document["depth"] = exc.depth
            document["max_depth"] = exc.max_depth
        if isinstance(exc, DeadlineUnattainableError):
            document["predicted_wait"] = exc.predicted_wait
            document["deadline"] = exc.deadline
        headers = None
        retry_after = getattr(exc, "retry_after", None)
        if status in (429, 503):
            # Shedding responses always advise a retry delay; a fraction
            # of a second is fine (the client parses it as a float).
            if retry_after is None:
                retry_after = self.service.retry_after
            document["retry_after"] = retry_after
            headers = {"Retry-After": format(retry_after, "g")}
        self._send_json(status, document, headers)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise InvalidJobRequestError("request body required")
        raw = self.rfile.read(length)
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidJobRequestError(f"body is not valid JSON: {exc}") from exc
        return document

    # -- routes ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/healthz":
                self._send_json(200, {"status": "ok"})
            elif self.path == "/readyz":
                status, document = self.service.readiness()
                self._send_json(status, document)
            elif self.path == "/metricsz":
                self._send_json(200, self.service.metrics())
            elif self.path.startswith("/v1/jobs/") and self.path.endswith("/result"):
                job_id = self.path[len("/v1/jobs/") : -len("/result")]
                record = self.service.scheduler.result(job_id)
                self._send_json(200, _result_document(record))
            elif self.path.startswith("/v1/jobs/"):
                job_id = self.path[len("/v1/jobs/") :]
                record = self.service.scheduler.get(job_id)
                self._send_json(200, record.to_document())
            else:
                self._send_json(404, {"error": "NotFound", "message": self.path})
        except Exception as exc:  # typed errors -> typed statuses
            self._send_error_json(exc)

    def do_POST(self) -> None:  # noqa: N802
        try:
            if self.path != "/v1/jobs":
                self._send_json(404, {"error": "NotFound", "message": self.path})
                return
            request = JobRequest.from_document(self._read_body())
            record, created = self.service.scheduler.submit(request)
            document = record.to_document()
            document["created"] = created
            self._send_json(202 if created and not record.terminal else 200, document)
        except Exception as exc:
            self._send_error_json(exc)

    def do_DELETE(self) -> None:  # noqa: N802
        try:
            if not self.path.startswith("/v1/jobs/"):
                self._send_json(404, {"error": "NotFound", "message": self.path})
                return
            job_id = self.path[len("/v1/jobs/") :]
            record = self.service.scheduler.cancel(job_id)
            self._send_json(200, record.to_document())
        except Exception as exc:
            self._send_error_json(exc)


class PKAService:
    """The evaluation service: scheduler + HTTP listener + drain logic.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction.  Use as a context manager in tests::

        with PKAService(harness) as service:
            client = ServiceClient(port=service.port)
            ...
    """

    def __init__(
        self,
        harness: EvaluationHarness,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 256,
        drain_timeout: float = 30.0,
        workers: int = 0,
        journal_path: str | None = None,
        respawn_backoff: float = 0.25,
        retry_after: float = 1.0,
        autoscale: AutoscalerConfig | None = None,
        default_deadline: float | None = None,
    ) -> None:
        # Percentile latency and counter export need the tracer on from
        # the start: journal recovery below already counts into it.
        obs_enable()
        self.harness = harness
        self.retry_after = retry_after
        self.journal = JobJournal(journal_path) if journal_path else None
        if autoscale is not None:
            # Elastic fleet: start at min_workers (or the explicit
            # worker count, clamped into the autoscaler's band) and let
            # the control loop take it from there.
            initial = workers if workers > 0 else autoscale.min_workers
            workers = max(
                autoscale.min_workers, min(autoscale.max_workers, initial)
            )
        self.supervisor = (
            WorkerSupervisor(
                harness,
                workers,
                respawn_backoff=respawn_backoff,
            )
            if workers > 0
            else None
        )
        self.autoscaler = (
            Autoscaler(autoscale)
            if autoscale is not None and self.supervisor is not None
            else None
        )
        # Journal recovery (replay + re-enqueue) happens inside the
        # scheduler constructor — before the HTTP listener exists, so a
        # client can never observe a half-recovered registry.
        self.scheduler = Scheduler(
            harness,
            max_queue=max_queue,
            journal=self.journal,
            supervisor=self.supervisor,
            autoscaler=self.autoscaler,
            retry_after=retry_after,
            default_deadline=default_deadline,
        )
        self.drain_timeout = drain_timeout
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.pka_service = self  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self._serve_thread: threading.Thread | None = None
        # Wall-clock start is display-only (and seeds the service id);
        # the uptime delta is monotonic so an NTP step can never make
        # ``uptime_seconds`` jump or go negative.
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self.service_id = f"service-{os.getpid()}-{int(self.started_at)}"

    def start(self, *, run_scheduler: bool = True) -> "PKAService":
        """Start serving.  ``run_scheduler=False`` accepts jobs but never
        dispatches them — tests use it to observe pre-dispatch states
        (queued, cancelled, queue-full) deterministically."""
        if run_scheduler:
            self.scheduler.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="pka-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def metrics(self) -> dict:
        document = self.scheduler.metrics()
        document["service_id"] = self.service_id
        document["started_at"] = self.started_at
        document["uptime_seconds"] = time.monotonic() - self._started_monotonic
        return document

    def readiness(self) -> tuple[int, dict]:
        """``/readyz`` semantics: 503 while draining or degraded.

        ``degraded`` means every fleet worker is down — the service
        still answers warm-cache submissions, but a load balancer
        should prefer a healthy replica.  ``brownout`` (still 200) sits
        between healthy and the circuit breaker: workers are alive but
        deadline-aware admission is shedding work, so new traffic will
        see 429s until the backlog drains or the pool scales up.
        """
        if self.scheduler.draining:
            return 503, {"status": "draining"}
        supervisor = self.supervisor
        if supervisor is not None:
            alive = supervisor.alive_workers
            document = {
                "status": "ready",
                "workers_alive": alive,
                "workers_configured": supervisor.workers,
            }
            if alive == 0:
                document["status"] = "degraded"
                document["retry_after"] = supervisor.next_retry_after()
                return 503, document
            if self.scheduler.in_brownout():
                document["status"] = "brownout"
                document["predicted_wait_s"] = self.scheduler.estimate_queue_wait(
                    extra=1
                )
            return 200, document
        if self.scheduler.in_brownout():
            return 200, {
                "status": "brownout",
                "predicted_wait_s": self.scheduler.estimate_queue_wait(extra=1),
            }
        return 200, {"status": "ready"}

    def drain(self, timeout: float | None = None) -> tuple[dict, bool]:
        """Graceful shutdown: refuse new work, finish accepted work.

        Returns ``(manifest, clean)``.  The manifest — every accepted
        job with its terminal state, plus the final counters — is
        persisted to the run cache under the service id, so "zero jobs
        lost" is auditable after the process is gone.
        """
        clean = self.scheduler.drain(
            timeout if timeout is not None else self.drain_timeout
        )
        jobs = [record.to_document() for record in self.scheduler.jobs()]
        states: dict[str, int] = {}
        for job in jobs:
            states[job["state"]] = states.get(job["state"], 0) + 1
        manifest = {
            "service_id": self.service_id,
            "clean": clean,
            "jobs": jobs,
            "states": states,
            "counters": {
                name: value
                for name, value in sorted(get_tracer().counters.items())
                if name.startswith("service.")
            },
        }
        self.harness.run_cache.put_manifest(self.service_id, manifest)
        self.close()
        return manifest, clean

    def close(self) -> None:
        """Stop serving immediately (no drain)."""
        self.scheduler.close()
        self._httpd.shutdown()
        self._httpd.server_close()
        self.harness.backend.close()

    def __enter__(self) -> "PKAService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
