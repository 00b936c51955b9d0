"""repro.service: a long-lived evaluation service over the harness.

Turns the batch-oriented :class:`~repro.analysis.harness.
EvaluationHarness` into an interactive job server: typed jobs with a
small lifecycle, a bounded fair queue, a single-flight batching
scheduler that exploits the content-addressed run cache, a stdlib JSON
HTTP API, a polling client, and a seeded load generator.  Dependency-
free, like everything else in the repo.

**Fleet mode** adds three robustness layers: a crash-safe append-only
:class:`JobJournal` (durable job recovery across coordinator restarts),
a :class:`WorkerSupervisor` (N supervised worker processes with
exit-or-deadline liveness, re-dispatch of failed attempts, poison-job
quarantine, and exponential-backoff respawn), and overload degradation (queue shedding
with ``Retry-After``, warm-cache-only circuit breaker while all workers
are down).

**Elastic fleet** makes the pool size dynamic: the SLO-driven
:class:`Autoscaler` control loop grows and shrinks the worker pool
between a min/max band from queue depth and queue-wait signals, with
hysteresis and per-direction cooldowns so scaling never flaps; scale-
down drains the victim worker gracefully (zero jobs lost).  Deadline-
aware admission control sheds jobs whose predicted queue wait exceeds
their deadline, with backlog-derived ``Retry-After`` advice and a
``brownout`` readiness state while shedding.
"""

from repro.service.autoscaler import Autoscaler, AutoscalerConfig, FleetSignals
from repro.service.client import ServiceClient
from repro.service.jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    JobRecord,
    JobRequest,
    job_id_for,
    parse_job_fault,
)
from repro.service.journal import JobJournal
from repro.service.loadgen import (
    LoadConfig,
    LoadReport,
    arrival_offsets,
    build_plan,
    parse_chaos,
    parse_shape,
    run_load,
)
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler
from repro.service.server import PKAService
from repro.service.supervisor import WorkerSupervisor

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Autoscaler",
    "AutoscalerConfig",
    "FleetSignals",
    "JobJournal",
    "JobQueue",
    "JobRecord",
    "JobRequest",
    "LoadConfig",
    "LoadReport",
    "PKAService",
    "Scheduler",
    "ServiceClient",
    "WorkerSupervisor",
    "arrival_offsets",
    "build_plan",
    "job_id_for",
    "parse_chaos",
    "parse_job_fault",
    "parse_shape",
    "run_load",
]
