"""The serve smoke script's checkers over canned reports.

``scripts/serve_smoke.py`` boots real servers, so tier-1 does not run
it; these tests keep its checks honest between runs instead: each
checker passes a canned good loadgen report or ``/metricsz`` document
and raises on a canned bad one.
"""

from __future__ import annotations

import copy
import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def smoke():
    path = Path(__file__).resolve().parents[2] / "scripts" / "serve_smoke.py"
    spec = importlib.util.spec_from_file_location("serve_smoke", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SERVICE_REPORT = {
    "submitted": 20, "accepted": 20, "completed": 20, "deduplicated": 9,
    "rejected": 0, "errors": 0,
    "server_metrics": {"counters": {
        "service.jobs_submitted": 11, "service.dedup_hits": 9,
        "service.jobs_done": 11, "service.backend_fanouts": 11,
        "tasks.retries": 1,
    }},
}
FLEET_REPORT = {
    "submitted": 20, "accepted": 20, "completed": 20, "shed": 0, "errors": 0,
    "chaos_events": [{"action": "kill-worker", "ok": True}],
    "reconciliation": {"balanced": True},
}
FLEET_METRICS = {"counters": {"fleet.worker_deaths": 1}}
DEADLINE_KILL = (
    {"job_id": "j1", "state": "done", "redispatches": 1},
    {"counters": {"fleet.worker_deaths": 2}},
    1,
)
RECOVERED_METRICS = {
    "states": {"done": 4},
    "counters": {"service.recovered_jobs": 1},
    "journal": {"lag": 0},
    "workers": {"alive": 2},
}
RECOVERED_JOB = {"job_id": "j1", "state": "done"}
BURST_REPORT = {
    "submitted": 24, "accepted": 24, "completed": 24, "errors": 0, "shed": 0,
    "reconciliation": {"balanced": True},
    "shed_retry_afters": {"count": 0, "min": None},
}
BURST_METRICS = {
    "autoscaler": {"counters": {"scale_ups": 2}},
    "counters": {"fleet.grown": 2},
}
SHRUNK_METRICS = {
    "autoscaler": {"current_workers": 1, "counters": {"scale_downs": 3}},
    "workers": {"retired": 3},
    "states": {"done": 10},
    "queue_depth": 0,
}
BOUND = (
    "fdtd2d~nd7",
    {"state": "done", "source": "predicted", "request": {"workload": "fdtd2d~nd7"}},
    {
        "predicted": {"error_bound": 0.05, "predicted_by": "surrogate"},
        "result": {"total_cycles": 1010.0},
    },
    1000.0,
)
TRANSFERRED = (
    {"state": "done", "source": "transfer", "request": {"workload": "atax~nd1"}},
    {
        "result_kind": "app_run",
        "result": {"total_cycles": 1010.0},
        "transfer": {"error_bound": 0.2, "transferred_from": ["atax"]},
    },
)
COMPUTED = (
    {"state": "done", "source": "computed", "request": {"workload": "atax"}},
    {"result_kind": "app_run", "result": {"total_cycles": 1000.0}},
)
LOG = "pka service listening on http://127.0.0.1:1\ndrained 3 job(s); clean=True\n"


def _damaged(document, damage):
    document = copy.deepcopy(document)
    damage(document)
    return document


#: (checker name, good arguments, damage to one argument, its index).
CASES = {
    "unbalanced-service": (
        "check_service_load", (SERVICE_REPORT,),
        lambda r: r["server_metrics"]["counters"].update({"service.dedup_hits": 8}), 0,
    ),
    "no-retry": (
        "check_service_load", (SERVICE_REPORT,),
        lambda r: r["server_metrics"]["counters"].pop("tasks.retries"), 0,
    ),
    "fanout-per-job": (
        "check_service_load", (SERVICE_REPORT,),
        lambda r: r["server_metrics"]["counters"].update(
            {"service.backend_fanouts": 20}
        ), 0,
    ),
    "fleet-job-lost": (
        "check_fleet_load", (FLEET_REPORT, FLEET_METRICS),
        lambda r: r.update(completed=19), 0,
    ),
    "chaos-missed": (
        "check_fleet_load", (FLEET_REPORT, FLEET_METRICS),
        lambda r: r["chaos_events"][0].update(ok=False), 0,
    ),
    "no-worker-death": (
        "check_fleet_load", (FLEET_REPORT, FLEET_METRICS),
        lambda m: m["counters"].update({"fleet.worker_deaths": 0}), 1,
    ),
    # The hang ran out in the worker and was retried there: the
    # coordinator never saw it.
    "hang-outlived-deadline": (
        "check_deadline_kill", DEADLINE_KILL, lambda j: j.update(redispatches=0), 0,
    ),
    "hung-job-failed": (
        "check_deadline_kill", DEADLINE_KILL, lambda j: j.update(state="failed"), 0,
    ),
    "no-deadline-kill": (
        "check_deadline_kill", DEADLINE_KILL,
        lambda m: m["counters"].update({"fleet.worker_deaths": 1}), 1,
    ),
    "stuck-after-restart": (
        "check_recovered", (RECOVERED_METRICS, RECOVERED_JOB),
        lambda m: m["states"].update(running=1), 0,
    ),
    "nothing-recovered": (
        "check_recovered", (RECOVERED_METRICS, RECOVERED_JOB),
        lambda m: m["counters"].update({"service.recovered_jobs": 0}), 0,
    ),
    "journal-lag": (
        "check_recovered", (RECOVERED_METRICS, RECOVERED_JOB),
        lambda m: m["journal"].update(lag=1), 0,
    ),
    "in-flight-job-lost": (
        "check_recovered", (RECOVERED_METRICS, RECOVERED_JOB),
        lambda j: j.update(state="failed"), 1,
    ),
    "over-bound": (
        "check_bound", BOUND,
        lambda r: r["result"].update(total_cycles=1100.0), 2,
    ),
    "computed-not-predicted": (
        "check_bound", BOUND, lambda j: j.update(source="computed"), 1,
    ),
    # A tier's answer labelled as computed (the shape a dispatch-time
    # transfer once had), and the reverse.
    "computed-with-transfer-block": (
        "check_provenance", TRANSFERRED, lambda j: j.update(source="computed"), 0,
    ),
    "transfer-without-block": (
        "check_provenance", TRANSFERRED, lambda r: r.pop("transfer"), 1,
    ),
    "cache-with-predicted-block": (
        "check_provenance", COMPUTED,
        lambda r: r.update(predicted={"error_bound": 0.1, "predicted_by": "surrogate"}),
        1,
    ),
    "unknown-source": (
        "check_provenance", COMPUTED, lambda j: j.update(source="memory"), 0,
    ),
    "predicted-without-block": (
        "check_bound", BOUND, lambda r: r.pop("predicted"), 2,
    ),
    "burst-unbalanced": (
        "check_burst", (BURST_REPORT, BURST_METRICS),
        lambda r: r["reconciliation"].update(balanced=False), 0,
    ),
    "zero-retry-after": (
        "check_burst", (BURST_REPORT, BURST_METRICS),
        lambda r: r.update(shed=1, shed_retry_afters={"count": 1, "min": 0.0}), 0,
    ),
    "no-scale-up": (
        "check_burst", (BURST_REPORT, BURST_METRICS),
        lambda m: m["autoscaler"]["counters"].update(scale_ups=0), 1,
    ),
    "no-scale-down": (
        "check_shrunk", (SHRUNK_METRICS,),
        lambda m: m["autoscaler"]["counters"].update(scale_downs=0), 0,
    ),
    "not-back-at-one": (
        "check_shrunk", (SHRUNK_METRICS,),
        lambda m: m["autoscaler"].update(current_workers=2), 0,
    ),
    "queue-not-empty": (
        "check_shrunk", (SHRUNK_METRICS,), lambda m: m.update(queue_depth=1), 0,
    ),
}


@pytest.mark.parametrize("checker", sorted({case[0] for case in CASES.values()}))
def test_checker_passes_a_good_report(smoke, checker):
    args = next(case[1] for case in CASES.values() if case[0] == checker)
    assert getattr(smoke, checker)(*copy.deepcopy(args))


@pytest.mark.parametrize("case", sorted(CASES))
def test_checker_raises_on_a_bad_report(smoke, case):
    checker, args, damage, index = CASES[case]
    args = list(copy.deepcopy(args))
    args[index] = _damaged(args[index], damage)
    with pytest.raises((AssertionError, KeyError)):
        getattr(smoke, checker)(*args)


def test_provenance_passes_every_agreeing_shape(smoke):
    for job, result in (TRANSFERRED, COMPUTED):
        assert smoke.check_provenance(job, result)
    job, result = copy.deepcopy(COMPUTED)
    job["source"] = "cache"
    assert smoke.check_provenance(job, result)


def test_drain_and_banner_checks(smoke):
    assert smoke.check_drain(0, LOG)
    assert smoke.check_banner(LOG, "listening on")
    with pytest.raises(AssertionError):
        smoke.check_drain(3, LOG)
    with pytest.raises(AssertionError):
        smoke.check_drain(0, LOG.replace("clean=True", "clean=False"))
    with pytest.raises(AssertionError):
        smoke.check_banner(LOG, "predict: enabled")


def test_every_scenario_is_named(smoke):
    assert list(smoke.SCENARIOS) == [
        "service", "fleet", "semcache", "predict", "autoscale"
    ]
