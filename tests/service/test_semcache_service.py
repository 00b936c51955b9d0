"""Service-level tests for the semantic cache's warm path.

A near-duplicate submission must complete *at submit time* by transfer
(never queued, never simulated), the wire result must carry the transfer
metadata, ``/metricsz`` must reconcile the semcache ledger, and a
duplicate-family loadgen run must observe transfers end to end.  The
uptime satellite rides along: ``uptime_seconds`` is monotonic-derived,
so a wall-clock step can never make it jump or go negative.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.analysis.harness import EvaluationHarness
from repro.service import (
    JobRequest,
    LoadConfig,
    PKAService,
    ServiceClient,
    run_load,
)

BASE = "atax"
NEAR = "atax~nd1"


@pytest.fixture(autouse=True)
def _obs_reset():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture
def service(tmp_path):
    harness = EvaluationHarness(
        backend="serial", cache_dir=tmp_path / "cache", semcache=True
    )
    service = PKAService(harness, port=0, max_queue=32)
    service.start()
    yield service
    service.close()


@pytest.fixture
def client(service) -> ServiceClient:
    return ServiceClient(port=service.port, timeout=10.0)


class TestTransferWarmPath:
    def test_near_duplicate_completes_at_submit(self, service, client):
        base = client.submit(JobRequest(workload=BASE, method="pka_sim"))
        final = client.wait(base["job_id"], timeout=120.0)
        assert final["state"] == "done"
        assert final["source"] == "computed"

        document = client.submit(JobRequest(workload=NEAR, method="pka_sim"))
        # The transfer completes on the submission thread: the submit
        # response is already terminal, nothing was queued.
        assert document["created"]
        assert document["state"] == "done"
        final = client.wait(document["job_id"], timeout=10.0)
        assert final["source"] == "transfer"

        result = client.result(document["job_id"])
        assert result["result_kind"] == "app_run"
        assert result["result"]["total_cycles"] > 0
        transfer = result["transfer"]
        assert transfer["transferred_from"] == [BASE]
        assert 0 < transfer["error_bound"] <= 0.35

        counters = client.metrics()["counters"]
        assert counters["service.transfer_hits"] >= 1

    def test_cold_near_duplicate_still_computes(self, service, client):
        # No donor in the index: the job escalates through the normal
        # compute pipeline and succeeds.
        document = client.submit(JobRequest(workload=NEAR, method="pka_sim"))
        final = client.wait(document["job_id"], timeout=120.0)
        assert final["state"] == "done"
        assert final["source"] == "computed"

    def test_metricsz_semcache_section(self, service, client):
        client.submit(JobRequest(workload=BASE, method="pka_sim"))
        client.wait(
            client.submit(JobRequest(workload=NEAR, method="pka_sim"))["job_id"],
            timeout=120.0,
        )
        metrics = client.metrics()
        semcache = metrics["semcache"]
        assert semcache["enabled"] is True
        assert semcache["reconciles"] is True
        assert semcache["transfers"] + semcache["escalations"] == semcache["lookups"]
        assert "transfer" in metrics["latency_ms"]

    def test_metricsz_without_semcache(self, tmp_path):
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "c")
        service = PKAService(harness, port=0)
        service.start()
        try:
            client = ServiceClient(port=service.port, timeout=10.0)
            assert client.metrics()["semcache"] == {"enabled": False}
        finally:
            service.close()


def _provenance(client, job_id) -> tuple[str, set[str]]:
    """A finished job's source and the tier blocks of its result document."""
    source = client.wait(job_id, timeout=120.0)["source"]
    result = client.result(job_id)
    return source, {block for block in ("transfer", "predicted") if block in result}


class TestProvenance:
    def test_dispatch_time_transfer_is_labelled_transfer(self, service, client):
        """A near duplicate queued right behind its donor misses the
        tier at submit (empty index) and is answered by transfer at
        dispatch; its source must say so, and agree with its result."""
        jobs = [
            client.submit(JobRequest(workload=name, method="pka_sim"))["job_id"]
            for name in (BASE, NEAR)
        ]
        assert _provenance(client, jobs[0]) == ("computed", set())
        assert _provenance(client, jobs[1]) == ("transfer", {"transfer"})


class TestUptimeMonotonic:
    def test_uptime_nonnegative_and_advancing(self, service, client):
        first = client.metrics()
        assert first["uptime_seconds"] >= 0
        assert first["started_at"] > 0
        time.sleep(0.05)
        second = client.metrics()
        assert second["uptime_seconds"] > first["uptime_seconds"]

    def test_wall_clock_step_cannot_skew_uptime(self, service, monkeypatch):
        # Simulate an NTP step: wall clock jumps a year into the past.
        import repro.service.server as server_module

        real_time = time.time
        monkeypatch.setattr(
            server_module.time, "time", lambda: real_time() - 365 * 86400
        )
        metrics = service.metrics()
        assert metrics["uptime_seconds"] >= 0
        # started_at stays the recorded wall-clock start (display-only).
        assert metrics["started_at"] == service.started_at


class TestLoadgenTransferFamily:
    def test_duplicate_family_observes_transfers(self, service, client):
        config = LoadConfig(
            jobs=6,
            mode="closed",
            concurrency=1,
            duplicate_ratio=0.0,
            seed=20260809,
            workloads=(BASE, "atax~nd1", "atax~nd2", "atax~nd3"),
            methods=("pka_sim",),
            timeout=240.0,
        )
        report = run_load(client, config)
        assert report.completed == report.accepted
        assert report.failed == 0
        # Sequential family members after the first computed donor are
        # answered by transfer.
        assert report.transferred >= 1
        document = report.to_document()
        assert document["transferred"] == report.transferred
        semcache = (report.server_metrics or {}).get("semcache", {})
        assert semcache.get("transfers", 0) >= 1
        assert semcache.get("reconciles") is True
        assert document["reconciliation"]["balanced"] is True
