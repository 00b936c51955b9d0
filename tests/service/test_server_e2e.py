"""End-to-end service tests over real HTTP, including the acceptance
scenario: warm cache + duplicate-heavy load -> fewer computations than
jobs, cache hits that never queue, and a drain that loses nothing."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.analysis.harness import EvaluationHarness
from repro.errors import (
    InvalidJobRequestError,
    JobNotFinishedError,
    JobNotFoundError,
    QueueFullError,
    ServiceDrainingError,
    ServiceError,
)
from repro.service import (
    JobRequest,
    LoadConfig,
    PKAService,
    ServiceClient,
    run_load,
)

WARM = ("gauss_208", "histo")


@pytest.fixture(autouse=True)
def _obs_reset():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture
def service(tmp_path):
    harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
    service = PKAService(harness, port=0, max_queue=32)
    service.start()
    yield service
    service.close()


@pytest.fixture
def client(service) -> ServiceClient:
    return ServiceClient(port=service.port, timeout=10.0)


class TestHttpApi:
    def test_health_and_ready(self, client):
        assert client.healthy()
        assert client.ready()

    def test_submit_poll_result_roundtrip(self, service, client):
        document = client.submit(JobRequest(workload="gauss_208", method="silicon"))
        assert document["created"]
        assert document["state"] in ("queued", "running", "done")
        final = client.wait(document["job_id"], timeout=60.0)
        assert final["state"] == "done"
        assert final["source"] in ("computed", "cache")
        assert final["latency_ms"] > 0
        result = client.result(final["job_id"])
        assert result["result_kind"] == "app_run"
        payload = result["result"]
        # The wire result must equal what the harness computes directly.
        direct = service.harness.evaluation("gauss_208").silicon()
        assert payload["total_cycles"] == direct.total_cycles
        assert payload["workload"] == "gauss_208"

    def test_selection_job_roundtrip(self, client):
        result = client.submit_and_wait(
            JobRequest(workload="gauss_208", method="selection"), timeout=60.0
        )
        assert result["result_kind"] == "selection"
        assert result["result"]["workload"] == "gauss_208"
        assert result["result"]["k"] >= 1

    def test_unknown_job_is_404(self, client):
        with pytest.raises(JobNotFoundError):
            client.job("j-missing")
        with pytest.raises(JobNotFoundError):
            client.cancel("j-missing")

    def test_bad_request_is_400(self, client):
        with pytest.raises(InvalidJobRequestError):
            client.submit({"workload": "not_a_workload", "method": "silicon"})
        with pytest.raises(InvalidJobRequestError):
            client.submit({"method": "silicon"})

    def test_unknown_path_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{service.port}/v2/nope", timeout=5
            )
        assert excinfo.value.code == 404

    def test_metricsz_shape(self, client):
        client.submit_and_wait(
            JobRequest(workload="gauss_208", method="silicon"), timeout=60.0
        )
        metrics = client.metrics()
        assert metrics["service_id"].startswith("service-")
        assert metrics["jobs"] >= 1
        assert "done" in metrics["states"]
        assert metrics["counters"]["service.jobs_submitted"] >= 1
        assert set(metrics["cache"]) >= {
            "hits", "misses", "writes", "evictions", "hit_ratio"
        }
        assert metrics["latency_ms"]["all"]["count"] >= 1
        assert metrics["latency_ms"]["all"]["p95_ms"] > 0


class TestPreDispatchStates:
    """run_scheduler=False pins jobs in queued: observable lifecycle."""

    @pytest.fixture
    def parked(self, tmp_path):
        harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache"
        )
        service = PKAService(harness, port=0, max_queue=2)
        service.start(run_scheduler=False)
        yield service
        service.close()

    def test_result_before_terminal_is_409(self, parked):
        client = ServiceClient(port=parked.port)
        document = client.submit(JobRequest(workload="gauss_208", method="silicon"))
        assert document["state"] == "queued"
        with pytest.raises(JobNotFinishedError):
            client.result(document["job_id"])

    def test_cancel_queued_job_via_delete(self, parked):
        client = ServiceClient(port=parked.port)
        document = client.submit(JobRequest(workload="gauss_208", method="silicon"))
        cancelled = client.cancel(document["job_id"])
        assert cancelled["state"] == "cancelled"
        assert client.job(document["job_id"])["state"] == "cancelled"
        # Idempotent: a second DELETE is a no-op 200.
        assert client.cancel(document["job_id"])["state"] == "cancelled"

    def test_queue_full_is_429_with_backpressure_detail(self, parked):
        client = ServiceClient(port=parked.port)
        client.submit(JobRequest(workload="gauss_208", method="silicon"))
        client.submit(JobRequest(workload="histo", method="silicon"))
        with pytest.raises(QueueFullError) as excinfo:
            client.submit(JobRequest(workload="fdtd2d", method="silicon"))
        assert excinfo.value.depth == 2
        assert excinfo.value.max_depth == 2

    def test_draining_flips_readyz_and_refuses_submits(self, parked):
        client = ServiceClient(port=parked.port)
        parked.scheduler._draining = True
        assert client.healthy()  # alive
        assert not client.ready()  # but not accepting
        with pytest.raises(ServiceDrainingError):
            client.submit(JobRequest(workload="gauss_208", method="silicon"))


class TestAcceptance:
    def test_warm_cache_duplicate_heavy_load(self, tmp_path):
        """The PR's acceptance scenario, end to end over HTTP."""
        cache_dir = tmp_path / "cache"
        # Phase 1: warm the cache for two of the three workloads.
        warmup = EvaluationHarness(backend="serial", cache_dir=cache_dir)
        warmup.evaluate_cells([(w, "silicon", None) for w in WARM])

        # Phase 2: fresh service over the warm cache (its registry is
        # empty, so completions must come from the disk cache, not memos).
        harness = EvaluationHarness(backend="serial", cache_dir=cache_dir)
        computed_cells = []
        evaluate_cells = harness.evaluate_cells

        def recording(cells, **kwargs):
            computed_cells.extend(cells)
            return evaluate_cells(cells, **kwargs)

        harness.evaluate_cells = recording
        service = PKAService(harness, port=0, max_queue=64)
        service.start()
        try:
            client = ServiceClient(port=service.port, timeout=10.0)
            config = LoadConfig(
                jobs=24,
                mode="closed",
                concurrency=4,
                duplicate_ratio=0.5,
                seed=11,
                workloads=WARM + ("fdtd2d",),  # one cold workload
                methods=("silicon",),
                timeout=120.0,
            )
            report = run_load(client, config)

            # Every submission got a terminal answer.
            assert report.submitted == config.jobs
            assert report.accepted == config.jobs
            assert report.rejected == 0
            assert report.errors == 0
            assert report.completed == config.jobs

            metrics = report.server_metrics
            counters = metrics["counters"]
            # Dedup + cache: strictly fewer computed jobs than jobs.
            assert metrics["latency_ms"]["computed"]["count"] < report.accepted
            assert counters["service.cache_hits"] >= 2  # the warm cells
            if report.deduplicated:
                assert counters["service.dedup_hits"] >= 1

            # Cache hits take the fast path: each completed at submit,
            # never entered the queue and never reached the backend.
            # (serve-mix's service.cache_p50_ms measures their latency.)
            hits = [
                record
                for record in service.scheduler.jobs()
                if record.source == "cache"
            ]
            assert len(hits) >= 2
            for record in hits:
                assert record.state == "done"
                assert record.queue_wait_ms is None
                assert record.started_us is None
                assert record.attempts == 0
                request = record.request
                assert (request.workload, request.method, request.gpu) not in (
                    computed_cells
                )

            # Phase 3: graceful drain loses zero accepted jobs.
            manifest, clean = service.drain(timeout=60.0)
            assert clean
            assert manifest["jobs"]  # every accepted job is accounted for
            for job in manifest["jobs"]:
                assert job["state"] in ("done", "failed", "cancelled")
            assert manifest["states"].get("done", 0) == len(manifest["jobs"])
            # The manifest is durable: readable back from the run cache.
            stored = harness.run_cache.get_manifest(service.service_id)
            assert stored is not None
            assert stored["clean"] is True
            assert stored["states"] == manifest["states"]
        finally:
            service.close()


class TestServeProcess:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """`pka serve` + SIGTERM: graceful drain, exit 0 (exit-code
        contract for the service verb)."""
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--cache-dir", str(tmp_path / "cache"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line
            port = int(line.rsplit(":", 1)[1].strip())
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/readyz", timeout=2
                    ) as response:
                        if json.load(response)["status"] == "ready":
                            break
                except OSError:
                    time.sleep(0.05)
            # One quick job through the real process.
            body = json.dumps({"workload": "gauss_208", "method": "silicon"}).encode()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/jobs",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                job_id = json.load(response)["job_id"]
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out
            assert "drained" in out
            assert "clean=True" in out
            assert job_id  # the submitted job was part of the drain
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)

    def test_client_against_dead_service_raises_typed(self):
        client = ServiceClient(port=1, timeout=0.5)
        with pytest.raises(ServiceError):
            client.submit(JobRequest(workload="gauss_208", method="silicon"))
        assert not client.healthy()
        assert not client.ready()
