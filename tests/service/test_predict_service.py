"""Service-level tests for the prediction tiers' warm path.

A calibrated near-duplicate submission must complete *at submit time* by
prediction (never queued, never simulated), the wire result must carry
the bound and answering tier, ``/metricsz`` must reconcile the
prediction ledger, and the cache-tier precedence must hold: a query that
is simultaneously digest-warm, transferable and predictable resolves
from the digest cache with exactly one source counter incremented.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.analysis.harness import EvaluationHarness
from repro.service import JobRequest, PKAService, ServiceClient

#: Completable apps that calibrate the tiers (min_calibration = 3).
TRAIN = ("fdtd2d", "atax", "backprop")
#: Near duplicate of a calibrated multi-group app: predictable when warm.
NEAR = "fdtd2d~nd1"


@pytest.fixture(autouse=True)
def _obs_reset():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture
def service(tmp_path):
    harness = EvaluationHarness(
        backend="serial", cache_dir=tmp_path / "cache", predict=True
    )
    service = PKAService(harness, port=0, max_queue=32)
    service.start()
    yield service
    service.close()


@pytest.fixture
def client(service) -> ServiceClient:
    return ServiceClient(port=service.port, timeout=10.0)


def _warm(client, workloads=TRAIN) -> None:
    for workload in workloads:
        document = client.submit(
            JobRequest(workload=workload, method="full_sim")
        )
        final = client.wait(document["job_id"], timeout=240.0)
        assert final["state"] == "done"
        assert final["source"] == "computed"


class TestPredictWarmPath:
    def test_every_job_source_agrees_with_its_result(self, service, client):
        """Submitted back to back, the near duplicate misses the cold
        tiers at submit and may be predicted at dispatch, once the
        third training app is computed: whichever path answers, the
        job's source and its result's tier block agree."""
        jobs = [
            client.submit(JobRequest(workload=name, method="full_sim"))["job_id"]
            for name in (*TRAIN, NEAR)
        ]
        for job_id in jobs:
            source = client.wait(job_id, timeout=240.0)["source"]
            result = client.result(job_id)
            blocks = {key for key in ("transfer", "predicted") if key in result}
            assert blocks == {source} & {"transfer", "predicted"}, (source, blocks)
        assert source == "predicted"

    def test_calibrated_near_duplicate_completes_at_submit(
        self, service, client
    ):
        _warm(client)
        document = client.submit(JobRequest(workload=NEAR, method="full_sim"))
        # The prediction completes on the submission thread: the submit
        # response is already terminal, nothing was queued.
        assert document["created"]
        assert document["state"] == "done"
        final = client.wait(document["job_id"], timeout=10.0)
        assert final["source"] == "predicted"

        result = client.result(document["job_id"])
        assert result["result_kind"] == "app_run"
        assert result["result"]["total_cycles"] > 0
        predicted = result["predicted"]
        assert predicted["predicted_by"] in ("analytical", "surrogate")
        assert 0 < predicted["error_bound"] <= 0.35

        counters = client.metrics()["counters"]
        assert counters["service.predict_hits"] >= 1

    def test_cold_near_duplicate_still_computes(self, service, client):
        # Uncalibrated tiers: the job escalates through the normal
        # compute pipeline and succeeds.
        document = client.submit(JobRequest(workload=NEAR, method="full_sim"))
        final = client.wait(document["job_id"], timeout=240.0)
        assert final["state"] == "done"
        assert final["source"] == "computed"

    def test_metricsz_predict_section(self, service, client):
        _warm(client)
        client.wait(
            client.submit(JobRequest(workload=NEAR, method="full_sim"))[
                "job_id"
            ],
            timeout=240.0,
        )
        metrics = client.metrics()
        predict = metrics["predict"]
        assert predict["enabled"] is True
        assert predict["reconciles"] is True
        assert (
            predict["predictions"] + predict["escalations"]
            == predict["lookups"]
        )
        assert predict["predictions"] >= 1
        assert "predicted" in metrics["latency_ms"]

    def test_metricsz_without_predict(self, tmp_path):
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "c")
        service = PKAService(harness, port=0)
        service.start()
        try:
            client = ServiceClient(port=service.port, timeout=10.0)
            assert client.metrics()["predict"] == {"enabled": False}
        finally:
            service.close()


class TestTierPrecedence:
    def test_digest_hit_wins_over_transfer_and_prediction(self, tmp_path):
        # All three answer layers enabled and simultaneously able to
        # serve the query: the exact digest cache must win, and exactly
        # one source counter may move.
        first = PKAService(
            EvaluationHarness(
                backend="serial",
                cache_dir=tmp_path / "cache",
                semcache=True,
                predict=True,
            ),
            port=0,
            max_queue=32,
        )
        first.start()
        try:
            _warm(ServiceClient(port=first.port, timeout=10.0))
        finally:
            first.close()

        # Fresh service on the same cache directory: the job registry is
        # empty (no single-flight dedup), TRAIN[0] is digest-warm on
        # disk, the semcache index covers it exactly, and the prediction
        # tiers are calibrated — all three layers could serve it.
        harness = EvaluationHarness(
            backend="serial",
            cache_dir=tmp_path / "cache",
            semcache=True,
            predict=True,
        )
        assert harness.run_cache.get_run(
            harness.cell_digest_for(TRAIN[0], "full_sim")
        ) is not None
        service = PKAService(harness, port=0, max_queue=32)
        service.start()
        try:
            client = ServiceClient(port=service.port, timeout=10.0)
            before = dict(client.metrics()["counters"])
            document = client.submit(
                JobRequest(workload=TRAIN[0], method="full_sim")
            )
            final = client.wait(document["job_id"], timeout=10.0)
            assert final["state"] == "done"
            assert final["source"] == "cache"

            after = client.metrics()["counters"]

            def moved(name: str) -> int:
                return after.get(name, 0) - before.get(name, 0)

            assert moved("service.cache_hits") == 1
            assert moved("service.transfer_hits") == 0
            assert moved("service.predict_hits") == 0
        finally:
            service.close()
