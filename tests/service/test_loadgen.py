"""Load generator tests: deterministic plans, chaos schedules, and
report reconciliation."""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.analysis.harness import EvaluationHarness
from repro.service import (
    LoadConfig,
    PKAService,
    ServiceClient,
    arrival_offsets,
    build_plan,
    parse_chaos,
    parse_shape,
    run_load,
)
from repro.service.jobs import job_id_for
from repro.service.loadgen import LoadReport, default_chaos_driver


class TestPlan:
    def test_same_seed_same_plan(self):
        config = LoadConfig(jobs=30, duplicate_ratio=0.4, seed=5)
        first = build_plan(config)
        second = build_plan(config)
        assert first == second
        assert len(first) == 30

    def test_different_seed_different_plan(self):
        base = LoadConfig(jobs=30, duplicate_ratio=0.4, seed=5)
        other = LoadConfig(jobs=30, duplicate_ratio=0.4, seed=6)
        assert build_plan(base) != build_plan(other)

    def test_duplicates_repeat_earlier_requests_verbatim(self):
        config = LoadConfig(jobs=40, duplicate_ratio=0.5, seed=9)
        plan = build_plan(config)
        fresh = {id(request) for request in plan}
        assert len(fresh) < len(plan)  # some slots are duplicates
        # A duplicate is the same object, so its dedup key matches.
        seen: dict[int, int] = {}
        for request in plan:
            seen[id(request)] = seen.get(id(request), 0) + 1
        assert any(count > 1 for count in seen.values())

    def test_zero_ratio_means_all_fresh(self):
        plan = build_plan(LoadConfig(jobs=10, duplicate_ratio=0.0, seed=1))
        assert len({id(request) for request in plan}) == 10

    def test_fault_rides_on_first_fresh_request_only(self):
        config = LoadConfig(
            jobs=20, duplicate_ratio=0.3, seed=3, fault="exception"
        )
        plan = build_plan(config)
        faulted = {id(r) for r in plan if r.fault is not None}
        assert len(faulted) == 1  # one distinct request carries the fault
        assert plan[0].fault == "exception"

    def test_restricted_workload_pool(self):
        config = LoadConfig(
            jobs=12, seed=2, workloads=("gauss_208",), methods=("silicon",)
        )
        plan = build_plan(config)
        assert {request.workload for request in plan} == {"gauss_208"}
        # One cell + no fault: every submission shares one job id.
        assert len({(r.workload, r.method, r.gpu) for r in plan}) == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 0},
            {"mode": "sideways"},
            {"duplicate_ratio": 1.5},
            {"fault": "bogus"},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises((ValueError, Exception)):
            LoadConfig(**kwargs)


class TestRunLoad:
    @pytest.fixture(autouse=True)
    def _obs_reset(self):
        obs.reset()
        yield
        obs.reset()

    def test_report_reconciles_with_server_metrics(self, tmp_path):
        harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache"
        )
        service = PKAService(harness, port=0, max_queue=64, batch_max=8)
        service.start()
        try:
            client = ServiceClient(port=service.port, timeout=10.0)
            config = LoadConfig(
                jobs=10,
                mode="closed",
                concurrency=3,
                duplicate_ratio=0.4,
                seed=13,
                workloads=("gauss_208", "histo"),
                methods=("silicon",),
                timeout=60.0,
            )
            report = run_load(client, config)
            assert report.submitted == 10
            assert report.accepted == 10
            assert report.completed == 10
            assert report.failed == 0
            assert len(report.latencies_ms) == 10

            counters = report.server_metrics["counters"]
            # Client-side dedup tally and the server's registry agree:
            # fresh submissions == jobs the server actually created.
            assert (
                counters["service.jobs_submitted"]
                == report.accepted - report.deduplicated
            )
            assert counters.get("service.dedup_hits", 0) == report.deduplicated
            assert counters["service.jobs_done"] == counters["service.jobs_submitted"]
            document = report.to_document()
            assert document["latency_ms"]["count"] == 10
            assert document["latency_ms"]["p95"] >= document["latency_ms"]["p50"]
            assert document["server_metrics"]["jobs"] == int(
                counters["service.jobs_submitted"]
            )
        finally:
            service.close()


class TestChaosSchedule:
    @pytest.fixture(autouse=True)
    def _obs_reset(self):
        obs.reset()
        yield
        obs.reset()

    def test_parse_chaos_sorts_by_fire_time(self):
        events = parse_chaos(("kill-coordinator@2.5", "kill-worker@0.5"))
        assert events == [("kill-worker", 0.5), ("kill-coordinator", 2.5)]

    @pytest.mark.parametrize(
        "spec",
        ["kill-worker", "reboot@1", "kill-worker@soon", "kill-worker@-1"],
    )
    def test_bad_chaos_spec_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_chaos((spec,))

    def test_load_config_validates_chaos_eagerly(self):
        with pytest.raises(ValueError):
            LoadConfig(jobs=5, chaos=("explode@1",))

    def test_chaos_driver_fires_on_schedule(self, tmp_path):
        """An injected driver replaces the kill mechanics; the report
        records each event's outcome in schedule order."""
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        service = PKAService(harness, port=0)
        service.start()
        fired: list[str] = []

        def driver(action: str) -> dict:
            fired.append(action)
            return {"action": action, "ok": True, "note": "stubbed"}

        try:
            client = ServiceClient(port=service.port, timeout=10.0)
            config = LoadConfig(
                jobs=4,
                mode="closed",
                concurrency=2,
                seed=3,
                workloads=("gauss_208",),
                methods=("silicon",),
                timeout=60.0,
                chaos=("kill-worker@0.0", "kill-worker@0.05"),
            )
            report = run_load(client, config, chaos_driver=driver)
            assert fired == ["kill-worker", "kill-worker"]
            assert [e["at_s"] for e in report.chaos_events] == [0.0, 0.05]
            assert all(e["ok"] for e in report.chaos_events)
        finally:
            service.close()

    def test_chaos_driver_exception_is_contained(self, tmp_path):
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        service = PKAService(harness, port=0)
        service.start()

        def driver(action: str) -> dict:
            raise RuntimeError("chaos gadget misfired")

        try:
            client = ServiceClient(port=service.port, timeout=10.0)
            config = LoadConfig(
                jobs=2,
                mode="closed",
                concurrency=1,
                seed=3,
                workloads=("gauss_208",),
                methods=("silicon",),
                timeout=60.0,
                chaos=("kill-worker@0.0",),
            )
            report = run_load(client, config, chaos_driver=driver)
            # The load completed despite the driver blowing up.
            assert report.completed == 2
            assert report.chaos_events[0]["ok"] is False
            assert "misfired" in report.chaos_events[0]["reason"]
        finally:
            service.close()

    def test_report_scrape_waits_for_the_fleet_to_count_a_kill(self):
        """A worker killed at the end of the load shows in the report
        even when the fleet counts its death only on a later scrape."""

        class LateDeathClient:
            def __init__(self):
                self.scrapes = 0

            def submit(self, request):
                return {"job_id": "j1", "created": True}

            def wait(self, job_id, timeout, poll):
                return {"state": "done", "latency_ms": 1.0}

            def metrics(self):
                self.scrapes += 1
                deaths = 1 if self.scrapes >= 3 else 0
                return {
                    "counters": {"fleet.worker_deaths": deaths},
                    "workers": {"slots": []},
                }

        client = LateDeathClient()
        config = LoadConfig(
            jobs=1, mode="closed", concurrency=1, workloads=("gauss_208",),
            chaos=("kill-worker@0.0",),
        )
        report = run_load(
            client, config,
            chaos_driver=lambda action: {"action": action, "ok": True},
        )
        assert report.server_metrics["counters"]["fleet.worker_deaths"] == 1
        assert client.scrapes == 3
        # A failed kill is nothing to wait for: one scrape.
        client = LateDeathClient()
        report = run_load(
            client, config,
            chaos_driver=lambda action: {"action": action, "ok": False},
        )
        assert client.scrapes == 1

    def test_default_driver_reports_no_live_workers(self, tmp_path):
        """Against a fleetless service, kill-worker is a recorded no-op,
        not an exception."""
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        service = PKAService(harness, port=0)
        service.start()
        try:
            client = ServiceClient(port=service.port, timeout=10.0)
            driver = default_chaos_driver(client, random.Random(1))
            outcome = driver("kill-worker")
            assert outcome["ok"] is False
            assert outcome["reason"] == "no live workers"
        finally:
            service.close()


class TestReconciliationUnderShedding:
    @pytest.fixture(autouse=True)
    def _obs_reset(self):
        obs.reset()
        yield
        obs.reset()

    def test_shed_submissions_balance_against_server_counters(self, tmp_path):
        """The satellite invariant: with shedding in play,
        jobs_submitted - jobs_shed == accepted - deduplicated."""
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        service = PKAService(harness, port=0, max_queue=1)
        service.start(run_scheduler=False)  # parked: queue fills instantly
        try:
            client = ServiceClient(port=service.port, timeout=10.0)
            config = LoadConfig(
                jobs=3,
                mode="open",
                rate=1000.0,
                duplicate_ratio=0.0,
                seed=17,
                workloads=("gauss_208", "histo", "fdtd2d"),
                methods=("silicon",),
                timeout=1.0,  # the one queued job never runs; time out fast
                poll=0.05,
            )
            report = run_load(client, config)
            assert report.accepted == 1
            assert report.shed == 2  # 429s are shed, not "rejected"
            assert report.rejected == 0
            assert not report.clean
            reconciliation = report.reconcile()
            assert reconciliation["balanced"] is True
            assert reconciliation["server_jobs_shed"] == 2
            assert reconciliation["client_fresh_accepted"] == 1
        finally:
            service.close()

    def test_reconcile_with_dead_server_is_inconclusive(self):
        report = LoadReport(config=LoadConfig(jobs=1))
        report.accepted = 1
        report.server_metrics = None  # coordinator killed by chaos
        reconciliation = report.reconcile()
        assert reconciliation["balanced"] is None
        assert reconciliation["server_available"] is False


class TestTrafficShapes:
    def test_constant_shape_is_identity(self):
        multiplier = parse_shape("constant")
        assert [multiplier(t) for t in (0.0, 1.0, 100.0)] == [1.0, 1.0, 1.0]

    def test_burst_shape_steps_at_the_switch_time(self):
        multiplier = parse_shape("burst:10@2.5")
        assert multiplier(2.4) == 1.0
        assert multiplier(2.5) == 10.0
        assert multiplier(60.0) == 10.0

    def test_ramp_and_diurnal_shapes(self):
        ramp = parse_shape("ramp:0.5")
        assert ramp(0.0) == 1.0
        assert ramp(4.0) == pytest.approx(3.0)
        diurnal = parse_shape("diurnal:8")
        assert diurnal(0.0) == pytest.approx(1.0)
        assert diurnal(2.0) == pytest.approx(1.5)  # peak at period/4
        assert diurnal(6.0) == pytest.approx(0.5)  # trough at 3/4
        assert min(diurnal(t / 10) for t in range(200)) > 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "squarewave",
            "burst",
            "burst:10",          # missing @time
            "burst:0.5@1",       # factor < 1
            "burst:2@-1",        # negative switch time
            "ramp:-0.1",
            "diurnal:0",
            "diurnal:x",
        ],
    )
    def test_bad_shape_spec_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_shape(spec)

    def test_load_config_validates_shape_eagerly(self):
        with pytest.raises(ValueError):
            LoadConfig(jobs=1, mode="open", shape="burst:nope")

    def test_shapes_are_open_loop_only(self):
        with pytest.raises(ValueError, match="open-loop"):
            LoadConfig(jobs=1, mode="closed", shape="ramp:0.5")
        # closed + constant stays legal (the default).
        LoadConfig(jobs=1, mode="closed", shape="constant")

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError):
            LoadConfig(jobs=1, deadline_s=0.0)
        assert LoadConfig(jobs=1, deadline_s=2.5).deadline_s == 2.5

    def test_arrival_offsets_deterministic_and_start_at_zero(self):
        config = LoadConfig(jobs=8, mode="open", rate=4.0, shape="diurnal:3")
        first = arrival_offsets(config)
        second = arrival_offsets(config)
        assert first == second
        assert first[0] == 0.0
        assert all(b >= a for a, b in zip(first, first[1:]))

    def test_burst_offsets_densify_after_the_switch(self):
        config = LoadConfig(jobs=9, mode="open", rate=2.0, shape="burst:4@1")
        offsets = arrival_offsets(config)
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        # Pre-burst gap is 1/rate; post-burst gap is 1/(rate*factor).
        assert gaps[0] == pytest.approx(0.5)
        assert gaps[-1] == pytest.approx(0.125)

    def test_ramp_offsets_have_shrinking_gaps(self):
        config = LoadConfig(jobs=10, mode="open", rate=2.0, shape="ramp:1.0")
        offsets = arrival_offsets(config)
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_deadline_rides_on_every_planned_request(self):
        config = LoadConfig(jobs=6, seed=3, deadline_s=7.5)
        plan = build_plan(config)
        assert all(request.deadline_s == 7.5 for request in plan)

    @pytest.mark.parametrize(
        "shape", ["constant", "burst:5@0.2", "ramp:2.0", "diurnal:1.5"]
    )
    def test_reconciliation_invariant_holds_under_every_shape(
        self, tmp_path, shape
    ):
        """The satellite invariant: whatever the arrival process, every
        submission is accounted for — accepted jobs all reach terminal
        states and client/server tallies balance."""
        obs.reset()
        harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache"
        )
        service = PKAService(harness, port=0, max_queue=64)
        service.start()
        try:
            client = ServiceClient(port=service.port, timeout=10.0)
            config = LoadConfig(
                jobs=8,
                mode="open",
                rate=20.0,
                shape=shape,
                duplicate_ratio=0.25,
                seed=29,
                workloads=("gauss_208", "histo"),
                methods=("silicon",),
                timeout=60.0,
            )
            report = run_load(client, config)
            assert report.submitted == 8
            assert report.errors == 0
            assert report.completed == report.accepted
            reconciliation = report.reconcile()
            assert reconciliation["balanced"] is True
            document = report.to_document()
            assert document["config"]["shape"] == shape
        finally:
            service.close()
