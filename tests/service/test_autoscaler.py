"""Autoscaler tests: policy hysteresis, elastic pool mechanics,
deadline-aware admission, and the seeded burst acceptance scenario.

The policy tests drive :meth:`Autoscaler.step` with synthetic
:class:`FleetSignals` traces and an explicit clock — no processes — so
hysteresis properties (consecutive breaches, per-direction cooldowns,
zero flap on an oscillating trace) are pinned down deterministically.
The pool tests run a real :class:`WorkerSupervisor` and assert the
property the tentpole promises: graceful scale-down never loses or
duplicates an in-flight job (exactly-once terminal, by the journal).
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.analysis.harness import EvaluationHarness
from repro.errors import DeadlineUnattainableError, QueueFullError
from repro.sim.parallel import FaultPolicy
from repro.service import (
    Autoscaler,
    AutoscalerConfig,
    FleetSignals,
    JobJournal,
    JobRequest,
    PKAService,
    Scheduler,
    ServiceClient,
    WorkerSupervisor,
)

WORKLOAD = "gauss_208"
SLOW_WORKLOAD = "mlperf_ssd_training"  # ~quarter second of silicon sim


@pytest.fixture(autouse=True)
def _tracing():
    obs.reset()
    obs.enable()
    yield
    obs.reset()


def _wait(predicate, timeout: float = 30.0, message: str = "condition") -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.02)


class _FakeSupervisor:
    """Records grow/retire calls; workers is a plain counter."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.grows: list[int] = []
        self.retires: list[tuple[int, float]] = []

    def grow(self, count: int) -> int:
        self.workers += count
        self.grows.append(count)
        return self.workers

    def retire(self, count: int = 1, *, grace: float = 10.0) -> int:
        self.workers -= count
        self.retires.append((count, grace))
        return count


class _FakeScheduler:
    def __init__(self, supervisor: _FakeSupervisor) -> None:
        self.supervisor = supervisor
        self.fleet_notes: list[tuple[str, dict]] = []

    def note_fleet(self, action: str, **data) -> None:
        self.fleet_notes.append((action, data))


def _bound(config: AutoscalerConfig, workers: int) -> tuple[Autoscaler, _FakeSupervisor]:
    supervisor = _FakeSupervisor(workers)
    scaler = Autoscaler(config)
    scaler.bind(_FakeScheduler(supervisor))
    return scaler, supervisor


def _signals(supervisor: _FakeSupervisor, depth: int, busy: int = 0, **kw) -> FleetSignals:
    return FleetSignals(
        queue_depth=depth,
        busy=busy,
        serving=supervisor.workers,
        configured=supervisor.workers,
        **kw,
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_workers": 0},
            {"min_workers": 3, "max_workers": 2},
            {"interval": 0.0},
            {"slo_queue_wait_s": 0.0},
            {"target_queue_per_worker": 0.0},
            {"down_queue_per_worker": -0.1},
            # Dead band inverted: down watermark at/above up watermark.
            {"target_queue_per_worker": 1.0, "down_queue_per_worker": 1.0},
            {"breaches_up": 0},
            {"breaches_down": 0},
            {"cooldown_up": -1.0},
            {"drain_grace": 0.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AutoscalerConfig(**kwargs)


class TestPolicy:
    CFG = AutoscalerConfig(
        min_workers=1,
        max_workers=4,
        interval=0.25,
        slo_queue_wait_s=2.0,
        target_queue_per_worker=2.0,
        down_queue_per_worker=0.5,
        breaches_up=2,
        breaches_down=4,
        cooldown_up=0.5,
        cooldown_down=2.0,
    )

    def test_single_breach_sample_never_scales(self):
        scaler, supervisor = _bound(self.CFG, workers=1)
        decision = scaler.step(_signals(supervisor, depth=8), now=0.0)
        assert decision.action == "none"
        assert supervisor.grows == []

    def test_sustained_breach_scales_up_to_demand(self):
        scaler, supervisor = _bound(self.CFG, workers=1)
        scaler.step(_signals(supervisor, depth=7, busy=1), now=0.0)
        decision = scaler.step(_signals(supervisor, depth=7, busy=1), now=0.25)
        # demand 8 / 2-per-worker = 4 workers wanted.
        assert decision.action == "scale-up"
        assert decision.to_workers == 4
        assert supervisor.workers == 4
        assert scaler.scale_ups == 1
        # The transition is journaled as a fleet audit record.
        notes = scaler.scheduler.fleet_notes
        assert notes and notes[0][0] == "scale-up"

    def test_scale_up_clamped_at_max_workers(self):
        scaler, supervisor = _bound(self.CFG, workers=4)
        for step in range(6):
            decision = scaler.step(
                _signals(supervisor, depth=50), now=step * 0.25
            )
            assert decision.action == "none"  # pinned at max: no breach
        assert supervisor.workers == 4
        assert scaler.snapshot()["pinned_at_max"] is True

    def test_slo_breach_scales_up_even_when_demand_model_is_satisfied(self):
        scaler, supervisor = _bound(self.CFG, workers=2)
        # demand 3 fits 2 workers (ceil(3/2)=2), but the oldest queued
        # job has blown the queue-wait SLO.
        trace = _signals(supervisor, depth=2, busy=1, oldest_wait_s=5.0)
        scaler.step(trace, now=0.0)
        decision = scaler.step(trace, now=0.25)
        assert decision.action == "scale-up"
        assert supervisor.workers == 3
        assert "SLO" in decision.reason

    def test_cooldown_suppresses_back_to_back_scale_ups(self):
        scaler, supervisor = _bound(self.CFG, workers=1)
        scaler.step(_signals(supervisor, depth=3), now=0.0)
        assert scaler.step(_signals(supervisor, depth=3), now=0.25).action == "scale-up"
        # Demand keeps breaching, but the up cooldown (0.5s) has not
        # elapsed: the due decision is suppressed and counted.
        scaler.step(_signals(supervisor, depth=9), now=0.3)
        decision = scaler.step(_signals(supervisor, depth=9), now=0.4)
        assert decision.action == "suppressed"
        assert scaler.flap_suppressed >= 1
        # Once the cooldown passes, the sustained breach acts.
        decision = scaler.step(_signals(supervisor, depth=9), now=0.9)
        assert decision.action == "scale-up"

    def test_scale_down_requires_long_streak_and_steps_by_one(self):
        scaler, supervisor = _bound(self.CFG, workers=3)
        for step in range(3):
            decision = scaler.step(_signals(supervisor, depth=0), now=step * 0.25)
            assert decision.action == "none"
        decision = scaler.step(_signals(supervisor, depth=0), now=0.75)
        assert decision.action == "scale-down"
        assert supervisor.workers == 2
        assert supervisor.retires == [(1, self.CFG.drain_grace)]

    def test_scale_down_never_goes_below_min_workers(self):
        scaler, supervisor = _bound(self.CFG, workers=1)
        for step in range(12):
            decision = scaler.step(_signals(supervisor, depth=0), now=step * 0.25)
            assert decision.action == "none"
        assert supervisor.workers == 1

    def test_oscillating_load_around_threshold_causes_zero_flap(self):
        """The ISSUE's hysteresis criterion: a load trace that crosses
        the scale-up watermark every other sample must produce zero
        scaling decisions — the dead band plus the consecutive-breach
        requirement absorbs it entirely."""
        scaler, supervisor = _bound(self.CFG, workers=2)
        # Alternate between "just above" the up watermark (demand 5 >
        # 2 workers * 2/worker) and mid-band (demand 2: neither up nor
        # down for 2 workers, since down needs demand <= 0.5).
        for step in range(100):
            depth = 5 if step % 2 == 0 else 2
            decision = scaler.step(
                _signals(supervisor, depth=depth), now=step * 0.25
            )
            assert decision.action == "none"
        assert supervisor.workers == 2
        assert scaler.scale_ups == 0
        assert scaler.scale_downs == 0
        assert scaler.flap_suppressed == 0
        assert scaler.evaluations == 100

    def test_burst_then_idle_decision_count_is_bounded(self):
        """A full burst cycle makes exactly the decisions it needs:
        up to max, then one graceful step down per cooldown window back
        to min — never an up/down ping-pong."""
        scaler, supervisor = _bound(self.CFG, workers=1)
        now = 0.0
        for _ in range(40):  # sustained 10x burst
            scaler.step(_signals(supervisor, depth=20), now=now)
            now += 0.25
        assert supervisor.workers == 4
        for _ in range(120):  # sustained idle
            scaler.step(_signals(supervisor, depth=0), now=now)
            now += 0.25
        assert supervisor.workers == 1
        assert scaler.scale_ups <= 3  # 1 -> 4 in at most 3 moves
        assert scaler.scale_downs == 3  # 4 -> 1, one worker at a time
        actions = scaler.scale_ups + scaler.scale_downs
        assert actions <= 6

    def test_snapshot_reports_decision_and_counters(self):
        scaler, supervisor = _bound(self.CFG, workers=1)
        scaler.step(_signals(supervisor, depth=4), now=0.0)
        scaler.step(_signals(supervisor, depth=4), now=0.25)
        snapshot = scaler.snapshot()
        assert snapshot["min_workers"] == 1
        assert snapshot["max_workers"] == 4
        assert snapshot["current_workers"] == supervisor.workers
        assert snapshot["last_decision"]["action"] == "scale-up"
        assert snapshot["counters"]["scale_ups"] == 1
        assert snapshot["counters"]["evaluations"] == 2


class TestElasticPool:
    """Real supervisor: grow/retire mechanics and the loss-free
    scale-down property."""

    def test_grow_adds_live_workers_with_stable_ids(self, tmp_path):
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        supervisor = WorkerSupervisor(harness, workers=1)
        scheduler = Scheduler(harness, supervisor=supervisor)
        scheduler.start()
        try:
            assert supervisor.workers == 1
            assert supervisor.grow(2) == 3
            assert supervisor.workers == 3
            _wait(lambda: supervisor.alive_workers == 3, message="3 alive")
            snapshot = supervisor.snapshot()
            assert {s["worker_id"] for s in snapshot["slots"]} == {0, 1, 2}
            assert snapshot["grown"] == 2
            # The new capacity actually computes.
            record, _ = scheduler.submit(
                JobRequest(workload=WORKLOAD, method="silicon")
            )
            _wait(lambda: record.terminal, message="job terminal")
            assert record.state == "done"
        finally:
            scheduler.close()

    def test_retire_idle_worker_is_graceful_and_final(self, tmp_path):
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        supervisor = WorkerSupervisor(harness, workers=2)
        journal = JobJournal(tmp_path / "journal.jsonl")
        scheduler = Scheduler(harness, supervisor=supervisor, journal=journal)
        scheduler.start()
        try:
            _wait(lambda: supervisor.alive_workers == 2, message="2 alive")
            assert supervisor.retire(1, grace=5.0) == 1
            _wait(lambda: supervisor.workers == 1, message="retirement")
            assert supervisor.retired_total == 1
            # Retired slots are hidden from the snapshot and never respawn.
            snapshot = supervisor.snapshot()
            assert snapshot["configured"] == 1
            assert snapshot["retired"] == 1
            time.sleep(0.4)  # longer than the respawn backoff
            assert supervisor.workers == 1
            counters = obs.get_tracer().counters
            assert counters["fleet.retired"] == 1
        finally:
            scheduler.close()
        # The transition is auditable from the journal.
        events = [r for r in JobJournal(tmp_path / "journal.jsonl").replay()
                  if r.event == "fleet"]
        assert any(r.data.get("graceful") for r in events)

    def test_graceful_scale_down_never_loses_or_duplicates_jobs(self, tmp_path):
        """The tentpole property: retire a busy worker mid-burst; every
        accepted job reaches exactly one terminal state (journal-proved),
        none are lost, none run twice."""
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        supervisor = WorkerSupervisor(harness, workers=2)
        journal_path = tmp_path / "journal.jsonl"
        scheduler = Scheduler(
            harness, supervisor=supervisor, journal=JobJournal(journal_path)
        )
        scheduler.start()
        try:
            _wait(lambda: supervisor.alive_workers == 2, message="2 alive")
            # Distinct slow cells so both workers stay busy for a while.
            cells = [
                ("mlperf_ssd_training", "volta"),
                ("mlperf_gnmt_training", "volta"),
                ("mlperf_resnet50_64b", "turing"),
                ("mlperf_bert_inference", "turing"),
                ("mlperf_ssd_training", "ampere"),
                ("mlperf_gnmt_training", "ampere"),
            ]
            records = [
                scheduler.submit(
                    JobRequest(workload=w, method="silicon", gpu=g)
                )[0]
                for w, g in cells
            ]
            _wait(lambda: supervisor.busy_workers >= 1, message="busy worker")
            # Retire one worker while it is (very likely) mid-job.
            assert supervisor.retire(1, grace=30.0) == 1
            for record in records:
                _wait(lambda r=record: r.terminal, message=f"{record.job_id}")
            assert all(r.state == "done" for r in records)
            _wait(lambda: supervisor.workers == 1, message="pool shrunk")
            clean = scheduler.drain(timeout=30.0)
            assert clean
        finally:
            scheduler.close()
        # Journal audit: exactly one completed record per accepted job.
        replayed = JobJournal(journal_path).replay()
        accepted = [r.job_id for r in replayed if r.event == "accepted"]
        completed = [r.job_id for r in replayed if r.event == "completed"]
        assert sorted(set(accepted)) == sorted(accepted)  # no double-accept
        assert sorted(completed) == sorted(set(completed))  # exactly-once
        assert set(accepted) == set(completed)  # nothing lost

    def test_drain_deadline_falls_back_to_redispatch(self, tmp_path):
        """A draining worker that cannot finish in time is reaped through
        the crash-recovery path: its job re-dispatches and completes."""
        harness = EvaluationHarness(
            backend="serial",
            cache_dir=tmp_path / "cache",
            fault_policy=FaultPolicy(max_retries=2, timeout_seconds=10.0),
        )
        supervisor = WorkerSupervisor(harness, workers=2)
        scheduler = Scheduler(harness, supervisor=supervisor)
        scheduler.start()
        try:
            _wait(lambda: supervisor.alive_workers == 2, message="2 alive")
            # A hang fault parks the job forever: the drain grace must
            # expire and the kill+redispatch path must recover it (the
            # fault is transient, so the second dispatch computes).
            record, _ = scheduler.submit(
                JobRequest(workload=WORKLOAD, method="silicon", fault="hang")
            )
            _wait(lambda: supervisor.busy_workers >= 1, message="dispatch")
            # Retire both: the idle worker retires at once; the busy one
            # drains, blows the 0.2s grace, and is reaped (kill + requeue).
            assert supervisor.retire(2, grace=0.2) == 2
            _wait(
                lambda: record.redispatches >= 1,
                timeout=30.0,
                message="drain-deadline reap",
            )
            assert not record.terminal  # requeued, not lost
            # Restore capacity; the transient hang clears on the retry.
            supervisor.grow(1)
            _wait(lambda: record.terminal, timeout=60.0, message="recovery")
            assert record.state == "done"
            assert record.redispatches >= 1
        finally:
            scheduler.close()

    def test_grow_resurrects_a_draining_worker(self, tmp_path):
        """A scale-up that races a scale-down cancels the drain instead
        of forking a new process."""
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        supervisor = WorkerSupervisor(harness, workers=2)
        scheduler = Scheduler(harness, supervisor=supervisor)
        scheduler.start()
        try:
            _wait(lambda: supervisor.alive_workers == 2, message="2 alive")
            # Park a job on a worker so the victim drains instead of
            # retiring instantly.
            record, _ = scheduler.submit(
                JobRequest(workload=SLOW_WORKLOAD, method="silicon", gpu="volta")
            )
            _wait(lambda: supervisor.busy_workers >= 1, message="dispatch")
            assert supervisor.retire(2, grace=30.0) >= 1
            with supervisor._lock:
                draining = sum(1 for s in supervisor._slots if s.draining)
            assert draining >= 1
            assert supervisor.grow(draining) == 2  # no new slot appended
            with supervisor._lock:
                assert all(not s.draining for s in supervisor._slots)
                assert len(supervisor._slots) == 2
            _wait(lambda: record.terminal, message="job finishes")
        finally:
            scheduler.close()


class TestDeadlineAdmission:
    def _scheduler(self, tmp_path, **kwargs) -> Scheduler:
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        return Scheduler(harness, **kwargs)  # unstarted: jobs stay queued

    def test_cold_estimator_never_sheds(self, tmp_path):
        scheduler = self._scheduler(tmp_path, default_deadline=0.001)
        record, created = scheduler.submit(
            JobRequest(workload=WORKLOAD, method="silicon")
        )
        assert created and record.state == "queued"
        assert scheduler.estimate_queue_wait() is None

    def test_predicted_wait_beyond_deadline_sheds_with_derived_retry(self, tmp_path):
        scheduler = self._scheduler(tmp_path)
        # Warm the estimator: observed service time 0.5s/job, capacity 1.
        scheduler._observe_service_time(0.5)
        for workload in ("histo", "fdtd2d"):
            scheduler.submit(JobRequest(workload=workload, method="silicon"))
        # Backlog 2 + this job = 3 jobs * 0.5s = 1.5s predicted wait.
        with pytest.raises(DeadlineUnattainableError) as excinfo:
            scheduler.submit(
                JobRequest(workload=WORKLOAD, method="silicon", deadline_s=0.4)
            )
        exc = excinfo.value
        assert exc.predicted_wait == pytest.approx(1.5, rel=0.01)
        assert exc.deadline == pytest.approx(0.4)
        # Retry-After is derived from the backlog, not a static constant.
        assert exc.retry_after == pytest.approx(1.1, rel=0.01)
        # No phantom registry entry; counters tell the story.
        assert all(
            r.request.workload != WORKLOAD for r in scheduler.jobs()
        )
        counters = obs.get_tracer().counters
        assert counters["service.deadline_sheds"] == 1
        assert counters["service.jobs_shed"] == 1
        # A deadline the backlog fits is admitted.
        record, _ = scheduler.submit(
            JobRequest(workload=WORKLOAD, method="silicon", deadline_s=10.0)
        )
        assert record.state == "queued"

    def test_default_deadline_applies_when_request_has_none(self, tmp_path):
        scheduler = self._scheduler(tmp_path, default_deadline=0.2)
        scheduler._observe_service_time(1.0)
        scheduler.submit(
            JobRequest(workload="histo", method="silicon", deadline_s=60.0)
        )
        with pytest.raises(DeadlineUnattainableError):
            scheduler.submit(JobRequest(workload=WORKLOAD, method="silicon"))
        assert scheduler.in_brownout()

    def test_queue_full_retry_after_is_backlog_derived_when_warm(self, tmp_path):
        scheduler = self._scheduler(tmp_path, max_queue=1, retry_after=9.0)
        record, _ = scheduler.submit(JobRequest(workload="histo", method="silicon"))
        assert record.state == "queued"
        # Cold estimator: static fallback.
        with pytest.raises(QueueFullError) as cold:
            scheduler.submit(JobRequest(workload=WORKLOAD, method="silicon"))
        assert cold.value.retry_after == pytest.approx(9.0)
        # Warm estimator: advice becomes time-for-one-slot-to-open.
        scheduler._observe_service_time(2.0)
        with pytest.raises(QueueFullError) as warm:
            scheduler.submit(JobRequest(workload="fdtd2d", method="silicon"))
        assert warm.value.retry_after == pytest.approx(2.0, rel=0.01)

    def test_deadline_does_not_change_job_identity(self, tmp_path):
        scheduler = self._scheduler(tmp_path)
        first, created = scheduler.submit(
            JobRequest(workload=WORKLOAD, method="silicon", deadline_s=5.0)
        )
        again, created2 = scheduler.submit(
            JobRequest(workload=WORKLOAD, method="silicon", deadline_s=50.0)
        )
        assert created and not created2
        assert again.job_id == first.job_id

    def test_brownout_surfaces_on_readyz_and_metrics(self, tmp_path):
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        service = PKAService(harness, port=0, default_deadline=0.1)
        service.start(run_scheduler=False)  # jobs queue, never dispatch
        try:
            client = ServiceClient(port=service.port, timeout=10.0)
            status, document = service.readiness()
            assert (status, document["status"]) == (200, "ready")
            service.scheduler._observe_service_time(1.0)
            # Queue one job (large explicit deadline so it is admitted).
            client.submit(
                JobRequest(
                    workload="histo", method="silicon", deadline_s=60.0
                )
            )
            # The wire carries the typed 429 with both sides of the math.
            with pytest.raises(DeadlineUnattainableError) as excinfo:
                client.submit(JobRequest(workload=WORKLOAD, method="silicon"))
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after > 0
            assert excinfo.value.predicted_wait is not None
            status, document = service.readiness()
            assert status == 200
            assert document["status"] == "brownout"
            metrics = client.metrics()
            assert metrics["admission"]["brownout"] is True
            assert metrics["admission"]["default_deadline_s"] == 0.1
            assert metrics["queue_age"]["oldest_wait_s"] is not None
            assert metrics["counters"]["service.deadline_sheds"] == 1
        finally:
            service.close()


class TestQueueAgeMetrics:
    def test_queue_wait_percentiles_recorded_at_dispatch(self, tmp_path):
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        service = PKAService(harness, port=0)
        service.start()
        try:
            client = ServiceClient(port=service.port, timeout=10.0)
            result = client.submit_and_wait(
                JobRequest(workload=WORKLOAD, method="silicon"), timeout=60.0
            )
            assert result["job"]["state"] == "done"
            assert result["job"]["queue_wait_ms"] is not None
            metrics = client.metrics()
            queue_age = metrics["queue_age"]
            assert queue_age["count"] >= 1
            assert queue_age["p50_ms"] is not None
            assert queue_age["p95_ms"] is not None
            assert queue_age["oldest_wait_s"] is None  # queue drained
        finally:
            service.close()


class TestBurstAcceptance:
    def test_seeded_burst_scales_up_then_back_and_loses_nothing(self, tmp_path):
        """The PR's acceptance scenario: a seeded 10x burst against an
        elastic min-1/max-4 fleet.  The pool must grow under the burst,
        every accepted job must reach a terminal state, any shed job
        must carry backlog-derived Retry-After, the pool must return to
        min after the burst, and the journal and /metricsz must
        reconcile with zero lost or duplicated jobs."""
        from repro.service import LoadConfig, run_load

        harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache"
        )
        autoscale = AutoscalerConfig(
            min_workers=1,
            max_workers=4,
            interval=0.05,
            slo_queue_wait_s=0.5,
            target_queue_per_worker=2.0,
            down_queue_per_worker=0.5,
            breaches_up=2,
            breaches_down=3,
            cooldown_up=0.1,
            cooldown_down=0.3,
            drain_grace=10.0,
        )
        journal_path = tmp_path / "journal.jsonl"
        service = PKAService(
            harness,
            port=0,
            autoscale=autoscale,
            journal_path=journal_path,
            max_queue=64,
        )
        service.start()
        try:
            assert service.supervisor.workers == 1  # starts at min
            client = ServiceClient(port=service.port, timeout=10.0, seed=11)
            config = LoadConfig(
                jobs=24,
                mode="open",
                rate=8.0,
                shape="burst:10@0.4",
                seed=20260809,
                workloads=(
                    "mlperf_ssd_training",
                    "mlperf_gnmt_training",
                    "mlperf_resnet50_64b",
                    "mlperf_bert_inference",
                ),
                methods=("silicon",),
                gpus=("volta", "turing", "ampere"),
                timeout=120.0,
            )
            report = run_load(client, config)

            # Nothing lost: every accepted job reached a terminal state.
            assert report.submitted == config.jobs
            assert report.errors == 0
            assert report.completed == report.accepted
            assert report.failed == 0
            # Any shed carried backlog-derived (positive) retry advice.
            assert len(report.shed_retry_afters) == report.shed
            assert all(advice > 0 for advice in report.shed_retry_afters)
            reconciliation = report.reconcile()
            assert reconciliation["balanced"] is True

            # The burst forced the pool above min within the run.
            scaler_snapshot = service.autoscaler.snapshot()
            assert scaler_snapshot["counters"]["scale_ups"] >= 1
            assert service.supervisor.grown_total >= 1

            # ... and idleness brings it back down to min.
            _wait(
                lambda: service.supervisor.workers == autoscale.min_workers,
                timeout=30.0,
                message="pool back at min",
            )
            assert service.autoscaler.scale_downs >= 1

            metrics = client.metrics()
            assert metrics["queue_depth"] == 0
            assert metrics["autoscaler"]["current_workers"] == 1
            assert metrics["workers"]["retired"] >= 1

            # Journal reconciliation (before drain — clean shutdown
            # compacts the journal, which drops the fleet audit trail):
            # every accepted job id completed exactly once, and the
            # scaling transitions are on record.
            replayed = JobJournal(journal_path).replay()
            accepted = [r.job_id for r in replayed if r.event == "accepted"]
            completed = [r.job_id for r in replayed if r.event == "completed"]
            assert set(accepted) == set(completed)
            assert sorted(completed) == sorted(set(completed))
            fleet_actions = {
                r.job_id for r in replayed if r.event == "fleet"
            }
            assert "fleet:scale-up" in fleet_actions
            assert "fleet:scale-down" in fleet_actions

            manifest, clean = service.drain(timeout=60.0)
            assert clean
        finally:
            service.close()
