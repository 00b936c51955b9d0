"""Scheduler tests: single-flight dedup, cache fast path, cancellation."""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.analysis.harness import EvaluationHarness
from repro.errors import (
    InvalidJobRequestError,
    JobNotFinishedError,
    JobNotFoundError,
    QueueFullError,
    ServiceDrainingError,
)
from repro.service import JobRequest, Scheduler

WORKLOAD = "gauss_208"


@pytest.fixture(autouse=True)
def _tracing():
    """Scheduler metrics ride on repro.obs counters; reset around each test."""
    obs.reset()
    obs.enable()
    yield
    obs.reset()


@pytest.fixture
def cached_harness(tmp_path) -> EvaluationHarness:
    return EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")


def _wait_terminal(record, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not record.terminal:
        if time.monotonic() > deadline:
            raise AssertionError(f"job {record.job_id} stuck in {record.state}")
        time.sleep(0.01)


class TestSingleFlight:
    def test_concurrent_identical_submissions_one_fanout(self, cached_harness):
        """Two racing identical submissions -> one computation, two
        successful observers."""
        scheduler = Scheduler(cached_harness)
        request = JobRequest(workload=WORKLOAD, method="silicon")
        records = []
        barrier = threading.Barrier(2)

        def submit() -> None:
            barrier.wait()
            record, _created = scheduler.submit(request)
            records.append(record)

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(records) == 2
        assert records[0] is records[1]  # same record: single flight
        scheduler.start()
        _wait_terminal(records[0])
        scheduler.close()
        assert records[0].state == "done"
        assert records[0].result is not None
        counters = obs.get_tracer().counters
        assert scheduler.metrics()["latency_ms"]["computed"]["count"] == 1
        assert counters["service.dedup_hits"] == 1
        assert counters["service.jobs_submitted"] == 1
        assert counters["service.jobs_done"] == 1

    def test_resubmit_after_done_attaches_to_record(self, cached_harness):
        scheduler = Scheduler(cached_harness)
        scheduler.start()
        request = JobRequest(workload=WORKLOAD, method="silicon")
        record, created = scheduler.submit(request)
        assert created
        _wait_terminal(record)
        again, created_again = scheduler.submit(request)
        scheduler.close()
        assert again is record
        assert not created_again
        assert again.dedup_hits == 1

    def test_faulted_twin_is_a_distinct_job(self, cached_harness):
        scheduler = Scheduler(cached_harness)
        clean, _ = scheduler.submit(JobRequest(workload=WORKLOAD, method="silicon"))
        faulted, created = scheduler.submit(
            JobRequest(workload=WORKLOAD, method="silicon", fault="exception")
        )
        scheduler.close()
        assert created
        assert faulted.job_id != clean.job_id


class TestDispatch:
    def test_one_job_per_dispatch_without_waiting_for_a_burst(
        self, cached_harness
    ):
        """Jobs queued together still run one cell per evaluate_cells
        call: in-process dispatch never holds a job back to batch it."""
        calls = []
        evaluate_cells = cached_harness.evaluate_cells

        def recording(cells, **kwargs):
            calls.append(len(cells))
            return evaluate_cells(cells, **kwargs)

        cached_harness.evaluate_cells = recording
        scheduler = Scheduler(cached_harness)
        records = [
            scheduler.submit(JobRequest(workload=w, method="silicon"))[0]
            for w in ("gauss_208", "histo", "fdtd2d")
        ]
        assert scheduler.queue.depth == 3
        scheduler.start()
        for record in records:
            _wait_terminal(record)
        scheduler.close()
        assert [record.state for record in records] == ["done"] * 3
        assert calls == [1, 1, 1]

    def test_jobs_write_no_sweep_manifest(self, cached_harness):
        """A served job is not a sweep: the drain manifest accounts for
        it, so computing jobs leaves <cache>/manifests/ empty."""
        scheduler = Scheduler(cached_harness)
        scheduler.start()
        records = [
            scheduler.submit(JobRequest(workload=w, method="silicon"))[0]
            for w in ("gauss_208", "histo")
        ]
        for record in records:
            _wait_terminal(record)
        scheduler.close()
        assert [record.source for record in records] == ["computed"] * 2
        manifests = cached_harness.run_cache.root / "manifests"
        assert not list(manifests.glob("*.json"))


class TestCacheFastPath:
    def test_warm_cache_completes_without_queue_or_dispatch(self, tmp_path):
        cache_dir = tmp_path / "cache"
        warmup = EvaluationHarness(backend="serial", cache_dir=cache_dir)
        warmup.evaluate_cells([(WORKLOAD, "silicon", None)])

        served = EvaluationHarness(backend="serial", cache_dir=cache_dir)
        scheduler = Scheduler(served)  # never started: nothing dispatches
        record, created = scheduler.submit(
            JobRequest(workload=WORKLOAD, method="silicon")
        )
        assert created
        assert record.state == "done"
        assert record.source == "cache"
        assert record.result is not None
        assert record.latency_ms is not None
        assert record.queue_wait_ms is None
        assert scheduler.queue.depth == 0
        counters = obs.get_tracer().counters
        assert counters["service.cache_hits"] == 1
        assert scheduler.metrics()["latency_ms"]["computed"]["count"] == 0

    def test_faulted_job_skips_the_cache_probe(self, tmp_path):
        cache_dir = tmp_path / "cache"
        warmup = EvaluationHarness(backend="serial", cache_dir=cache_dir)
        warmup.evaluate_cells([(WORKLOAD, "silicon", None)])

        scheduler = Scheduler(
            EvaluationHarness(backend="serial", cache_dir=cache_dir)
        )
        record, _ = scheduler.submit(
            JobRequest(workload=WORKLOAD, method="silicon", fault="exception")
        )
        # The injection must reach the backend, not be satisfied from cache.
        assert record.state == "queued"
        assert scheduler.queue.depth == 1


class TestValidationAndBackpressure:
    def test_unknown_workload_rejected_typed(self, cached_harness):
        scheduler = Scheduler(cached_harness)
        with pytest.raises(InvalidJobRequestError):
            scheduler.submit(JobRequest(workload="not_a_workload", method="silicon"))

    def test_unknown_method_rejected_typed(self, cached_harness):
        scheduler = Scheduler(cached_harness)
        with pytest.raises(InvalidJobRequestError):
            scheduler.submit(JobRequest(workload=WORKLOAD, method="astrology"))

    def test_queue_full_rolls_back_registry(self, cached_harness):
        scheduler = Scheduler(cached_harness, max_queue=1)
        scheduler.submit(JobRequest(workload=WORKLOAD, method="silicon"))
        rejected = JobRequest(workload="histo", method="silicon")
        with pytest.raises(QueueFullError):
            scheduler.submit(rejected)
        # The rejected job must not linger as a phantom dedup target.
        assert len(scheduler.jobs()) == 1
        with pytest.raises(QueueFullError):
            scheduler.submit(rejected)

    def test_draining_refuses_submissions(self, cached_harness):
        scheduler = Scheduler(cached_harness)
        scheduler._draining = True
        with pytest.raises(ServiceDrainingError):
            scheduler.submit(JobRequest(workload=WORKLOAD, method="silicon"))


class TestCancel:
    def test_cancel_queued_job(self, cached_harness):
        scheduler = Scheduler(cached_harness)  # unstarted: stays queued
        record, _ = scheduler.submit(JobRequest(workload=WORKLOAD, method="silicon"))
        cancelled = scheduler.cancel(record.job_id)
        assert cancelled is record
        assert record.state == "cancelled"
        assert scheduler.queue.depth == 0
        assert obs.get_tracer().counters["service.jobs_cancelled"] == 1

    def test_cancel_is_idempotent_on_terminal(self, cached_harness):
        scheduler = Scheduler(cached_harness)
        record, _ = scheduler.submit(JobRequest(workload=WORKLOAD, method="silicon"))
        scheduler.cancel(record.job_id)
        assert scheduler.cancel(record.job_id).state == "cancelled"

    def test_cancel_unknown_job(self, cached_harness):
        scheduler = Scheduler(cached_harness)
        with pytest.raises(JobNotFoundError):
            scheduler.cancel("j-missing")

    def test_result_before_terminal_raises(self, cached_harness):
        scheduler = Scheduler(cached_harness)
        record, _ = scheduler.submit(JobRequest(workload=WORKLOAD, method="silicon"))
        with pytest.raises(JobNotFinishedError):
            scheduler.result(record.job_id)


class TestFailures:
    def test_persistent_fault_fails_the_job_not_the_service(self, cached_harness):
        scheduler = Scheduler(cached_harness)
        scheduler.start()
        bad, _ = scheduler.submit(
            JobRequest(workload=WORKLOAD, method="silicon", fault="exceptionxP")
        )
        good, _ = scheduler.submit(JobRequest(workload="histo", method="silicon"))
        _wait_terminal(bad)
        _wait_terminal(good)
        scheduler.close()
        assert bad.state == "failed"
        assert bad.error is not None
        assert bad.error["error_type"] == "FaultInjectedError"
        assert good.state == "done"

    def test_transient_fault_retries_to_done(self, cached_harness):
        scheduler = Scheduler(cached_harness)
        scheduler.start()
        record, _ = scheduler.submit(
            JobRequest(workload=WORKLOAD, method="silicon", fault="exception")
        )
        _wait_terminal(record)
        scheduler.close()
        assert record.state == "done"
        assert obs.get_tracer().counters["tasks.retries"] >= 1


class TestDrain:
    def test_drain_completes_all_accepted_jobs(self, cached_harness):
        scheduler = Scheduler(cached_harness)
        scheduler.start()
        records = [
            scheduler.submit(JobRequest(workload=w, method="silicon"))[0]
            for w in ("gauss_208", "histo", "fdtd2d")
        ]
        clean = scheduler.drain(timeout=60.0)
        assert clean
        assert all(record.state == "done" for record in records)

    def test_drain_timeout_cancels_queued_jobs(self, cached_harness):
        scheduler = Scheduler(cached_harness)  # never started: job is stuck
        record, _ = scheduler.submit(JobRequest(workload=WORKLOAD, method="silicon"))
        clean = scheduler.drain(timeout=0.05)
        # The job was never lost: the drain converted it to a terminal
        # answer (cancelled), so the manifest accounts for everything.
        assert record.state == "cancelled"
        assert clean


class TestDrainVsSubmitRace:
    """The satellite race: a submission that slips past the draining
    check while drain() sweeps the queue must resolve exactly once —
    either refused (and rolled back) or owned by the drain — never left
    orphaned in ``queued``."""

    def test_draining_flag_set_between_check_and_enqueue(self, cached_harness):
        """Deterministic pin of the narrow interleaving: the drain flag
        flips after submit()'s entry check but before its enqueue.  The
        post-put re-check must pluck the record back out and refuse."""
        scheduler = Scheduler(cached_harness)
        original_put = scheduler.queue.put

        def put_then_drain(record):
            original_put(record)
            scheduler._draining = True  # drain starts *after* the enqueue

        scheduler.queue.put = put_then_drain
        with pytest.raises(ServiceDrainingError):
            scheduler.submit(JobRequest(workload=WORKLOAD, method="silicon"))
        # Exactly-once: no phantom registry entry, nothing in the queue.
        assert scheduler.jobs() == []
        assert scheduler.queue.depth == 0

    def test_concurrent_duplicates_during_drain_never_orphan(self, cached_harness):
        """Stress the real interleaving: one in-flight job, a drain, and
        a barrage of duplicate submissions racing it.  Afterwards every
        registered job is terminal and the in-flight record was
        cancelled exactly once."""
        scheduler = Scheduler(cached_harness)  # unstarted: job stays queued
        request = JobRequest(workload=WORKLOAD, method="silicon")
        record, _ = scheduler.submit(request)
        barrier = threading.Barrier(2)
        outcomes: list[str] = []

        def drain() -> None:
            barrier.wait()
            scheduler.drain(timeout=0.2)

        def duplicates() -> None:
            barrier.wait()
            for _ in range(50):
                try:
                    attached, created = scheduler.submit(request)
                except ServiceDrainingError:
                    outcomes.append("refused")
                else:
                    assert attached is record  # dedup, never a new job
                    outcomes.append("attached")

        threads = [
            threading.Thread(target=drain),
            threading.Thread(target=duplicates),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)

        # The in-flight job resolved exactly once (idempotent cancel).
        assert record.state == "cancelled"
        assert obs.get_tracer().counters["service.jobs_cancelled"] == 1
        # Nothing was orphaned: every record the registry knows about is
        # terminal, and the queue is empty.
        assert all(r.terminal for r in scheduler.jobs())
        assert scheduler.queue.depth == 0
        # Both outcomes are legal; silence (neither) is not.
        assert outcomes and set(outcomes) <= {"refused", "attached"}


class TestQueueWaitColdEstimator:
    """The admission estimator must survive transient fleet states.

    ``serving_workers`` can legitimately read zero for an instant during
    a scale event (every worker draining or being replaced); the
    queue-wait estimate must clamp to the single-dispatcher floor rather
    than divide by zero or return a non-finite shed-everything answer.
    """

    class _ScalingSupervisor:
        """Supervisor stub caught mid-replacement: alive but zero serving."""

        serving_workers = 0
        any_alive = True

    def test_zero_serving_workers_clamps_not_crashes(self, cached_harness):
        scheduler = Scheduler(cached_harness)
        # Attach after construction (bind() is the supervisor's side of
        # the handshake; the stub only exposes the liveness fields).
        scheduler.supervisor = self._ScalingSupervisor()
        # Cold estimator: no completions observed yet -> None, no shed.
        assert scheduler.estimate_queue_wait() is None
        # Warm estimator against the zero-serving fleet: finite, clamped
        # to capacity 1.
        scheduler._observe_service_time(2.0)
        estimate = scheduler.estimate_queue_wait(extra=3)
        assert estimate is not None
        assert estimate == pytest.approx(3 * 2.0)

    def test_nonfinite_ewma_returns_none(self, cached_harness):
        scheduler = Scheduler(cached_harness)
        scheduler._service_time_ewma_s = float("inf")
        assert scheduler.estimate_queue_wait(extra=1) is None
