"""Fleet-mode tests: supervised workers, crash recovery, durability.

The chaos scenarios here are the PR's acceptance criteria: a worker
SIGKILL (injected as a ``crash`` fault, which genuinely ``os._exit``\\ s
the worker process) loses no accepted job; a crash-looping poison job is
quarantined within its redispatch budget; with every worker down, warm
submissions still complete while cold ones shed with a typed 503; and a
coordinator restart replays the journal so completed jobs answer
byte-identically from cache and incomplete jobs re-run.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro import obs
from repro.analysis.harness import CellOutcome, EvaluationHarness
from repro.analysis.persistence import dump_run
from repro.errors import WorkersUnavailableError
from repro.sim.parallel import FaultPolicy
from repro.service import (
    JobJournal,
    JobRequest,
    PKAService,
    Scheduler,
    ServiceClient,
    WorkerSupervisor,
)
from repro.service.supervisor import (
    _deserialize_result,
    _serialize_result,
    _worker_main,
)

WORKLOAD = "gauss_208"


@pytest.fixture(autouse=True)
def _tracing():
    obs.reset()
    obs.enable()
    yield
    obs.reset()


def _wait_terminal(record, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not record.terminal:
        if time.monotonic() > deadline:
            raise AssertionError(f"job {record.job_id} stuck in {record.state}")
        time.sleep(0.01)


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` is a running process (a zombie counts as gone)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def _all_gone(pids, timeout: float = 10.0) -> bool:
    """Wait up to ``timeout`` for every pid in ``pids`` to exit."""
    deadline = time.monotonic() + timeout
    while any(map(_pid_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not any(map(_pid_alive, pids))


def _python(script: str, *args: str) -> subprocess.Popen:
    """Run ``script`` in a fresh interpreter on this checkout's sources;
    its stdout is a text pipe."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    return subprocess.Popen(
        [sys.executable, "-c", script, *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )


def _kill_all_workers(supervisor: WorkerSupervisor, timeout: float = 10.0) -> None:
    """SIGKILL every live worker until none remain (defeats respawn races
    by re-checking liveness under the supervisor's own lock)."""
    deadline = time.monotonic() + timeout
    while supervisor.any_alive and time.monotonic() < deadline:
        with supervisor._lock:
            for slot in supervisor._slots:
                if slot.process is not None and slot.process.is_alive():
                    os.kill(slot.pid, signal.SIGKILL)
        time.sleep(0.05)
    assert not supervisor.any_alive, "workers kept respawning past the backoff"


class TestFleetBasics:
    def test_fleet_computes_jobs_in_worker_processes(self, tmp_path):
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        service = PKAService(harness, port=0, workers=2)
        service.start()
        try:
            client = ServiceClient(port=service.port, timeout=10.0)
            result = client.submit_and_wait(
                JobRequest(workload=WORKLOAD, method="silicon"), timeout=60.0
            )
            assert result["result_kind"] == "app_run"
            # Byte-identical to a direct in-process computation.
            direct = harness.evaluation(WORKLOAD).silicon()
            assert result["result"]["total_cycles"] == direct.total_cycles

            metrics = client.metrics()
            workers = metrics["workers"]
            assert workers["configured"] == 2
            assert workers["alive"] == 2
            assert metrics["counters"]["fleet.jobs_finished"] >= 1
            assert {slot["worker_id"] for slot in workers["slots"]} == {0, 1}
        finally:
            service.close()

    def test_readyz_reports_worker_liveness(self, tmp_path):
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        service = PKAService(harness, port=0, workers=1)
        service.start()
        try:
            status, document = service.readiness()
            assert status == 200
            assert document["workers_alive"] == 1
        finally:
            service.close()


class TestWorkerCrashRecovery:
    def test_transient_crash_kills_worker_then_completes(self, tmp_path):
        """A ``crash`` fault SIGKILLs the worker running it; the
        supervisor re-dispatches the job and it finishes elsewhere."""
        harness = EvaluationHarness(
            backend="serial",
            cache_dir=tmp_path / "cache",
            fault_policy=FaultPolicy(max_retries=2),
        )
        supervisor = WorkerSupervisor(harness, workers=2, heartbeat_interval=0.1)
        scheduler = Scheduler(harness, supervisor=supervisor)
        scheduler.start()
        try:
            record, _ = scheduler.submit(
                JobRequest(workload=WORKLOAD, method="silicon", fault="crash")
            )
            _wait_terminal(record)
            assert record.state == "done"
            assert record.redispatches == 1
            assert supervisor.worker_deaths >= 1
            counters = obs.get_tracer().counters
            assert counters["service.redispatches"] >= 1
            assert counters["fleet.worker_deaths"] >= 1
        finally:
            scheduler.close()

    def test_poison_job_quarantined_within_budget(self, tmp_path):
        """A persistently crashing job must not crash-loop the fleet: it
        is failed with typed evidence after budget+1 worker kills."""
        harness = EvaluationHarness(
            backend="serial",
            cache_dir=tmp_path / "cache",
            fault_policy=FaultPolicy(max_retries=1),
        )
        supervisor = WorkerSupervisor(harness, workers=2, heartbeat_interval=0.1)
        scheduler = Scheduler(harness, supervisor=supervisor)
        scheduler.start()
        try:
            poison, _ = scheduler.submit(
                JobRequest(workload=WORKLOAD, method="silicon", fault="crashxP")
            )
            healthy, _ = scheduler.submit(
                JobRequest(workload="histo", method="silicon")
            )
            _wait_terminal(poison)
            _wait_terminal(healthy)
            assert poison.state == "failed"
            assert poison.error["kind"] == "quarantined"
            assert poison.error["error_type"] == "WorkerCrashError"
            evidence = poison.error["evidence"]
            assert evidence["reason"] == "exited"
            assert evidence["job_id"] == poison.job_id
            assert poison.redispatches == 1  # budget exhausted, not exceeded
            assert poison.attempts == 2  # killed exactly budget+1 workers
            assert supervisor.quarantined == 1
            # The fleet survived: an innocent job still completes.
            assert healthy.state == "done"
            counters = obs.get_tracer().counters
            assert counters["service.jobs_quarantined"] == 1
        finally:
            scheduler.close()

    def test_workers_run_under_the_coordinators_fault_policy(self, tmp_path):
        """With no retries an injected exception fails the job in a
        worker exactly as it does in process, and ``/metricsz`` reports
        that policy's budget."""
        harness = EvaluationHarness(
            backend="serial",
            cache_dir=tmp_path / "cache",
            fault_policy=FaultPolicy(max_retries=0),
        )
        supervisor = WorkerSupervisor(harness, workers=1, heartbeat_interval=0.1)
        scheduler = Scheduler(harness, supervisor=supervisor)
        scheduler.start()
        try:
            record, _ = scheduler.submit(
                JobRequest(workload=WORKLOAD, method="silicon", fault="exception")
            )
            _wait_terminal(record)
            assert record.state == "failed"
            assert record.error["kind"] == "exception"
            assert record.error["error_type"] == "FaultInjectedError"
            assert supervisor.snapshot()["redispatch_budget"] == 0
        finally:
            scheduler.close()


class TestWorkerLifetime:
    """Fleet workers are not daemonic, so a cell can start its own
    intra-run pool inside one; no exit of the coordinator leaves a
    worker running."""

    def test_intra_run_pool_runs_inside_a_fleet_worker(self):
        """A full run big enough to shard starts a process pool inside
        the worker (a daemonic worker could not) and matches serial."""
        harness = EvaluationHarness(backend="serial", intra_jobs=2)
        supervisor = WorkerSupervisor(harness, workers=1)
        scheduler = Scheduler(harness, supervisor=supervisor)
        scheduler.start()
        try:
            record, _ = scheduler.submit(
                JobRequest(workload="fdtd2d", method="full_sim")
            )
            _wait_terminal(record)
            assert record.state == "done", record.error
            serial = EvaluationHarness(backend="serial").evaluation("fdtd2d")
            assert dump_run(record.result) == dump_run(serial.full_sim())
        finally:
            scheduler.close()

    def test_drain_reaps_every_worker(self):
        service = PKAService(EvaluationHarness(backend="serial"), port=0, workers=2)
        service.start()
        pids = [slot["pid"] for slot in service.supervisor.snapshot()["slots"]]
        _manifest, clean = service.drain(timeout=10.0)
        assert clean
        assert _all_gone(pids, timeout=0.0)

    @pytest.mark.parametrize("exit_by", ["exception", "sigkill"])
    def test_no_worker_outlives_its_coordinator(self, exit_by):
        """An exception escaping the serve loop before ``close()`` runs
        the supervisor's atexit hook; a SIGKILL runs nothing, so the
        worker's own parent watch must end it."""
        script = (
            "import sys, time\n"
            "from repro.analysis.harness import EvaluationHarness\n"
            "from repro.service import PKAService\n"
            "service = PKAService(EvaluationHarness(backend='serial'),"
            " port=0, workers=1)\n"
            "service.start()\n"
            "print(service.supervisor.snapshot()['slots'][0]['pid'], flush=True)\n"
            "if sys.argv[1] == 'exception':\n"
            "    raise RuntimeError('escaped before close()')\n"
            "time.sleep(60)\n"
        )
        with _python(script, exit_by) as proc:
            worker_pid = int(proc.stdout.readline())
            if exit_by == "sigkill":
                proc.kill()
            try:
                # Without the hook the interpreter would wait on the
                # worker at exit forever.
                assert proc.wait(timeout=30) != 0
            finally:
                proc.kill()
        assert _all_gone([worker_pid])

    def test_pool_workers_outlive_no_dead_owner(self):
        """A process pool's workers exit once idle when their owner (a
        fleet worker put down mid-cell, say) dies without reaping them."""
        script = (
            "import multiprocessing, os, threading, time\n"
            "from repro.sim.parallel import ProcessPoolBackend\n"
            "def die():\n"
            "    while len(multiprocessing.active_children()) < 2:\n"
            "        time.sleep(0.01)\n"
            "    print(*[p.pid for p in multiprocessing.active_children()],"
            " flush=True)\n"
            "    os._exit(0)\n"
            "threading.Thread(target=die, daemon=True).start()\n"
            "ProcessPoolBackend(2).map_tasks(time.sleep, [0.3, 0.3])\n"
        )
        with _python(script) as proc:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(pids) == 2, pids
        try:
            assert _all_gone(pids)
        finally:
            for pid in filter(_pid_alive, pids):
                os.kill(pid, signal.SIGKILL)


class TestEventDrivenDispatch:
    """A worker that frees up gets the next queued job at once, and a
    stopping fleet never strands a job in ``running``."""

    CELLS = (
        "gauss_208", "gauss_mat4", "gauss_s16", "gauss_s64", "gauss_s256",
        "hots_512", "nn", "pathfinder", "cutcp", "histo",
    )

    def test_freed_worker_is_dispatched_to_immediately(self, tmp_path):
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        supervisor = WorkerSupervisor(harness, workers=1)
        scheduler = Scheduler(harness, supervisor=supervisor)
        scheduler.start()
        try:
            records = [
                scheduler.submit(JobRequest(workload=name, method="silicon"))[0]
                for name in self.CELLS
            ]
            for record in records:
                _wait_terminal(record)
            assert all(record.state == "done" for record in records)
            ordered = sorted(records, key=lambda record: record.started_us)
            gaps_ms = sorted(
                (nxt.started_us - prev.submitted_us) / 1000.0 - prev.latency_ms
                for prev, nxt in zip(ordered, ordered[1:])
            )
            median_gap = gaps_ms[len(gaps_ms) // 2]
            assert median_gap < 20.0, gaps_ms

            dispatcher = supervisor._threads[0]
            assert dispatcher.name == "pka-fleet-dispatch"
            started = time.monotonic()
            supervisor.stop()
            assert not dispatcher.is_alive()
            assert time.monotonic() - started < 1.0
        finally:
            scheduler.close()

    def test_stop_never_strands_a_taken_job_running(self, tmp_path):
        """A job the dispatcher takes after ``stop()`` has sent the exit
        sentinels goes back to the queue instead of to a dying worker."""
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        supervisor = WorkerSupervisor(harness, workers=1)
        scheduler = Scheduler(harness, supervisor=supervisor)
        take_batch = scheduler.queue.take_batch

        def take_after_stop(*args, **kwargs):
            # Widen the window: return from the take only once stop()
            # has begun, as a descheduled dispatcher thread would.
            supervisor._stop.wait(10.0)
            return take_batch(*args, **kwargs)

        scheduler.queue.take_batch = take_after_stop
        scheduler.start()
        try:
            record, _ = scheduler.submit(
                JobRequest(workload=WORKLOAD, method="silicon")
            )
            dispatcher = supervisor._threads[0]
            supervisor.stop()
            assert not dispatcher.is_alive()
            assert record.state == "queued"
            assert record.started_us is None
            assert record.redispatches == 0
        finally:
            scheduler.close()
        assert record.state == "cancelled"


class TestCircuitBreaker:
    def test_all_workers_down_serves_warm_sheds_cold(self, tmp_path):
        cache_dir = tmp_path / "cache"
        # Warm one cell through a first service.
        warmup = EvaluationHarness(backend="serial", cache_dir=cache_dir)
        warmup.evaluate_cells([(WORKLOAD, "silicon", None)])

        harness = EvaluationHarness(backend="serial", cache_dir=cache_dir)
        service = PKAService(
            harness, port=0, workers=2, respawn_backoff=60.0
        )
        service.start()
        try:
            client = ServiceClient(port=service.port, timeout=10.0)
            _kill_all_workers(service.supervisor)

            # Warm-cache submission still completes (registry is empty,
            # so this exercises the cache probe, not a memo).
            warm = client.submit(JobRequest(workload=WORKLOAD, method="silicon"))
            assert warm["state"] == "done"
            assert warm["source"] == "cache"

            # Cold submission sheds with the typed 503 + retry advice.
            with pytest.raises(WorkersUnavailableError) as excinfo:
                client.submit(JobRequest(workload="histo", method="silicon"))
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after > 0

            status, document = service.readiness()
            assert status == 503
            assert document["status"] == "degraded"
            assert document["workers_alive"] == 0

            counters = client.metrics()["counters"]
            assert counters["service.jobs_shed"] >= 1
            # The shed job left no phantom registry entry.
            assert "histo" not in {
                record.request.workload for record in service.scheduler.jobs()
            }
        finally:
            service.close()


class TestCoordinatorRecovery:
    """Journal replay at the Scheduler level (the in-process half of the
    kill-and-restart acceptance scenario; the full subprocess version
    lives in TestFleetProcess)."""

    def test_restart_restores_completed_and_reenqueues_pending(self, tmp_path):
        cache_dir = tmp_path / "cache"
        journal_path = tmp_path / "journal.jsonl"
        warmup = EvaluationHarness(backend="serial", cache_dir=cache_dir)
        baseline = warmup.evaluate_cells([(WORKLOAD, "silicon", None)])[0]

        # Incarnation 1: one job completes (warm cache), two never run
        # (scheduler unstarted = coordinator died before dispatch).
        harness1 = EvaluationHarness(backend="serial", cache_dir=cache_dir)
        sched1 = Scheduler(harness1, journal=JobJournal(journal_path))
        done1, _ = sched1.submit(JobRequest(workload=WORKLOAD, method="silicon"))
        sched1.submit(JobRequest(workload="histo", method="silicon"))
        sched1.submit(JobRequest(workload="fdtd2d", method="silicon"))
        assert done1.state == "done"
        # Crash: no drain, no close — the journal file is all that survives.

        # Incarnation 2: recovery happens in the constructor.
        harness2 = EvaluationHarness(backend="serial", cache_dir=cache_dir)
        sched2 = Scheduler(harness2, journal=JobJournal(journal_path))
        records = {r.request.workload: r for r in sched2.jobs()}
        assert set(records) == {WORKLOAD, "histo", "fdtd2d"}
        assert records[WORKLOAD].state == "done"
        assert records[WORKLOAD].source == "cache"
        # Byte-identical: the restored result equals the fault-free run.
        assert dump_run(records[WORKLOAD].result) == dump_run(baseline)
        assert records["histo"].state == "queued"
        assert records["fdtd2d"].state == "queued"
        assert sched2.queue.depth == 2
        counters = obs.get_tracer().counters
        assert counters["service.recovered_jobs"] == 3
        assert counters["service.recovered_pending"] == 2

        # The recovered work runs to completion once dispatch starts.
        sched2.start()
        for record in records.values():
            _wait_terminal(record)
        clean = sched2.drain(timeout=60.0)
        assert clean
        assert all(r.state == "done" for r in records.values())

    def test_duplicate_submission_after_recovery_attaches(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        sched1 = Scheduler(harness, journal=JobJournal(journal_path))
        first, _ = sched1.submit(JobRequest(workload=WORKLOAD, method="silicon"))

        sched2 = Scheduler(harness, journal=JobJournal(journal_path))
        again, created = sched2.submit(JobRequest(workload=WORKLOAD, method="silicon"))
        assert not created  # single-flight dedup spans the restart
        assert again.job_id == first.job_id
        assert sched2.queue.depth == 1  # not enqueued twice

    def test_recovery_is_idempotent_across_repeated_crashes(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        sched = Scheduler(harness, journal=JobJournal(journal_path))
        sched.submit(JobRequest(workload=WORKLOAD, method="silicon"))
        for _ in range(3):  # crash/restart cycles must not duplicate jobs
            sched = Scheduler(harness, journal=JobJournal(journal_path))
            assert len(sched.jobs()) == 1
            assert sched.queue.depth == 1


class TestChaosAcceptance:
    def test_seeded_worker_kill_chaos_loses_nothing(self, tmp_path):
        """Duplicate-heavy load + a mid-run worker SIGKILL: every
        accepted job reaches a terminal state, the accounting balances,
        and completed results are byte-identical to a fault-free run."""
        from repro.service import LoadConfig, run_load

        cache_dir = tmp_path / "cache"
        baseline_harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "baseline-cache"
        )
        baselines = {
            w: dump_run(baseline_harness.evaluation(w).silicon())
            for w in (WORKLOAD, "histo")
        }

        harness = EvaluationHarness(backend="serial", cache_dir=cache_dir)
        service = PKAService(
            harness,
            port=0,
            workers=2,
            journal_path=tmp_path / "journal.jsonl",
            max_queue=64,
        )
        service.start()
        try:
            client = ServiceClient(port=service.port, timeout=10.0, seed=7)
            config = LoadConfig(
                jobs=16,
                mode="closed",
                concurrency=4,
                duplicate_ratio=0.5,
                seed=23,
                workloads=(WORKLOAD, "histo"),
                methods=("silicon",),
                timeout=120.0,
                chaos=("kill-worker@0.1",),
            )
            report = run_load(client, config)

            assert report.submitted == config.jobs
            assert report.accepted == config.jobs
            assert report.shed == 0
            assert report.errors == 0
            assert report.completed == config.jobs  # zero lost to the kill
            assert len(report.chaos_events) == 1
            assert report.chaos_events[0]["ok"] is True

            reconciliation = report.reconcile()
            assert reconciliation["balanced"] is True

            # Every completed result is byte-identical to the fault-free
            # baseline computed in a separate cache.
            for workload, expected in baselines.items():
                record = next(
                    r
                    for r in service.scheduler.jobs()
                    if r.request.workload == workload
                )
                assert dump_run(record.result) == expected

            manifest, clean = service.drain(timeout=60.0)
            assert clean
            assert manifest["states"].get("done", 0) == len(manifest["jobs"])
        finally:
            service.close()


class TestFleetProcess:
    """The full kill-and-restart acceptance scenario as real processes:
    ``pka serve --workers 2``, SIGKILL the coordinator mid-run, restart
    it on the same cache + journal, and verify every accepted job still
    reaches a terminal state."""

    @staticmethod
    def _start_serve(cache_dir) -> tuple[subprocess.Popen, int, int]:
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--cache-dir", str(cache_dir),
                "--workers", "2",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        line = proc.stdout.readline()
        assert "listening on" in line, line
        port = int(line.rsplit(":", 1)[1].strip())
        fleet_line = proc.stdout.readline()
        assert fleet_line.startswith("fleet: 2 worker(s)"), fleet_line
        id_line = proc.stdout.readline()
        assert id_line.startswith("service id: service-"), id_line
        pid = int(id_line.split("service-")[1].split("-")[0])
        assert pid == proc.pid
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/readyz", timeout=2
                ) as response:
                    if json.load(response)["status"] == "ready":
                        break
            except OSError:
                time.sleep(0.1)
        return proc, port, pid

    @staticmethod
    def _post_job(port: int, workload: str) -> str:
        body = json.dumps({"workload": workload, "method": "silicon"}).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/jobs",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.load(response)["job_id"]

    def test_coordinator_sigkill_and_restart_loses_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        workloads = ("gauss_208", "histo", "fdtd2d")
        proc1, port1, _pid = self._start_serve(cache_dir)
        proc2 = None
        try:
            job_ids = {w: self._post_job(port1, w) for w in workloads}
            # Kill the coordinator immediately: some jobs are accepted
            # but not yet terminal.  The journal is their only witness.
            proc1.kill()
            proc1.wait(timeout=10)
            assert (cache_dir / "journal.jsonl").exists()

            proc2, port2, _pid = self._start_serve(cache_dir)
            client = ServiceClient(port=port2, timeout=10.0)
            for workload, job_id in job_ids.items():
                final = client.wait(job_id, timeout=120.0)
                assert final["state"] == "done", (workload, final)

            metrics = client.metrics()
            assert metrics["counters"]["service.recovered_jobs"] == 3
            assert metrics["journal"]["lag"] == 0
            assert metrics["workers"]["alive"] == 2

            # Orphan check: the first incarnation's workers noticed the
            # parent die and exited rather than leaking.
            proc2.send_signal(signal.SIGTERM)
            out, _ = proc2.communicate(timeout=60)
            assert proc2.returncode == 0, out
            assert "clean=True" in out
            proc2 = None
        finally:
            for proc in (proc1, proc2):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.communicate(timeout=10)


class TestResultWireFormat:
    """What a fleet worker reports: the cell's value and its source."""

    @pytest.mark.parametrize("source", ["cache", "computed"])
    def test_outcome_round_trips_with_its_source(self, source):
        run = EvaluationHarness(backend="serial").evaluation("histo").silicon()
        for value in (run, None):
            back = _deserialize_result(_serialize_result(CellOutcome(value, source)))
            assert back.source == source
            assert back.value == value

    def test_worker_reports_a_disk_hit_as_cache(self, tmp_path):
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "cache")
        harness.evaluation("histo").silicon()
        tasks, events = queue.Queue(), queue.Queue()
        tasks.put(("j1", ("histo", "silicon", None), None, 0))
        tasks.put(None)
        _worker_main(0, 0, tasks, events, harness.worker_spec(), 60.0, os.getppid())
        finished = [event for event in events.queue if event[0] == "finished"]
        assert [event[3] for event in finished] == ["j1"]
        payload = finished[0][4]
        assert payload["ok"] and payload["kind"] == "app_run"
        assert payload["source"] == "cache"
