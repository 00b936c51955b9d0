#!/usr/bin/env python
"""Serve smoke test: boot real ``pka serve`` processes, load them, drain them.

Each scenario starts ``pka serve --port 0`` on a fresh cache, reads the
port from its banner, waits for ``/readyz``, drives it with ``pka loadgen
--report``, checks the report and ``/metricsz``, and expects a SIGTERM to
drain it cleanly (exit 0).  Servers still running when a scenario ends
are killed with their workers.

Usage: ``python scripts/serve_smoke.py [SCENARIO ...]`` (default: all);
exits 1 if any scenario fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
)}

from check_tier_ledger import check as check_tier_ledger  # noqa: E402
from repro.analysis import EvaluationHarness  # noqa: E402
from repro.service import JobRequest, ServiceClient  # noqa: E402

TERMINAL = ("done", "failed", "cancelled")

# -- checkers: pure functions of the report and /metricsz documents ---------


def check_banner(log: str, expected: str) -> str:
    assert expected in log, f"server banner lacks {expected!r}"
    return f"banner: {expected}"


def check_drain(code: int, log: str) -> str:
    assert code == 0, f"drain exited {code}"
    assert "drained" in log and "clean=True" in log, "drain was not clean"
    return "SIGTERM: drained, clean=True, exit 0"


def check_service_load(report: dict) -> str:
    assert report["submitted"] == report["accepted"] == report["completed"] == 20, report
    assert report["rejected"] == 0 and report["errors"] == 0, report
    counters = report["server_metrics"]["counters"]
    fresh = report["accepted"] - report["deduplicated"]
    assert counters["service.jobs_submitted"] == fresh, counters
    assert counters.get("service.dedup_hits", 0) == report["deduplicated"], counters
    assert counters["service.jobs_done"] == counters["service.jobs_submitted"], counters
    # Dedup means strictly fewer backend fan-outs than jobs, and the
    # injected transient fault was retried, not fatal.
    assert counters.get("service.backend_fanouts", 0) < report["accepted"], counters
    assert counters.get("tasks.retries", 0) >= 1, counters
    return "loadgen report reconciles with /metricsz"


def check_fleet_load(report: dict, metrics: dict) -> str:
    assert report["submitted"] == report["accepted"] == report["completed"] == 20, report
    assert report["shed"] == 0 and report["errors"] == 0, report
    chaos = report["chaos_events"]
    assert len(chaos) == 1 and chaos[0]["ok"] is True, chaos
    assert report["reconciliation"]["balanced"] is True, report["reconciliation"]
    assert metrics["counters"].get("fleet.worker_deaths", 0) >= 1, metrics["counters"]
    return "worker SIGKILL: zero jobs lost, accounting balanced"


def check_deadline_kill(job: dict, metrics: dict, deaths_before: float) -> str:
    """A job that hangs past ``--task-timeout`` has its worker killed and
    is re-dispatched; the transient hang clears on the second attempt."""
    assert job["state"] == "done", job
    assert job["redispatches"] == 1, job
    deaths = metrics["counters"].get("fleet.worker_deaths", 0)
    assert deaths > deaths_before, (deaths_before, metrics["counters"])
    return "hung job: worker killed at its deadline, job re-dispatched and done"


def _open_states(metrics: dict) -> dict:
    return {s: n for s, n in metrics["states"].items() if s not in TERMINAL}


def check_recovered(metrics: dict, job: dict) -> str:
    assert not _open_states(metrics), f"jobs stuck: {_open_states(metrics)}"
    recovered = metrics["counters"]["service.recovered_jobs"]
    assert recovered >= 1, metrics["counters"]
    assert metrics["journal"]["lag"] == 0, metrics["journal"]
    assert metrics["workers"]["alive"] == 2, metrics["workers"]
    assert job["state"] == "done", job
    return f"coordinator kill -9 + restart: {recovered:.0f} job(s) recovered"


def check_provenance(job: dict, result: dict) -> str:
    """A done job's source and its result's tier block agree, both ways:
    ``transfer``/``predicted`` exactly when that block is present."""
    assert job["state"] == "done", job
    source = job["source"]
    assert source in ("cache", "computed", "transfer", "predicted"), job
    blocks = {block for block in ("transfer", "predicted") if block in result}
    assert blocks == {source} & {"transfer", "predicted"}, (source, sorted(blocks))
    return f"{job['request']['workload']}: source {source} agrees with its result"


def check_bound(name: str, job: dict, result: dict, truth_cycles: float) -> str:
    check_provenance(job, result)
    assert job["source"] == "predicted", job
    predicted = result["predicted"]
    error = abs(result["result"]["total_cycles"] - truth_cycles) / truth_cycles
    assert error <= predicted["error_bound"], (error, predicted)
    return f"{name}: realized error {error:.2%} <= bound {predicted['error_bound']:.2%}"


def check_burst(report: dict, metrics: dict) -> str:
    assert report["submitted"] == 24 and report["errors"] == 0, report
    assert report["completed"] == report["accepted"], report
    assert report["reconciliation"]["balanced"] is True, report["reconciliation"]
    shed = report["shed_retry_afters"]
    assert shed["count"] == report["shed"], shed
    assert not shed["count"] or shed["min"] > 0, shed  # backlog-derived advice
    ups = metrics["autoscaler"]["counters"]["scale_ups"]
    assert ups >= 1, metrics["autoscaler"]
    assert metrics["counters"]["fleet.grown"] >= 1, metrics["counters"]
    return f"burst: scale_ups={ups:.0f}, pool grew, zero jobs lost"


def check_shrunk(metrics: dict) -> str:
    scaler = metrics["autoscaler"]
    assert scaler["current_workers"] == 1, scaler
    assert scaler["counters"]["scale_downs"] >= 1, scaler
    assert metrics["workers"]["retired"] >= 1, metrics["workers"]
    assert not _open_states(metrics), _open_states(metrics)
    assert metrics["queue_depth"] == 0, metrics["queue_depth"]
    return "idle: pool back at 1 worker, queue empty"


# -- process plumbing shared by every scenario ------------------------------


def poll(probe, done=bool, timeout: float = 120.0, interval: float = 0.5):
    """Call ``probe()`` until ``done(value)`` or timeout; return the value."""
    deadline = time.monotonic() + timeout
    value = probe()
    while not done(value) and time.monotonic() < deadline:
        time.sleep(interval)
        value = probe()
    return value


class Server:
    """One ``pka serve`` process on ``workdir``'s cache, logging there."""

    started: list["Server"] = []

    def __init__(self, workdir: Path, *options: str) -> None:
        self.log_path = workdir / f"serve-{len(Server.started)}.log"
        with open(self.log_path, "w", encoding="utf-8") as log:
            # A session of its own: the server and its workers are one
            # process group, killed together.
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--cache-dir", str(workdir / "cache"), *options],
                stdout=log, stderr=subprocess.STDOUT, env=ENV, start_new_session=True,
            )
        Server.started.append(self)
        banner = poll(
            lambda: re.search(r"listening on http://[^:]+:(\d+)", self.log),
            lambda match: match or self.proc.poll() is not None,
            timeout=60.0, interval=0.05,
        )
        assert banner, "server never printed its listening banner"
        self.port = int(banner.group(1))
        self.client = ServiceClient(port=self.port, timeout=10.0)
        assert poll(self.client.ready, timeout=30.0, interval=0.1), "never ready"

    @property
    def log(self) -> str:
        return self.log_path.read_text(encoding="utf-8")

    def metrics(self, done=bool, timeout: float = 120.0) -> dict:
        return poll(self.client.metrics, done, timeout)

    def drain(self) -> str:
        self.proc.send_signal(signal.SIGTERM)
        return check_drain(self.proc.wait(timeout=120), self.log)

    def kill(self) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()


def pka(*argv: str) -> str:
    """Run one ``pka`` verb, which must exit 0; return its stdout."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=ENV, stdout=subprocess.PIPE, text=True,
    )
    print(done.stdout, end="")
    assert done.returncode == 0, f"pka {argv[0]} exited {done.returncode}"
    return done.stdout


def loadgen(server: Server, workdir: Path, *options: str) -> dict:
    report = workdir / f"load-{server.port}.json"
    pka("loadgen", "--port", str(server.port), *options, "--report", str(report))
    return json.loads(report.read_text(encoding="utf-8"))


# -- scenarios: each yields the summary line of every check it passes -------


def service(workdir: Path):
    server = Server(workdir, "--jobs", "2")
    yield check_service_load(loadgen(
        server, workdir, "--jobs", "20", "--duplicate-ratio", "0.5",
        "--fault", "exception",
    ))
    yield server.drain()


def fleet(workdir: Path):
    server = Server(workdir, "--workers", "2", "--task-timeout", "1")
    report = loadgen(
        server, workdir, "--jobs", "20", "--duplicate-ratio", "0.5", "--seed", "23",
        "--workloads", "gauss_208,histo,fdtd2d", "--chaos", "kill-worker@0.5",
    )
    yield check_fleet_load(report, report["server_metrics"])
    deaths = server.client.metrics()["counters"].get("fleet.worker_deaths", 0)
    out = pka(
        "submit", "--port", str(server.port), "--no-wait", "--fault", "hang",
        "histo", "silicon",
    )
    job = server.client.wait(re.search(r"job (j\S+):", out).group(1), timeout=60.0)
    yield check_deadline_kill(job, server.client.metrics(), deaths)
    out = pka("submit", "--port", str(server.port), "--no-wait", "atax", "silicon")
    job_id = re.search(r"job (j\S+):", out).group(1)
    server.proc.kill()  # the coordinator alone: its workers must notice
    server.proc.wait()
    assert (workdir / "cache" / "journal.jsonl").is_file(), "no journal"
    server = Server(workdir, "--workers", "2")
    metrics = server.metrics(lambda m: not _open_states(m))
    yield check_recovered(metrics, server.client.job(job_id))
    yield server.drain()


def semcache(workdir: Path):
    server = Server(workdir, "--jobs", "2", "--semcache")
    yield check_banner(server.log, "semcache: enabled")
    yield check_tier_ledger(loadgen(
        server, workdir, "--jobs", "8", "--mode", "closed", "--concurrency", "1",
        "--seed", "20260809", "--workloads", "atax,atax~nd1,atax~nd2,atax~nd3",
        "--methods", "pka_sim", "--timeout", "300",
    ), "semcache", 8)
    # A near duplicate right behind its base: a tier may answer it at
    # dispatch rather than at submit, and its job must say which.
    job_ids = [
        re.search(r"job (j\S+):", pka(
            "submit", "--port", str(server.port), "--no-wait", name, "pka_sim"
        )).group(1)
        for name in ("fdtd2d", "fdtd2d~nd1")
    ]
    for job_id in job_ids:
        yield check_provenance(
            server.client.wait(job_id, timeout=300.0), server.client.result(job_id)
        )
    yield server.drain()


def predict(workdir: Path):
    server = Server(workdir, "--jobs", "2", "--predict")
    yield check_banner(server.log, "predict: enabled")
    yield check_tier_ledger(loadgen(
        server, workdir, "--jobs", "10", "--mode", "closed", "--concurrency", "1",
        "--seed", "20260809", "--methods", "full_sim", "--timeout", "300",
        "--workloads", "fdtd2d,atax,backprop,fdtd2d~nd1,atax~nd1,backprop~nd1",
    ), "predict", 10)
    name = "fdtd2d~nd7"
    job_id = server.client.submit(JobRequest(workload=name, method="full_sim"))["job_id"]
    job = server.client.wait(job_id, timeout=300.0)
    truth = EvaluationHarness(backend="serial", cache_dir=workdir / "truth")
    yield check_bound(
        name, job, server.client.result(job_id),
        truth.evaluation(name).full_sim().total_cycles,
    )
    yield server.drain()


def autoscale(workdir: Path):
    server = Server(
        workdir, "--min-workers", "1", "--max-workers", "4",
        "--scale-interval", "0.05", "--slo-queue-wait", "0.5",
    )
    yield check_banner(server.log, "fleet: elastic, 1..4")
    report = loadgen(
        server, workdir, "--jobs", "24", "--mode", "open", "--rate", "8",
        "--shape", "burst:10@0.4", "--seed", "23", "--workloads",
        "mlperf_ssd_training,mlperf_gnmt_training,mlperf_resnet50_64b,"
        "mlperf_bert_inference", "--gpus", "volta,turing,ampere", "--timeout", "180",
    )
    yield check_burst(report, server.client.metrics())
    yield check_shrunk(
        server.metrics(lambda m: m["autoscaler"]["current_workers"] == 1)
    )
    yield server.drain()


SCENARIOS = {s.__name__: s for s in (service, fleet, semcache, predict, autoscale)}


def run(name: str) -> bool:
    started = time.monotonic()
    first = len(Server.started)
    with tempfile.TemporaryDirectory(prefix=f"serve-smoke-{name}-") as scratch:
        try:
            for line in SCENARIOS[name](Path(scratch)):
                print(f"[{name}] {line}", flush=True)
        except Exception:
            traceback.print_exc()
            for server in Server.started[first:]:
                print(f"--- {server.log_path.name} ---\n{server.log}", file=sys.stderr)
            print(f"[{name}] FAILED", flush=True)
            return False
        finally:
            for server in Server.started[first:]:
                server.kill()
    print(f"[{name}] passed in {time.monotonic() - started:.1f}s", flush=True)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scenarios", nargs="*", metavar="SCENARIO",
        help=f"any of {', '.join(SCENARIOS)} (default: all)",
    )
    names = parser.parse_args(argv).scenarios or list(SCENARIOS)
    unknown = sorted(set(names) - set(SCENARIOS))
    if unknown:
        parser.error(f"unknown scenario(s): {', '.join(unknown)}")
    failed = [name for name in names if not run(name)]
    if failed:
        print(f"serve smoke FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
