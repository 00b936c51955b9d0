"""The ``serve-mix`` workload: ``pka serve`` under a seeded open-loop mix.

Set-up (three times; the median is the set-up time): a fresh cache
directory is seeded with 40 donor workloads x {full_sim, pka_sim,
silicon}@volta, every one computed into the digest cache and observed
by the semantic cache and the prediction tiers, and then ``python -m
repro.cli serve --port 0 --workers 1 --semcache --predict --cache-dir
D`` (default journal) boots over it.  The first two servers are drained
again; the third serves the load.  The donors are one fixed draw, like
a deployment's warm state; the seed draws the traffic.

Load: one thread sends jobs on a fixed schedule through
``ServiceClient``, one connection at a time, at each of ``RATES`` in
turn for an equal share of ``--seconds``, and polls each outstanding job
every 2 ms or as soon after as it can.  Latency runs from a job's due
time to the moment the client sees it terminal, so a stall delays every
job behind it.  Each rate is judged against ``LIMIT_MS`` on its p95.
Traffic, a guess rather than a recording of real clients:

* 45% exact repeats of donor cells (digest cache);
* 25% ``<donor>~ndK`` near duplicates on volta (semantic cache);
* 30% fresh non-MLPerf full_sim or silicon cells on volta, turing or
  ampere (prediction tiers, else a worker computes them).

MLPerf cells stay out: their submit-time launch builds block the HTTP
path and make the tail swing far more than any change under test.  Fresh
pka_sim cells stay out for the same reason on the worker: a first-touch
``characterize`` costs up to 0.7 s, so whether a seed draws a few of
them would set the computed latency.  One worker leaves the second core
to the coordinator.

Afterwards the server is drained with SIGTERM and a seeded sample of
answers is checked against a local computation.

Set-up is timed at the reference speed of ``common.SpeedProbe``: the
donor seeding probes itself, and the server's boot is probed in bursts
on either side of it.  Latencies are timed on the wall.

Usage (``bench/run.py`` drives it)::

    python bench/serve_mix.py run --seed N --seconds S --trace 0|1 --result F
    python bench/serve_mix.py donors --cache-dir D --spawned-us T
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import common
import spans
from common import median, nearest_rank, now_us, read_json, write_json

#: Fixed open-loop rates, jobs/s, run in turn for equal shares of the run.
RATES = (30.0, 40.0, 60.0)
#: A rate holds when the p95 latency of its jobs is within this limit:
#: a tenth of a second, about the longest a reply can take and still
#: feel immediate to an interactive client.
LIMIT_MS = 100.0
DONORS = 40
#: A bound no tier answer can meet: the seeding tiers only observe.
OBSERVE_ONLY_BOUND = 1e-9
#: Most of the 50 sampled approximate answers that may be further from
#: the DES truth than their advertised bound.  Sixteen seeds showed 2 to
#: 8 when the benchmark was defined; the ceiling leaves room for seeds
#: not tried, and a change making misses three times as common trips
#: it.  The ROADMAP's property-test item owns the misses themselves.
KNOWN_BOUND_VIOLATIONS = 15
METHODS = ("full_sim", "pka_sim", "silicon")
FRESH_METHODS = ("full_sim", "silicon")
GPUS = ("volta", "turing", "ampere")
#: Jobs of each kind in every block of ``BLOCK`` consecutive jobs.
MIX = (("exact", 9), ("near", 5), ("fresh", 6))
BLOCK = sum(count for _, count in MIX)
NEAR_VARIANTS = 99
SETUPS = 3
SAMPLE = 50
POLL_S = 0.002
DRAIN_TIMEOUT_S = 60.0
ANSWER_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "cancelled")
EXACT_SOURCES = ("cache", "computed")
APPROX_SOURCES = ("transfer", "predicted")


# ---------------------------------------------------------------------------
# The seeded plan.
# ---------------------------------------------------------------------------


def viable(harness, workload: str, method: str, gpu: str) -> bool:
    """Whether the cell yields a run (not "not applicable")."""
    from repro.gpu.architectures import get_gpu

    evaluation = harness.evaluation(workload)
    spec = evaluation.spec
    if not evaluation.runs_on(get_gpu(gpu)):
        return False
    if method == "full_sim" and not spec.completable:
        return False
    return not (method == "pka_sim" and "sim_kernel_mismatch" in spec.quirks)


def _corpus() -> tuple[object, list[str]]:
    from repro.analysis import EvaluationHarness
    from repro.workloads.spec import iter_workloads

    names = sorted(spec.name for spec in iter_workloads() if spec.suite != "mlperf")
    return EvaluationHarness(), names


def donor_workloads() -> list[str]:
    """The fixed donor draw: workloads all three donor methods run on."""
    harness, corpus = _corpus()
    pool = [w for w in corpus if all(viable(harness, w, m, "volta") for m in METHODS)]
    return random.Random("donors").sample(pool, DONORS)


def build_plan(seed: int, jobs: int) -> tuple[list[str], list[tuple]]:
    """``(donors, plan)``; each plan entry is ``(kind, workload, method, gpu)``.

    Every block of ``BLOCK`` jobs holds the kinds in ``MIX`` proportions,
    and near duplicates and fresh cells cycle through their method (and
    GPU) strata, so seeds differ in which cells they send and in what
    order, not in how much of each kind.  Near duplicates and fresh cells
    are drawn without replacement, so only exact repeats (and a fresh
    pool exhausted by very long runs) ever share a job.
    """
    harness, corpus = _corpus()
    donors = donor_workloads()
    rng = random.Random(seed)
    exact = [(w, m, "volta") for w in donors for m in METHODS]
    near = _stratified(
        [(f"{w}~nd{k}", m, "volta") for w in donors for k in range(1, NEAR_VARIANTS + 1) for m in METHODS],
        rng,
    )
    chosen = set(donors)
    fresh = _stratified(
        [
            (w, m, g)
            for w in corpus
            if w not in chosen
            for g in GPUS
            for m in FRESH_METHODS
            if viable(harness, w, m, g)
        ],
        rng,
    )
    kinds: list[str] = []
    while len(kinds) < jobs:
        block = [kind for kind, count in MIX for _ in range(count)]
        rng.shuffle(block)
        kinds.extend(block)
    plan = []
    drawn = {"near": 0, "fresh": 0}
    for kind in kinds[:jobs]:
        if kind == "exact":
            cell = rng.choice(exact)
        else:
            pool = near if kind == "near" else fresh
            cell = pool[drawn[kind] % len(pool)]
            drawn[kind] += 1
        plan.append((kind, *cell))
    return donors, plan


def _stratified(cells: list[tuple], rng: random.Random) -> list[tuple]:
    """Shuffle each (method, gpu) stratum, then take one from each in turn."""
    strata: dict[tuple, list[tuple]] = {}
    for cell in cells:
        strata.setdefault(cell[1:], []).append(cell)
    for key in sorted(strata):
        rng.shuffle(strata[key])
    rounds = itertools.zip_longest(*(strata[key] for key in sorted(strata)))
    return [cell for round_ in rounds for cell in round_ if cell is not None]


def seed_donors(cache_dir: str, spawned_us: float) -> None:
    """Compute every donor cell into the cache and teach both tiers.

    The tiers run observe-only: an error bound no answer can meet makes
    every lookup escalate, so each donor cell is computed, written to
    the digest cache and observed.  Neither bound is part of the cache
    context, so the server's default tiers load what was learned here.
    Writes what they learned and the time from ``spawned_us`` on.
    """
    common.use_repo_sources()
    with common.SpeedProbe() as probe:
        from repro.analysis import EvaluationHarness
        from repro.analysis.semcache import SemanticCacheConfig
        from repro.predict import PredictConfig

        donors = donor_workloads()
        harness = EvaluationHarness(
            cache_dir=cache_dir,
            semcache=SemanticCacheConfig(max_error_bound=OBSERVE_ONLY_BOUND),
            predict=PredictConfig(max_error_bound=OBSERVE_ONLY_BOUND),
        )
        harness.evaluate_cells([(w, m, "volta") for w in donors for m in METHODS])
        end = now_us()
    manifest = harness.last_manifest
    if manifest["transferred"] or manifest["predicted"]:
        raise RuntimeError("a donor cell was answered without being computed")
    write_json(_donors_path(cache_dir), {
        "learned": _tier_state(
            {"semcache": harness.semcache.snapshot(), "predict": harness.predict.snapshot()}
        ),
        "ms": probe.scaled_ms(spawned_us, end),
        "wall_ms": (end - spawned_us) / 1000.0,
    })


def _donors_path(cache_dir) -> Path:
    return Path(f"{cache_dir}.donors.json")


def _tier_state(metrics: dict) -> dict:
    """What the tiers have learned: indexed donor apps, calibration samples."""
    return {
        "semcache_apps": metrics["semcache"].get("index_apps", 0),
        "predict_samples": metrics["predict"].get("calibration_samples", 0),
    }


# ---------------------------------------------------------------------------
# The server process.
# ---------------------------------------------------------------------------


class Server:
    """One ``pka serve`` process over a cache directory."""

    ARGS = ("--port", "0", "--workers", "1", "--semcache", "--predict")

    def __init__(self, cache_dir: Path, log: Path, spans_dir: Path | None) -> None:
        serve = ["serve", *self.ARGS, "--cache-dir", str(cache_dir)]
        if spans_dir is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = common.script("serve_launcher.py") + [str(spans_dir), *serve]
        self.log = log
        self._stream = open(log, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command,
            stdout=self._stream,
            stderr=subprocess.STDOUT,
            env=common.child_env(),
            cwd=common.ROOT,
        )
        self.port = self._wait_for_banner()

    def _wait_for_banner(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            text = self.log.read_text(encoding="utf-8")
            if "service id:" in text:
                return int(re.search(r"listening on http://[^:]+:(\d+)", text).group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.process.kill()
        self.stop()
        raise RuntimeError(f"pka serve did not start:\n{self.log.read_text()}")

    def wait_ready(self, client) -> None:
        deadline = time.monotonic() + 30.0
        while not client.ready():
            if time.monotonic() > deadline:
                raise RuntimeError("pka serve never became ready")
            time.sleep(0.005)

    def drain(self) -> bool:
        """SIGTERM and wait; True when it exited 0 reporting clean=True."""
        self.process.send_signal(signal.SIGTERM)
        code = self.stop()
        return code == 0 and "clean=True" in self.log.read_text(encoding="utf-8")

    def stop(self) -> int | None:
        try:
            code = self.process.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self._stream.close()
        return code


def boot(workdir: Path, index: int, spans_dir, probe):
    """Seed a fresh cache and boot a server over it.

    Returns the server, a client, what the tiers learned from the donors
    and the set-up time: the donor child's own, plus the server's boot
    to ready, which ``probe`` times from bursts on either side.
    """
    from repro.service import ServiceClient

    cache_dir = workdir / f"cache-{index}"
    subprocess.run(
        common.script("serve_mix.py")
        + ["donors", "--cache-dir", str(cache_dir), "--spawned-us", repr(now_us())],
        env=common.child_env(),
        check=True,
        timeout=170,
    )
    donors = read_json(_donors_path(cache_dir))
    probe.burst()
    start = now_us()
    server = Server(cache_dir, workdir / f"serve-{index}.log", spans_dir)
    client = ServiceClient(port=server.port, timeout=30.0)
    try:
        server.wait_ready(client)
    except RuntimeError:
        server.drain()
        raise
    ready = now_us()
    probe.burst()
    setup = {
        "s": (donors["ms"] + probe.scaled_ms(start, ready)) / 1000.0,
        "wall_s": (donors["wall_ms"] + (ready - start) / 1000.0) / 1000.0,
    }
    return server, client, donors["learned"], setup


# ---------------------------------------------------------------------------
# The open-loop generator.
# ---------------------------------------------------------------------------


def drive(client, plan: list[tuple], rate: float, first: int, stop: int) -> dict:
    """Send ``plan[first:stop]`` on schedule at ``rate`` from this one
    thread and wait for every answer; returns job records."""
    from repro.errors import ServiceError
    from repro.service import JobRequest

    jobs = []
    outstanding: dict[str, list[dict]] = {}
    late_ms = []
    max_outstanding = 0
    start = now_us() + 10_000.0
    due = {index: start + (index - first) * 1e6 / rate for index in range(first, stop)}
    cursor = first
    give_up = due[stop - 1] + ANSWER_TIMEOUT_S * 1e6 if stop > first else start

    def finish(job, document, seen):
        job.update(
            seen_us=seen,
            state=document["state"],
            source=document.get("source"),
            server_latency_ms=document.get("latency_ms"),
            job_id=document["job_id"],
        )

    while cursor < stop or outstanding:
        now = now_us()
        if now > give_up:
            break
        if cursor < stop and now >= due[cursor]:
            kind, workload, method, gpu = plan[cursor]
            job = {"index": cursor, "kind": kind, "rate": rate, "due_us": due[cursor]}
            late_ms.append((now - due[cursor]) / 1000.0)
            jobs.append(job)
            cursor += 1
            try:
                document = client.submit(
                    JobRequest(workload=workload, method=method, gpu=gpu, client="bench")
                )
            except ServiceError as exc:
                job.update(state="refused", error=type(exc).__name__)
                continue
            job["created"] = document.get("created", True)
            if document["state"] in TERMINAL:
                finish(job, document, now_us())
            else:
                job["job_id"] = document["job_id"]
                outstanding.setdefault(document["job_id"], []).append(job)
                job["polled_us"] = now_us()
                max_outstanding = max(max_outstanding, sum(map(len, outstanding.values())))
            continue
        if outstanding:
            job_id = min(outstanding, key=lambda key: outstanding[key][0]["polled_us"])
            polled = outstanding[job_id][0]["polled_us"]
            if now - polled >= POLL_S * 1e6:
                try:
                    document = client.job(job_id)
                except ServiceError:
                    document = None
                stamp = now_us()
                for job in outstanding[job_id]:
                    job["polled_us"] = stamp
                if document is not None and document["state"] in TERMINAL:
                    for job in outstanding.pop(job_id):
                        finish(job, document, stamp)
                continue
            wake = polled + POLL_S * 1e6
        else:
            wake = give_up
        if cursor < stop:
            wake = min(wake, due[cursor])
        time.sleep(max(0.0, (wake - now_us()) / 1e6))
    for waiting in outstanding.values():
        for job in waiting:
            job["state"] = "unanswered"
    return {"jobs": jobs, "late_ms": late_ms, "max_outstanding": max_outstanding}


def latency_ms(job) -> float:
    return (job["seen_us"] - job["due_us"]) / 1000.0


def geomean(values) -> float | None:
    values = list(values)
    return math.exp(sum(map(math.log, values)) / len(values)) if values else None


def stage_counts(seconds: float) -> list[int]:
    """Jobs sent at each of ``RATES``, each for an equal share of ``seconds``."""
    return [max(1, round(rate * seconds / len(RATES))) for rate in RATES]


def rate_report(jobs: list[dict]) -> dict:
    """Latency of one rate's jobs against ``LIMIT_MS``.

    A job that is not answered misses the limit.  A backlog that grows
    through a stage soon puts more than a twentieth of its jobs over the
    limit, so the p95 check also catches it.
    """
    done = [job for job in jobs if job.get("state") == "done"]
    answered = [latency_ms(job) for job in done]
    unanswered = len(jobs) - len(answered)
    # Unanswered jobs rank above every answered one.
    latencies = answered + [math.inf] * unanswered
    p95 = nearest_rank(latencies, 95.0)
    tail = common.tail_percentile(latencies)
    return {
        "jobs": len(jobs),
        "unanswered": unanswered,
        "p50_ms": median(answered),
        "cold_ms": geomean(latency_ms(job) for job in done if job["kind"] != "exact"),
        "warm_ms": median(latency_ms(job) for job in done if job["kind"] == "exact"),
        "p95_ms": p95 if p95 is not None and math.isfinite(p95) else None,
        "tail": {"percentile": tail[0], "ms": tail[1], "samples_beyond": tail[2]}
        if tail and math.isfinite(tail[1])
        else None,
        "holds": p95 is not None and p95 <= LIMIT_MS,
    }


def max_rate(reports: dict[float, dict]) -> float:
    """The highest rate that holds with every lower rate holding too, or 0."""
    best = 0.0
    for rate in sorted(reports):
        if not reports[rate]["holds"]:
            break
        best = rate
    return best


# ---------------------------------------------------------------------------
# Checking answers against a local computation.
# ---------------------------------------------------------------------------


def check_answers(client, jobs: list[dict], plan: list[tuple], seed: int) -> dict:
    """Seeded samples: exact answers bit-identical, approximate ones
    within their advertised bound of the local DES truth."""
    from repro.analysis import EvaluationHarness
    from repro.analysis.persistence import dump_run

    rng = random.Random(f"{seed}/answers")
    by_id = {}
    for job in jobs:
        if job.get("state") == "done" and job.get("created"):
            by_id.setdefault(job["job_id"], job)
    exact = sorted(j for j, job in by_id.items() if job["source"] in EXACT_SOURCES)
    approx = sorted(j for j, job in by_id.items() if job["source"] in APPROX_SOURCES)
    sampled = rng.sample(exact, min(SAMPLE, len(exact))) + rng.sample(
        approx, min(SAMPLE, len(approx))
    )
    answers = {job_id: client.result(job_id) for job_id in sampled}
    local = EvaluationHarness()
    mismatched, violations, worst = [], [], 0.0
    for job_id in sampled:
        job = by_id[job_id]
        _, workload, method, gpu = plan[job["index"]]
        truth = local.evaluation(workload).compute_cell(method, gpu)
        answer = answers[job_id]
        if job["source"] in EXACT_SOURCES:
            if answer["result"] != json.loads(dump_run(truth)):
                mismatched.append(job_id)
            continue
        bound = (answer.get("transfer") or answer.get("predicted"))["error_bound"]
        error = abs(answer["result"]["total_cycles"] - truth.total_cycles) / truth.total_cycles
        worst = max(worst, error / bound if bound else float("inf"))
        if error > bound:
            violations.append(job_id)
    return {
        "exact_checked": sum(by_id[j]["source"] in EXACT_SOURCES for j in sampled),
        "approx_checked": sum(by_id[j]["source"] in APPROX_SOURCES for j in sampled),
        "exact_mismatches": mismatched,
        "bound_violations": violations,
        "worst_error_over_bound": worst,
    }


# ---------------------------------------------------------------------------
# The workload.
# ---------------------------------------------------------------------------


def measure(seed: int, seconds: float, workdir: Path, traced: bool) -> dict:
    """Set up, drive the load, drain, check; everything but the metrics."""
    spans_dir = None
    if traced:
        spans_dir = workdir / "spans"
        spans_dir.mkdir()
    counts = stage_counts(seconds)
    _, plan = build_plan(seed, sum(counts))
    probe = common.SpeedProbe()
    setups, drains = [], []
    for index in range(SETUPS):
        last = index == SETUPS - 1
        server, client, learned, setup = boot(workdir, index, spans_dir if last else None, probe)
        setups.append(setup)
        if not last:
            drains.append(server.drain())
    try:
        load = {"jobs": [], "stages": []}
        first = 0
        for rate, count in zip(RATES, counts):
            stage = drive(client, plan, rate, first, first + count)
            load["jobs"].extend(stage.pop("jobs"))
            load["stages"].append({"rate": rate, **stage})
            first += count
        start = now_us()
        metrics = client.metrics()
        metricsz_ms = (now_us() - start) / 1000.0
        worker_pids = [s["pid"] for s in metrics["workers"]["slots"] if s.get("pid")]
        rss = {
            "coordinator_mb": common.vm_hwm_mb(server.process.pid),
            "worker_mb": max((common.vm_hwm_mb(pid) or 0.0 for pid in worker_pids), default=0.0),
        }
        answers = check_answers(client, load["jobs"], plan, seed)
    finally:
        drains.append(server.drain())
    return {
        "plan": plan,
        "setups": setups,
        "drains": drains,
        "load": load,
        "learned_before": learned,
        "metricsz": metrics,
        "metricsz_ms": metricsz_ms,
        "rss": rss,
        "answers": answers,
        "spans_dir": spans_dir,
    }


def summarize(run: dict) -> dict:
    jobs = run["load"]["jobs"]
    stages = run["load"]["stages"]
    answered = [job for job in jobs if job.get("state") == "done"]
    by_source: dict[str, list[float]] = {}
    by_kind: dict[str, list[float]] = {}
    for job in answered:
        by_source.setdefault(job["source"], []).append(latency_ms(job))
        by_kind.setdefault(job["kind"], []).append(latency_ms(job))
    every = [latency_ms(job) for job in answered]
    rates = {
        stage["rate"]: rate_report([job for job in jobs if job["rate"] == stage["rate"]])
        for stage in stages
    }
    metricsz = run["metricsz"]
    counters = metricsz["counters"]
    fresh_accepts = sum(1 for job in jobs if job.get("created"))
    answers = run["answers"]
    tail = common.tail_percentile(every)
    late = [value for stage in stages for value in stage["late_ms"]]
    digest = hashlib.sha256(json.dumps(run["plan"]).encode("utf-8")).hexdigest()
    return {
        # Latency is gated over populations the seeded plan fixes, not
        # over whichever answer source the server picked, and over every
        # rate.  Cells outside the digest cache (near duplicates and
        # fresh cells) mix transfer, predicted and computed answers, so
        # they get a geometric mean, which each path moves by its share;
        # a median would sit inside one path's mode.  Set-up is timed at
        # the reference speed, latencies on the wall (see README.md).
        "metrics": {
            "setup_s": median(setup["s"] for setup in run["setups"]),
            "cold_ms": geomean(by_kind.get("near", []) + by_kind.get("fresh", [])),
            "warm_ms": median(by_kind.get("exact", [])),
            "peak_rss_mb": run["rss"]["coordinator_mb"],
        },
        "attempted": len(jobs),
        "failed": len(jobs) - len(answered),
        "gates": {
            "drains_clean": all(run["drains"]),
            "ledgers_reconcile": bool(
                metricsz["semcache"].get("reconciles") and metricsz["predict"].get("reconciles")
            ),
            "accepts_reconcile": fresh_accepts
            == counters.get("service.jobs_submitted", 0) - counters.get("service.jobs_shed", 0),
            "exact_repeats_from_cache": all(
                job.get("source") == "cache" for job in jobs if job["kind"] == "exact"
            ),
            "exact_answers_identical": not answers["exact_mismatches"],
            "approx_bound_violations_known": len(answers["bound_violations"])
            <= KNOWN_BOUND_VIOLATIONS,
        },
        "outputs": {
            "plan_digest": digest,
            "sources": {source: len(values) for source, values in sorted(by_source.items())},
            "approx_bound_violations": len(answers["bound_violations"]),
        },
        "diagnostics": {
            "p50_ms": median(every),
            "p95_ms": nearest_rank(every, 95.0),
            "source_p50_ms": {source: median(values) for source, values in sorted(by_source.items())},
            "tail": {"percentile": tail[0], "ms": tail[1], "samples_beyond": tail[2]} if tail else None,
            "limit_ms": LIMIT_MS,
            "rates": {str(rate): report for rate, report in rates.items()},
            "max_rate_jobs_s": max_rate(rates),
            "kinds": {kind: sum(1 for job in jobs if job["kind"] == kind) for kind, _ in MIX},
            "deduplicated": sum(1 for job in jobs if job.get("created") is False),
            "late_p50_ms": median(late),
            "late_max_ms": max(late, default=0.0),
            "max_outstanding": max(stage["max_outstanding"] for stage in stages),
            "learned_before": run["learned_before"],
            "learned_after": _tier_state(metricsz),
            "answers": answers,
            "setups": run["setups"],
            "rss": run["rss"],
        },
    }


def serve_layers(run: dict, untraced: dict, traced: dict) -> tuple[dict, dict]:
    """Per-layer metrics and span tables from the traced run."""
    dumps = [spans.read_dump(path) for path in sorted(run["spans_dir"].glob("*.json"))]
    coordinator = next(d for d in dumps if d["role"] == "coordinator")
    workers = [d for d in dumps if d["role"] == "worker"]
    tables = {
        "coordinator": spans.layer_table(coordinator["spans"]),
        "workers": [spans.layer_table(d["spans"]) for d in workers],
    }

    def durations(dump, name):
        return [
            (s["end_us"] - s["start_us"]) / 1000.0 for s in dump["spans"] if s["name"] == name
        ]

    def by_request(dump_list, name, pick):
        found = {}
        for dump in dump_list:
            for span in dump["spans"]:
                if span["name"] == name and span["request"] is not None:
                    found.setdefault(span["request"], pick(span))
        return found

    submit_end = by_request([coordinator], "service.submit", lambda s: s["end_us"])
    begin_end = by_request([coordinator], "service.begin", lambda s: s["end_us"])
    finish_end = by_request([coordinator], "service.finish", lambda s: s["end_us"])
    received = by_request(workers, "service.task_received", lambda s: s["end_us"])
    compute = by_request(workers, "harness.evaluate_cells", lambda s: (s["start_us"], s["end_us"]))

    parts: dict[str, list[float]] = {
        "queue": [], "dispatch": [], "compute": [], "ship": [], "coverage": []
    }
    jobs = run["load"]["jobs"]
    for job in jobs:
        job_id = job.get("job_id")
        if job.get("source") != "computed" or not job.get("created"):
            continue
        if not all(job_id in table for table in (submit_end, begin_end, finish_end, received, compute)):
            continue
        latency = job["server_latency_ms"]
        submitted = finish_end[job_id] - latency * 1000.0
        submit = (submit_end[job_id] - submitted) / 1000.0
        queue = (begin_end[job_id] - submit_end[job_id]) / 1000.0
        dispatch = (received[job_id] - begin_end[job_id]) / 1000.0
        work = (compute[job_id][1] - compute[job_id][0]) / 1000.0
        ship = (finish_end[job_id] - compute[job_id][1]) / 1000.0
        parts["queue"].append(queue)
        parts["dispatch"].append(dispatch)
        parts["compute"].append(work)
        parts["ship"].append(ship)
        parts["coverage"].append(100.0 * (submit + queue + work + ship) / latency)

    http = [
        latency_ms(job) - job["server_latency_ms"]
        for job in jobs
        if job.get("created") and job.get("state") == "done"
    ]
    semcache, predict = run["metricsz"]["semcache"], run["metricsz"]["predict"]
    before, after = run["learned_before"], _tier_state(run["metricsz"])

    def ratio(hits, lookups):
        return hits / lookups if lookups else 0.0

    cache = run["metricsz"]["cache"]
    coverage = median(parts["coverage"]) or 0.0
    diagnostics = untraced["diagnostics"]
    by_rate = {
        f"service.r{float(rate):g}.p95_ms": report["p95_ms"]
        for rate, report in diagnostics["rates"].items()
    }
    # The worker's own layers: the DES and friends behind computed jobs.
    layers = spans.sweep_metrics(tables["workers"])
    return tables, layers | by_rate | {
        "service.submit_ms": median(durations(coordinator, "service.submit")),
        "service.cell_digest_ms": median(durations(coordinator, "service.cell_digest")),
        "service.queue_wait_ms": median(parts["queue"]),
        "service.dispatch_ms": median(parts["dispatch"]),
        "service.worker_compute_ms": median(parts["compute"]),
        "service.ship_ms": median(parts["ship"]),
        "service.journal_append_ms": median(durations(coordinator, "service.journal_append")),
        "service.http_ms": median(http),
        "service.metricsz_ms": run["metricsz_ms"],
        "service.worker_rss_mb": run["rss"]["worker_mb"],
        "service.p50_ms": diagnostics["p50_ms"],
        "service.p95_ms": diagnostics["p95_ms"],
        "service.max_rate_jobs_s": diagnostics["max_rate_jobs_s"],
        **{
            f"service.{source}_p50_ms": diagnostics["source_p50_ms"].get(source)
            for source in ("cache", "transfer", "predicted", "computed")
        },
        "semcache.consult_ms": median(durations(coordinator, "semcache.consult")),
        "semcache.transfer_ratio": ratio(semcache["transfers"], semcache["lookups"]),
        "semcache.learned_apps": after["semcache_apps"] - before["semcache_apps"],
        "predict.consult_ms": median(durations(coordinator, "predict.consult")),
        "predict.prediction_ratio": ratio(predict["predictions"], predict["lookups"]),
        "predict.learned_samples": after["predict_samples"] - before["predict_samples"],
        "persistence.hit_ratio": cache["hit_ratio"] or 0.0,
        "obs.tracer_events": coordinator["tracer_events"],
        "obs.trace_overhead_pct": spans.overhead_pct(
            traced["diagnostics"]["p50_ms"], diagnostics["p50_ms"]
        ),
        "trace.unattributed_pct": 100.0 - coverage,
        "loadgen.late_p50_ms": diagnostics["late_p50_ms"],
        "loadgen.late_max_ms": diagnostics["late_max_ms"],
        "loadgen.max_outstanding": diagnostics["max_outstanding"],
    }


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    common.use_repo_sources()
    document = summarize(measure(seed, seconds, workdir, traced=False))
    if trace:
        (workdir / "traced").mkdir()
        traced_run = measure(seed, seconds, workdir / "traced", traced=True)
        traced = summarize(traced_run)
        document["layer_tables"], document["layers"] = serve_layers(
            traced_run, document, traced
        )
        document["gates"].update({f"traced_{k}": v for k, v in traced["gates"].items()})
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    runner = commands.add_parser("run")
    runner.add_argument("--seed", type=int, required=True)
    runner.add_argument("--seconds", type=float, required=True)
    runner.add_argument("--trace", type=int, choices=(0, 1), default=0)
    runner.add_argument("--result", required=True)
    donors = commands.add_parser("donors")
    donors.add_argument("--cache-dir", required=True)
    donors.add_argument("--spawned-us", type=float, required=True)
    args = parser.parse_args(argv)
    if args.command == "donors":
        seed_donors(args.cache_dir, args.spawned_us)
        return 0
    workdir = common.new_run_dir("serve-mix")
    try:
        write_json(args.result, run(args.seed, args.seconds, bool(args.trace), workdir))
    finally:
        common.remove_run_dir(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
