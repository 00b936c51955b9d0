"""Microbenchmarks of the substrate hot paths.

These are genuine multi-round pytest-benchmark measurements (everything
else in this suite times one-shot artifact regeneration): the DES engine,
the windowed engine, PKP-monitored kernels (one that stabilises, one
that never does), k-means clustering at PKS
scale, the TBPoint merge tree, and the analytic silicon model — plus
wall-clock records for the execution backends (serial versus process
pool), the on-disk run cache (cold versus warm corpus sweep) and the
semantic cache's observe path.
"""

from __future__ import annotations

import time
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import EvaluationHarness
from repro.analysis import semcache
from repro.analysis.persistence import RunCache
from repro.core import PKPConfig, run_pkp
from repro.gpu import (
    AMPERE_A100,
    InstructionMix,
    KernelLaunch,
    KernelSpec,
    TURING_RTX2060,
    VOLTA_V100,
)
from repro.mlkit import KMeans, build_merge_tree
from repro.sim import (
    ProcessPoolBackend,
    SerialBackend,
    Simulator,
    analytic_kernel_cycles,
    simulate_kernel,
)


def _launch(grid: int, duration_cv: float = 0.1) -> KernelLaunch:
    spec = KernelSpec(
        name="microbench",
        threads_per_block=256,
        mix=InstructionMix(fp_ops=500.0, global_loads=20.0, shared_loads=80.0),
        l2_locality=0.7,
        working_set_bytes=32e6,
        duration_cv=duration_cv,
    )
    return KernelLaunch(spec=spec, grid_blocks=grid, launch_id=0)


def test_engine_fast_path_10k_blocks(benchmark):
    launch = _launch(10_000)
    result = benchmark(simulate_kernel, launch, VOLTA_V100)
    assert result.blocks_finished == 10_000


def test_engine_windowed_path_2k_blocks(benchmark):
    launch = _launch(2_000)
    result = benchmark(
        simulate_kernel, launch, VOLTA_V100, collect_series=True
    )
    assert result.samples


def test_pkp_monitored_kernel(benchmark):
    """PKP's stop path: a multi-wave regular kernel under the default
    stability monitor, which fires a little past the first wave."""
    launch = _launch(20_000)
    simulator = Simulator(VOLTA_V100)
    projection = benchmark(run_pkp, simulator, launch, PKPConfig())
    assert projection.stopped_early
    assert projection.result.blocks_finished < launch.grid_blocks


def test_pkp_monitored_irregular_kernel(benchmark):
    """The stability monitor's worst case: a BFS-like kernel whose IPC
    never settles, so every window is judged and the kernel runs to
    completion under the monitor."""
    launch = _launch(4_000, duration_cv=0.8)
    simulator = Simulator(VOLTA_V100)
    projection = benchmark(run_pkp, simulator, launch, PKPConfig())
    assert not projection.stopped_early
    assert projection.result.blocks_finished == launch.grid_blocks


def test_analytic_model_is_fast(benchmark):
    """The silicon model must cost microseconds: MLPerf apps price 50k+
    launches through it."""
    launch = _launch(4_000)
    cycles = benchmark(analytic_kernel_cycles, launch, VOLTA_V100)
    assert cycles > 0


def test_kmeans_at_pks_scale(benchmark):
    rng = np.random.default_rng(0)
    points = rng.normal(size=(20_000, 5))

    def cluster():
        return KMeans(n_clusters=8, n_init=1, max_iter=40, seed=0).fit_predict(
            points
        )

    labels = benchmark(cluster)
    assert len(labels) == 20_000


def test_merge_tree_at_tbpoint_scale(benchmark):
    rng = np.random.default_rng(0)
    points = rng.normal(size=(1_500, 5))
    tree = benchmark(build_merge_tree, points)
    assert len(tree.merges) == 1_499


def test_merge_tree_duplicate_heavy(benchmark):
    """gramschmidt's TBPoint input: 6411 kernels, one feature, 21 distinct
    values, so nearly every merge is a distance-0 tie."""
    rng = np.random.default_rng(0)
    values = rng.uniform(-1.0, 1.0, size=21)
    points = values[rng.integers(0, 21, size=6_411)][:, None]
    tree = benchmark.pedantic(build_merge_tree, args=(points,), rounds=3)
    assert len(tree.merges) == 6_410


# ---------------------------------------------------------------------------
# Execution backends and the on-disk run cache.  These record wall-clock
# (one-shot, like the artifact-regeneration benchmarks) rather than
# multi-round stats: pool startup and disk I/O are exactly what is being
# measured.
# ---------------------------------------------------------------------------

#: Enough distinct kernels that per-kernel fan-out has work to spread.
_BACKEND_WORKLOAD = "cutcp"
#: Corpus slice for the cache sweep: small but heterogeneous.
_CACHE_WORKLOADS = ("fdtd2d", "cutcp", "histo")


def _distinct_launches(workload: str) -> list:
    from repro.workloads import get_workload

    launches = get_workload(workload).build("volta")
    seen: dict[tuple[int, int], KernelLaunch] = {}
    for launch in launches:
        seen.setdefault((launch.spec.signature(), launch.grid_blocks), launch)
    return list(seen.values())


def test_serial_vs_parallel_full_sim_wallclock(record_property):
    """Record serial versus process-pool wall-clock for one full sim.

    On a single-core runner the pool cannot win (it pays fork and IPC
    with no added parallelism), so this records the ratio rather than
    asserting a speedup; the equality assertion is the part that must
    hold everywhere.
    """
    from repro.workloads import get_workload

    launches = get_workload(_BACKEND_WORKLOAD).build("volta")

    t0 = time.perf_counter()
    serial = Simulator(VOLTA_V100, backend=SerialBackend()).run_full(
        _BACKEND_WORKLOAD, launches
    )
    serial_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = Simulator(VOLTA_V100, backend=ProcessPoolBackend()).run_full(
        _BACKEND_WORKLOAD, launches
    )
    parallel_seconds = time.perf_counter() - t0

    assert parallel == serial  # bit-identical, not approximately equal
    record_property("serial_seconds", round(serial_seconds, 4))
    record_property("parallel_seconds", round(parallel_seconds, 4))
    record_property(
        "parallel_speedup", round(serial_seconds / max(parallel_seconds, 1e-9), 3)
    )
    print(
        f"\nfull-sim wall-clock: serial {serial_seconds:.3f}s, "
        f"process-pool {parallel_seconds:.3f}s "
        f"({serial_seconds / max(parallel_seconds, 1e-9):.2f}x)"
    )


def test_warm_cache_sweep_speedup(tmp_path, record_property):
    """A warm on-disk cache makes a repeat corpus sweep >= 3x faster.

    Cold: serial compute, writing every cell through to disk.  Warm: a
    fresh harness (empty in-memory memo) over the same cache directory,
    so every cell is a disk read.  The 3x floor is the acceptance bar;
    in practice the warm sweep is one to two orders of magnitude faster.
    """
    cells = [
        (workload, method, None)
        for workload in _CACHE_WORKLOADS
        for method in ("silicon", "full_sim", "pka_sim", "first_1b")
    ]

    cold_harness = EvaluationHarness(cache_dir=tmp_path)
    t0 = time.perf_counter()
    cold = cold_harness.evaluate_cells(cells)
    cold_seconds = time.perf_counter() - t0
    assert cold_harness.run_cache.writes > 0

    warm_harness = EvaluationHarness(cache_dir=tmp_path)
    t0 = time.perf_counter()
    warm = warm_harness.evaluate_cells(cells)
    warm_seconds = time.perf_counter() - t0

    assert warm == cold  # cached results are bit-identical
    assert warm_harness.run_cache.hits > 0
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    record_property("cold_seconds", round(cold_seconds, 4))
    record_property("warm_seconds", round(warm_seconds, 4))
    record_property("warm_speedup", round(speedup, 2))
    print(
        f"\ncorpus sweep: cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 3.0, (
        f"warm cache sweep only {speedup:.2f}x faster than cold serial run"
    )


@pytest.mark.parametrize("jobs", [2, 4])
def test_parallel_prefetch_is_identical_at_scale(jobs):
    """Backend worker-count sweep on real distinct kernels (not synthetic):
    the prefetched memo tables must reproduce serial results exactly."""
    launches = _distinct_launches(_BACKEND_WORKLOAD)
    serial = Simulator(VOLTA_V100).run_full("distinct", launches)
    pooled = Simulator(VOLTA_V100, backend=jobs).run_full("distinct", launches)
    assert pooled == serial


# ---------------------------------------------------------------------------
# Approximate-tier learning.
# ---------------------------------------------------------------------------


def test_tier_observe_cost(tmp_path, monkeypatch, record_property):
    """Each semantic-cache observe renders only the donor it adds.

    480 synthetic donors over 6 ``method@gpu`` partitions, each capped
    at the default 64 apps, so the last 96 observes also evict.  Every
    persist writes the whole state document, but each donor entry's JSON
    text is rendered once and reused, so renders equal observes — where
    dumping the whole document on each observe would render one entry
    per donor held, over 100,000 in all.  The wall time is recorded,
    not bounded.
    """
    renders = 0

    class CountingEntry(semcache._AppEntry):
        @cached_property
        def text(self) -> str:
            nonlocal renders
            renders += 1
            return super().text

    monkeypatch.setattr(semcache, "_AppEntry", CountingEntry)
    # The synthetic donors are their own kernel groups.
    monkeypatch.setattr(
        semcache, "_group_launches", lambda launches, generation, max_groups: launches
    )
    tier = semcache.SemanticCache(
        semcache.SemanticCacheConfig(), RunCache(tmp_path), "microbench"
    )
    rng = np.random.default_rng(0)
    slots = [
        (method, gpu)
        for method in ("full_sim", "pka_sim")
        for gpu in (VOLTA_V100, TURING_RTX2060, AMPERE_A100)
    ]
    observes = 480
    t0 = time.perf_counter()
    for n in range(observes):
        method, gpu = slots[n % len(slots)]
        rows = [
            semcache._GroupRow(
                counters=tuple(float(v) for v in rng.uniform(1.0, 1e6, size=12)),
                warp_instructions=1e5,
                launches=4,
            )
            for _ in range(3)
        ]
        tier.observe(
            workload=f"synthetic{n}",
            method=method,
            gpu=gpu,
            launches=rows,
            digest=f"{n:064x}",
            result=SimpleNamespace(
                total_cycles=4e5, total_instructions=3e5, total_dram_bytes=1e6
            ),
        )
    seconds = time.perf_counter() - t0
    snapshot = tier.snapshot()
    assert snapshot["observations"] == observes
    assert snapshot["partitions"] == len(slots)
    assert snapshot["index_apps"] == len(slots) * 64
    assert renders == observes
    record_property("observes", observes)
    record_property("renders", renders)
    record_property("observe_ms", round(seconds / observes * 1e3, 3))
    print(
        f"\nsemcache observe: {observes} observes, {renders} entry renders, "
        f"{seconds / observes * 1e3:.3f} ms each"
    )


# ---------------------------------------------------------------------------
# Observability overhead.
# ---------------------------------------------------------------------------


def test_tracing_disabled_overhead_under_5pct(record_property):
    """Disabled tracing must cost < 5% of a real simulation's wall time.

    A/B wall-clock comparisons of full runs are too noisy for CI, so this
    bounds the overhead analytically: measure the *disabled* per-call cost
    of ``obs_span``/``obs_count`` directly, count how many instrumentation
    call sites one full simulation actually passes through (``records`` on
    an enabled tracer), and require their product to stay under 5% of the
    disabled-mode wall time.
    """
    from repro import obs
    from repro.obs import obs_count, obs_span
    from repro.workloads import get_workload

    # 1. Disabled per-call cost of both entry points.
    obs.reset()
    calls = 200_000
    t0 = time.perf_counter()
    for _ in range(calls):
        with obs_span("bench.span", kernels=1):
            pass
    span_cost = (time.perf_counter() - t0) / calls
    t0 = time.perf_counter()
    for _ in range(calls):
        obs_count("bench.counter")
    count_cost = (time.perf_counter() - t0) / calls
    per_call = max(span_cost, count_cost)

    launches = get_workload(_BACKEND_WORKLOAD).build("volta")

    # 2. Wall time of one full simulation with tracing disabled.
    t0 = time.perf_counter()
    disabled = Simulator(VOLTA_V100).run_full(_BACKEND_WORKLOAD, launches)
    disabled_seconds = time.perf_counter() - t0

    # 3. Instrumentation call sites the same simulation passes through.
    obs.enable()
    try:
        enabled = Simulator(VOLTA_V100).run_full(_BACKEND_WORKLOAD, launches)
        records = obs.get_tracer().records
    finally:
        obs.reset()
    assert enabled == disabled  # telemetry must never change results
    assert records > 0

    overhead_seconds = records * per_call
    ratio = overhead_seconds / max(disabled_seconds, 1e-9)
    record_property("disabled_per_call_ns", round(per_call * 1e9, 1))
    record_property("instrumented_records", records)
    record_property("overhead_ratio", round(ratio, 5))
    print(
        f"\ntracing overhead: {per_call * 1e9:.0f} ns/call disabled, "
        f"{records} call sites in one full sim, "
        f"{overhead_seconds * 1e3:.2f} ms bound vs {disabled_seconds:.3f} s "
        f"({ratio * 100:.3f}%)"
    )
    assert ratio < 0.05, (
        f"disabled-mode tracing overhead bound {ratio * 100:.2f}% exceeds 5%"
    )
