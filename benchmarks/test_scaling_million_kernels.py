"""Scalability at paper-scale kernel counts: clustering and simulation.

The paper's §3.1: "k-means clustering can scale to the millions of
kernels in our large workloads, where hierarchical clustering demands an
impractical amount of memory and runtime."  This module makes the claim
executable twice over:

* the original clustering benchmark — a paper-scale (million-row)
  feature matrix through Lloyd's and mini-batch k-means, with
  hierarchical clustering refusing the same input at its capacity wall;
* a **cold** million-launch simulation benchmark for intra-run
  parallelism — a fresh simulator (empty kernel memo, no on-disk cache
  anywhere near it) over a million-launch stream, serial versus
  ``intra_jobs=4``.  Earlier versions of this file only ever measured
  warm-cache behaviour (the session harness memoizes everything);
  the cold path is the one practitioners actually pay, so both timed
  runs here construct their ``Simulator`` from scratch and nothing is
  reused between them.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.mlkit import (
    ClusteringCapacityError,
    KMeans,
    MiniBatchKMeans,
    build_merge_tree,
)
from repro.gpu import VOLTA_V100
from repro.sim import Simulator
from repro.workloads import get_workload
from repro.workloads.generator import (
    LaunchBuilder,
    compute_spec,
    irregular_spec,
    streaming_spec,
    workload_rng,
)
from repro.profiling.detailed import collect_counters
from repro.mlkit import StandardScaler, log_compress
from conftest import print_header


# ---------------------------------------------------------------------------
# Clustering at paper scale (the original §3.1 benchmark).
# ---------------------------------------------------------------------------


def _paper_scale_features():
    """A 1.06M x 12 feature matrix: SSD's synthetic kernels tiled by its
    scale factor with small jitter (what profiling 5.3M kernels yields)."""
    spec = get_workload("mlperf_ssd_training")
    launches = spec.build()
    base = np.stack([collect_counters(launch) for launch in launches[:10_600]])
    rng = np.random.default_rng(0)
    tiles = [base * (1.0 + 0.02 * rng.standard_normal(base.shape)) for _ in range(100)]
    counters = np.abs(np.concatenate(tiles))
    return StandardScaler().fit_transform(log_compress(counters))


def test_clustering_scales_to_millions(harness, benchmark):
    features = _paper_scale_features()
    assert features.shape[0] > 1_000_000

    start = time.time()
    mini = MiniBatchKMeans(n_clusters=8, seed=0, n_init=2).fit(features)
    mini_seconds = time.time() - start

    def lloyd():
        return KMeans(n_clusters=8, n_init=1, max_iter=30, seed=0).fit(features)

    start = time.time()
    full = benchmark.pedantic(lloyd, iterations=1, rounds=1)
    lloyd_seconds = time.time() - start

    print_header("Scalability: clustering 1.06M kernel feature vectors")
    print(f"matrix: {features.shape[0]:,} x {features.shape[1]}")
    print(f"Lloyd k-means:      {lloyd_seconds:6.1f}s  inertia {full.inertia_:.4g}")
    print(f"mini-batch k-means: {mini_seconds:6.1f}s  inertia {mini.inertia_:.4g}")

    # Both finish in interactive time; mini-batch is the cheaper of the
    # two and loses little quality.
    assert lloyd_seconds < 120.0
    assert mini_seconds < 60.0
    assert mini.inertia_ <= full.inertia_ * 1.25

    # Hierarchical clustering hits its wall orders of magnitude earlier:
    # the 1M-point distance matrix alone would be ~8 TB.
    with pytest.raises(ClusteringCapacityError):
        build_merge_tree(features[:25_000])


# ---------------------------------------------------------------------------
# Cold million-launch simulation: intra-run parallelism scaling gate.
# ---------------------------------------------------------------------------

#: Distinct (spec, grid) pairs in the stream.  Large grids spanning many
#: 65 536-block RNG chunks keep the per-kernel duration synthesis — the
#: parallelizable part — dominant over the serial stream accounting.
_N_DISTINCT = 384
_STREAM_LAUNCHES = 1_000_000


def _million_launch_stream():
    """A seeded ~1M-launch stream over a few hundred huge-grid kernels."""
    rng = workload_rng("bench_cold_million", "grids")
    factories = (compute_spec, streaming_spec, irregular_spec)
    builder = LaunchBuilder()
    base, extra = divmod(_STREAM_LAUNCHES, _N_DISTINCT)
    for index in range(_N_DISTINCT):
        factory = factories[index % len(factories)]
        spec = factory(f"bench_cold_{index}")
        grid = int(rng.integers(400_000, 600_000))
        builder.add(spec, grid, repeat=base + (1 if index < extra else 0))
    launches = builder.launches()
    assert len(launches) == _STREAM_LAUNCHES
    return launches


def _cold_run(launches, *, intra_jobs=None):
    """Time one cold full-sim run: fresh simulator, empty memo, no disk
    cache involved anywhere (the Simulator has none by construction)."""
    simulator = Simulator(VOLTA_V100, intra_jobs=intra_jobs)
    start = time.perf_counter()
    result = simulator.run_full("bench_cold_million", launches)
    return result, time.perf_counter() - start


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="intra_jobs=4 speedup gate needs >= 4 CPUs",
)
def test_cold_million_kernel_run_scales_with_intra_jobs(record_property):
    """Cold million-launch run: ``intra_jobs=4`` must be >= 2x serial.

    The stream is built once outside the timed region (launch-object
    construction is identical work for both paths); each timed run then
    starts from a fresh ``Simulator`` so every kernel's durations are
    synthesized from scratch — the cold cost a practitioner pays on
    first contact with a workload.  The results must also match bitwise:
    the speedup may not buy even one ulp of drift.
    """
    launches = _million_launch_stream()

    serial, serial_seconds = _cold_run(launches)
    sharded, sharded_seconds = _cold_run(launches, intra_jobs=4)

    assert sharded == serial  # bit-identical, not approximately equal
    speedup = serial_seconds / max(sharded_seconds, 1e-9)
    record_property("serial_seconds", round(serial_seconds, 3))
    record_property("intra4_seconds", round(sharded_seconds, 3))
    record_property("intra4_speedup", round(speedup, 3))
    print_header("Cold million-launch simulation: serial vs intra_jobs=4")
    print(f"launches: {len(launches):,} over {_N_DISTINCT} distinct kernels")
    print(f"serial:       {serial_seconds:6.2f}s")
    print(f"intra_jobs=4: {sharded_seconds:6.2f}s  ({speedup:.2f}x)")
    assert speedup >= 2.0, (
        f"cold million-kernel run only {speedup:.2f}x faster at intra_jobs=4"
    )


def test_intra_observability_overhead_under_5pct(record_property):
    """Disabled tracing must stay < 5% of a cold sharded-scale run.

    Same analytic bound as the microbench suite: per-call disabled cost
    of ``obs_span``/``obs_count`` times the number of instrumentation
    sites one cold run passes through (including the new ``sim.intra.*``
    counters and per-shard spans), measured against the disabled-mode
    wall time of the same run.
    """
    from repro import obs
    from repro.obs import obs_count, obs_span

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

    # A slice of the cold stream is plenty to count call sites; the
    # per-launch instrumentation rate is what matters, not duration.
    launches = _million_launch_stream()[:100_000]

    t0 = time.perf_counter()
    disabled, _ = _cold_run(launches)
    disabled_seconds = time.perf_counter() - t0

    obs.enable()
    try:
        enabled, _ = _cold_run(launches)
        records = obs.get_tracer().records
        counters = dict(obs.get_tracer().counters)
    finally:
        obs.reset()
    assert enabled == disabled  # telemetry must never change results
    assert counters.get("sim.intra.stream_groups", 0) > 0

    overhead_seconds = records * per_call
    ratio = overhead_seconds / max(disabled_seconds, 1e-9)
    record_property("disabled_per_call_ns", round(per_call * 1e9, 1))
    record_property("instrumented_records", records)
    record_property("overhead_ratio", round(ratio, 5))
    print(
        f"\nintra-run tracing overhead: {per_call * 1e9:.0f} ns/call disabled, "
        f"{records} call sites, {overhead_seconds * 1e3:.2f} ms bound vs "
        f"{disabled_seconds:.3f} s ({ratio * 100:.3f}%)"
    )
    assert ratio < 0.05, (
        f"disabled-mode tracing overhead bound {ratio * 100:.2f}% exceeds 5%"
    )
