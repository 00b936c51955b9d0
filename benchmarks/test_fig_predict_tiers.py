"""Prediction-tier figure: speed and the error-bound contract.

The prediction tiers' pitch is latency: a calibrated tier prices a cold
cell with occupancy arithmetic instead of an event loop, so it must be
at least an order of magnitude faster than the DES on the same cells —
while every served estimate's realized error stays under its advertised
bound.  And when the subsystem is disabled it must cost essentially
nothing: the consult hook is a None check.

The corpus matters.  The repo's small polybench cells are nearly free to
simulate — the DES memoizes per distinct (spec, grid) group and its
per-kernel cost scales with the grid, so a three-group 1 500-launch app
finishes in a millisecond and there is nothing for pricing to win.  The
speed claim only means something at the paper's scale, where each app
carries dozens of distinct large-grid kernel groups and the event loop
has real work per group.  This benchmark registers three such synthetic
apps (dense / streaming / divergent characters from the workload
generator), calibrates the tiers on them, answers held-out near
duplicates by prediction, and compares per-cell prediction latency (p50)
against the DES computing the identical cells.  The error-bound contract
is asserted on every served cell.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis import EvaluationHarness
from repro.predict import PredictedResult
from repro.workloads import WorkloadSpec, get_workload, register
from repro.workloads.spec import _DERIVED, _REGISTRY
from repro.workloads.generator import (
    LaunchBuilder,
    MIB,
    compute_spec,
    irregular_spec,
    streaming_spec,
)
from conftest import print_header


def _dense_launches():
    builder = LaunchBuilder()
    for i in range(24):
        spec = compute_spec(
            f"predbench_dense_{i}",
            flops=280.0 + 12.0 * i,
            loads=16.0 + i,
            working_set=(16 + i) * MIB,
        )
        builder.add(spec, grid_blocks=110_000 + 2_500 * i, repeat=4)
    return builder.launches()


def _stream_launches():
    builder = LaunchBuilder()
    for i in range(20):
        spec = streaming_spec(
            f"predbench_stream_{i}",
            loads=20.0 + 1.5 * i,
            stores=10.0 + i,
            working_set=(128 + 8 * i) * MIB,
        )
        builder.add(spec, grid_blocks=95_000 + 4_000 * i, repeat=5)
    return builder.launches()


def _sparse_launches():
    builder = LaunchBuilder()
    for i in range(20):
        spec = irregular_spec(
            f"predbench_sparse_{i}",
            loads=26.0 + 2.0 * i,
            divergence=0.35 + 0.01 * i,
            working_set=(96 + 6 * i) * MIB,
            duration_cv=0.2,
        )
        builder.add(spec, grid_blocks=80_000 + 3_500 * i, repeat=3)
    return builder.launches()


#: Paper-scale synthetic bases: mutually dissimilar characters, each with
#: dozens of distinct ~100k-block kernel groups so the event loop pays a
#: real per-group cost.  Every donor is computed, every variant held out.
BASES = ("predbench_dense", "predbench_stream", "predbench_sparse")
VARIANTS = ("~nd1", "~nd2")


@pytest.fixture(scope="module")
def predbench_corpus():
    """Register the synthetic bases for this module only.

    Registered at import time they leaked into every later benchmark in
    the session (the corpus-wide figures then saw 150 workloads).
    """
    get_workload("fdtd2d")  # force the registry load before registering
    for name, builder in zip(
        BASES, (_dense_launches, _stream_launches, _sparse_launches)
    ):
        register(WorkloadSpec(name=name, suite="predbench", builder=builder))
    try:
        yield BASES
    finally:
        for name in BASES:
            _REGISTRY.pop(name, None)
            for suffix in VARIANTS:
                _DERIVED.pop(name + suffix, None)


@pytest.fixture(scope="module")
def corpus_harnesses(predbench_corpus, tmp_path_factory):
    # Built after registering: a PKA_JOBS pool forks and must inherit
    # the synthetic bases.
    cache = tmp_path_factory.mktemp("predict-bench")
    predict = EvaluationHarness(
        backend=os.environ.get("PKA_JOBS"),
        cache_dir=cache / "predict",
        predict=True,
    )
    truth = EvaluationHarness(
        backend=os.environ.get("PKA_JOBS"),
        cache_dir=cache / "truth",
    )
    return predict, truth


def _run_corpus(predict: EvaluationHarness, truth: EvaluationHarness):
    for base in BASES:
        donor = predict.evaluation(base).full_sim()
        assert donor is not None and not isinstance(donor, PredictedResult)
    rows = []
    for base in BASES:
        for suffix in VARIANTS:
            name = base + suffix
            started = time.perf_counter()
            answer = predict.evaluation(name).full_sim()
            predict_s = time.perf_counter() - started
            started = time.perf_counter()
            ground = truth.evaluation(name).full_sim()
            des_s = time.perf_counter() - started
            error = (
                abs(answer.total_cycles - ground.total_cycles)
                / ground.total_cycles
            )
            rows.append((name, answer, error, predict_s, des_s))
    return rows


def test_fig_predict_tiers(corpus_harnesses, benchmark):
    predict, truth = corpus_harnesses
    rows = benchmark.pedantic(
        _run_corpus, args=(predict, truth), iterations=1, rounds=1
    )

    print_header("Prediction tiers: latency and error vs advertised bound")
    print(f"{'variant':<22} {'tier':<12} {'error':>8} {'bound':>8} "
          f"{'predict':>9} {'DES':>9} {'speedup':>8}")
    for name, answer, error, predict_s, des_s in rows:
        tier = getattr(answer, "predicted_by", "-")
        bound = getattr(answer, "prediction_error_bound", float("nan"))
        ratio = des_s / predict_s if predict_s > 0 else float("inf")
        print(f"{name:<22} {tier:<12} {error:>7.2%} {bound:>7.2%} "
              f"{predict_s * 1e3:>7.1f}ms {des_s * 1e3:>7.1f}ms "
              f"{ratio:>7.1f}x")
    snap = predict.predict.snapshot()
    print(
        f"calibration: {snap['calibration_samples']} samples / "
        f"{snap['training_rows']} rows; lookups {snap['lookups']}, "
        f"predictions {snap['predictions']} "
        f"({snap['predictions_analytical']} analytical, "
        f"{snap['predictions_surrogate']} surrogate), "
        f"escalations {snap['escalations']}"
    )

    predicted = [row for row in rows if isinstance(row[1], PredictedResult)]
    # The duplicate corpus must be predictable once calibrated — every
    # variant of every base, no escapes to the DES.
    assert len(predicted) == len(rows)

    # The contract: realized error never exceeds the advertised bound.
    for name, answer, error, _p, _d in predicted:
        assert error <= answer.prediction_error_bound, (
            f"{name}: error {error:.2%} exceeds advertised bound "
            f"{answer.prediction_error_bound:.2%}"
        )

    # Speed: p50 over the cold cells at least 10x faster than the DES.
    speedups = sorted(des_s / max(predict_s, 1e-9)
                      for _n, _a, _e, predict_s, des_s in predicted)
    p50 = speedups[len(speedups) // 2]
    print(f"speedup p50: {p50:.1f}x over {len(speedups)} predicted cell(s)")
    assert p50 >= 10.0

    # The ledger reconciles over the whole corpus run.
    assert snap["reconciles"] is True


def test_predict_disabled_overhead(predbench_corpus, tmp_path):
    # With prediction off, the consult hook must be a None check — its
    # cost over an entire sweep is bounded well under 5% of one cell's
    # DES time.
    harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "c")
    assert harness.predict is None

    started = time.perf_counter()
    computed = harness.evaluation(BASES[0]).full_sim()
    des_s = time.perf_counter() - started
    assert computed is not None

    probes = 1000
    started = time.perf_counter()
    for _ in range(probes):
        assert harness.predict_probe(BASES[1], "full_sim") is None
    probe_s = (time.perf_counter() - started) / probes

    print_header("Prediction tiers: disabled-path overhead")
    print(f"DES cell: {des_s * 1e3:.1f}ms; disabled probe: "
          f"{probe_s * 1e6:.2f}us/call "
          f"({probe_s / des_s:.2e} of one cell)")
    assert probe_s < 0.05 * des_s
