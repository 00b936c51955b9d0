"""Synthetic Polybench suite.

Includes the paper's showcase workloads: fdtd2d (1500 launches in two PKS
groups of 1000 and 500 — Table 3), gramschmidt (6411 launches in six
groups), atax (the Figure-5 regular IPC example) and the long-running
single-kernel apps (correlation, covariance, syr2k) where only PKP helps.
"""

from __future__ import annotations

from repro.workloads.generator import (
    LaunchBuilder,
    compute_spec,
    streaming_spec,
    tiny_spec,
)
from repro.workloads.spec import WorkloadSpec
from repro.workloads.table import LaunchTable

__all__ = ["build_suite"]

MIB = 1024 * 1024


def _conv2d() -> LaunchTable:
    builder = LaunchBuilder()
    kernel = streaming_spec(
        "Convolution2D_kernel", loads=180.0, stores=20.0, locality=0.55
    )
    builder.add(kernel, 3_072)
    return builder.table()


def _mm(count: int, prefix: str) -> LaunchTable:
    """2mm / 3mm: a chain of GEMM kernels in one behavioural family."""
    builder = LaunchBuilder()
    for index in range(count):
        gemm = compute_spec(
            f"{prefix}_kernel{index + 1}",
            flops=11_000.0,
            shared=900.0,
            locality=0.8,
            working_set=128 * MIB,
        )
        builder.add(gemm, 1_280)
    return builder.table()


def _conv3d() -> LaunchTable:
    """3D convolution sweeps one kernel across 254 z-slices."""
    builder = LaunchBuilder()
    kernel = streaming_spec("convolution3D_kernel", loads=54.0, stores=4.0, locality=0.6)
    builder.add(kernel, 256, repeat=254)
    return builder.table()


def _atax() -> LaunchTable:
    """The Figure-5a regular workload: two long streaming mat-vec kernels."""
    builder = LaunchBuilder()
    kernel1 = streaming_spec(
        "atax_kernel1", loads=700.0, stores=2.0, flops=700.0, locality=0.3,
        duration_cv=0.03,
    )
    kernel2 = streaming_spec(
        "atax_kernel2", loads=700.0, stores=2.0, flops=700.0, locality=0.3,
        sectors=8.0, duration_cv=0.03,
    )
    builder.add(kernel1, 1_280)
    builder.add(kernel2, 1_280)
    return builder.table()


def _bicg() -> LaunchTable:
    builder = LaunchBuilder()
    kernel1 = streaming_spec(
        "bicg_kernel1", loads=650.0, stores=2.0, flops=650.0, locality=0.3
    )
    kernel2 = streaming_spec(
        "bicg_kernel2", loads=650.0, stores=2.0, flops=650.0, locality=0.3,
        sectors=8.0,
    )
    builder.add(kernel1, 1_280)
    builder.add(kernel2, 1_280)
    return builder.table()


def _correlation() -> LaunchTable:
    """Long-running multi-kernel statistics app (full sim takes weeks)."""
    builder = LaunchBuilder()
    mean = streaming_spec("mean_kernel", loads=240.0, stores=2.0, locality=0.35)
    std = streaming_spec("std_kernel", loads=260.0, stores=2.0, locality=0.35)
    reduce_k = compute_spec(
        "reduce_kernel", flops=3_000.0, loads=90.0, locality=0.7, working_set=512 * MIB
    )
    corr = compute_spec(
        "corr_kernel", flops=300_000.0, loads=5_000.0, locality=0.7,
        working_set=512 * MIB,
    )
    builder.add(mean, 1_280)
    builder.add(std, 1_280)
    builder.add(reduce_k, 1_280)
    builder.add(corr, 1_280)
    return builder.table()


def _covariance() -> LaunchTable:
    builder = LaunchBuilder()
    mean = streaming_spec(
        "covar_mean_kernel", loads=240.0, stores=2.0, locality=0.35
    )
    reduce_k = compute_spec(
        "covar_reduce_kernel",
        flops=3_000.0,
        loads=90.0,
        locality=0.7,
        working_set=512 * MIB,
    )
    covar = compute_spec(
        "covar_kernel", flops=300_000.0, loads=5_000.0, locality=0.7,
        working_set=512 * MIB,
    )
    builder.add(mean, 1_280)
    builder.add(reduce_k, 1_280)
    builder.add(covar, 1_280)
    return builder.table()


def _fdtd2d() -> LaunchTable:
    """500 time steps x 3 kernels; two of the three cluster together.

    Table 3: PKS selects kernel ids 0 and 2 to represent groups of 1000
    and 500 kernels respectively.
    """
    builder = LaunchBuilder()
    step_ex = streaming_spec("fdtd_step1_kernel", loads=22.0, stores=8.0, locality=0.5)
    step_ey = streaming_spec("fdtd_step2_kernel", loads=22.0, stores=8.0, locality=0.5)
    # The hz update is compute-heavy and several times longer than the
    # field steps, forcing the K sweep past K=1 and yielding the 1000/500
    # group split of Table 3.
    step_hz = compute_spec(
        "fdtd_step3_kernel", flops=7_000.0, loads=40.0, shared=500.0, locality=0.8
    )
    for _ in range(500):
        builder.add(step_ex, 1_024)
        builder.add(step_ey, 1_024)
        builder.add(step_hz, 1_024)
    return builder.table()


def _gemm() -> LaunchTable:
    builder = LaunchBuilder()
    kernel = compute_spec(
        "gemm_kernel", flops=18_000.0, shared=1_500.0, locality=0.8,
        working_set=160 * MIB,
    )
    builder.add(kernel, 1_280)
    return builder.table()


def _gesummv() -> LaunchTable:
    builder = LaunchBuilder()
    kernel = streaming_spec(
        "gesummv_kernel", loads=1_000.0, stores=2.0, flops=900.0, locality=0.25
    )
    builder.add(kernel, 1_280)
    return builder.table()


def _gramschmidt() -> LaunchTable:
    """2137 iterations x 3 kernels = 6411 launches in ~6 natural groups.

    The per-iteration grids shrink as the factorization proceeds, so the
    same kernel name lands in different PKS groups at different matrix
    sizes — matching Table 3's six selected kernels with group sizes
    2048/2273/479/448/448/448.
    """
    builder = LaunchBuilder()
    norm = tiny_spec("gramschmidt_kernel1", work=80.0)
    scale = tiny_spec("gramschmidt_kernel2", work=60.0)
    update = streaming_spec(
        "gramschmidt_kernel3", loads=26.0, stores=10.0, locality=0.45
    )
    columns = 2137
    # The update kernel's grid shrinks with the factorization, but the
    # BLAS backend tiles it into a handful of plateau configurations —
    # so PKS sees about four distinct update behaviours plus the two
    # helper kernels: the six groups of Table 3.
    plateaus = [(1600, 4096), (1000, 2560), (500, 1280), (0, 320)]
    for column in range(columns):
        remaining = columns - column
        builder.add(norm, 1)
        builder.add(scale, max(1, min(16, remaining // 128)))
        update_grid = next(g for bound, g in plateaus if remaining > bound)
        builder.add(update, update_grid)
    return builder.table()


def _mvt() -> LaunchTable:
    builder = LaunchBuilder()
    kernel1 = streaming_spec(
        "mvt_kernel1", loads=680.0, stores=2.0, flops=680.0, locality=0.3
    )
    kernel2 = streaming_spec(
        "mvt_kernel2", loads=680.0, stores=2.0, flops=680.0, locality=0.3,
        sectors=8.0,
    )
    builder.add(kernel1, 1_280)
    builder.add(kernel2, 1_280)
    return builder.table()


def _syr2k() -> LaunchTable:
    """One enormous kernel; only intra-kernel reduction (PKP) helps."""
    builder = LaunchBuilder()
    kernel = compute_spec(
        "syr2k_kernel",
        flops=30_000.0,
        loads=600.0,
        shared=800.0,
        locality=0.75,
        working_set=512 * MIB,
        duration_cv=0.04,
    )
    builder.add(kernel, 36_000)
    return builder.table()


def _syrk() -> LaunchTable:
    builder = LaunchBuilder()
    kernel = compute_spec(
        "syrk_kernel",
        flops=80_000.0,
        loads=1_700.0,
        shared=2_800.0,
        locality=0.75,
        working_set=384 * MIB,
        duration_cv=0.04,
    )
    builder.add(kernel, 4_096)
    return builder.table()


def build_suite() -> list[WorkloadSpec]:
    """All 15 Polybench workloads of the paper's Table 4."""
    suite = "polybench"
    return [
        WorkloadSpec("2Dcnn", suite, _conv2d),
        WorkloadSpec("2mm", suite, lambda: _mm(2, "mm2")),
        WorkloadSpec("3dconvolution", suite, _conv3d),
        WorkloadSpec("3mm", suite, lambda: _mm(3, "mm3")),
        WorkloadSpec("atax", suite, _atax),
        WorkloadSpec("bicg", suite, _bicg),
        WorkloadSpec("correlation", suite, _correlation),
        WorkloadSpec("covariance", suite, _covariance),
        WorkloadSpec("fdtd2d", suite, _fdtd2d),
        WorkloadSpec("polybench_gemm", suite, _gemm),
        WorkloadSpec("gsummv", suite, _gesummv),
        WorkloadSpec("gramschmidt", suite, _gramschmidt),
        WorkloadSpec("mvt", suite, _mvt),
        WorkloadSpec("syr2k", suite, _syr2k),
        WorkloadSpec("syrk", suite, _syrk),
    ]
