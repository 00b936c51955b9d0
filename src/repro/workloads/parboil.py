"""Synthetic Parboil suite.

Structured after Table 3's PKS examples: histo clusters into four groups
of 20 kernels each; cutcp into three groups of sizes 2/3/6.
"""

from __future__ import annotations

from repro.workloads.generator import (
    LaunchBuilder,
    compute_spec,
    irregular_spec,
    streaming_spec,
    tiny_spec,
)
from repro.workloads.spec import WorkloadSpec
from repro.workloads.table import LaunchTable

__all__ = ["build_suite"]

MIB = 1024 * 1024


def _bfs() -> LaunchTable:
    builder = LaunchBuilder()
    kernel = irregular_spec("BFS_kernel", divergence=0.35, duration_cv=0.65)
    frontiers = [2, 18, 160, 900, 2400, 3000, 2100, 800, 150, 20, 4, 1]
    for frontier in frontiers:
        builder.add(kernel, frontier)
    return builder.table()


def _cutcp() -> LaunchTable:
    """Three kernel families of 2, 3 and 6 instances (Table 3)."""
    builder = LaunchBuilder()
    lattice = compute_spec("cuda_cutoff_potential_lattice", flops=900.0, shared=120.0)
    setup = tiny_spec("cutcp_setup", work=50.0)
    exclusion = streaming_spec("cutcp_exclusions", loads=18.0, stores=6.0)
    builder.add(setup, 64, repeat=2)
    builder.add(exclusion, 512, repeat=3)
    builder.add(lattice, 1200, repeat=6)
    return builder.table()


def _histo() -> LaunchTable:
    """Four kernel families of 20 instances each (Table 3)."""
    builder = LaunchBuilder()
    prescan = tiny_spec("histo_prescan_kernel", work=45.0)
    intermediate = irregular_spec(
        "histo_intermediates_kernel", atomics=4.0, divergence=0.7, duration_cv=0.25
    )
    main = irregular_spec(
        "histo_main_kernel", atomics=8.0, divergence=0.6, duration_cv=0.3, loads=40.0
    )
    final = streaming_spec(
        "histo_final_kernel", loads=4.0, stores=22.0, sectors=16.0, locality=0.05
    )
    for _ in range(20):
        builder.add(prescan, 64)
        builder.add(intermediate, 390)
        builder.add(main, 84)
        builder.add(final, 42)
    return builder.table()


def _mri() -> LaunchTable:
    builder = LaunchBuilder()
    phi = compute_spec("ComputePhiMag_GPU", flops=60.0, loads=8.0)
    q_kernel = compute_spec("ComputeQ_GPU", flops=1400.0, loads=10.0, locality=0.85)
    for _ in range(3):
        builder.add(phi, 128)
        builder.add(q_kernel, 640, repeat=2)
    return builder.table()


def _sad() -> LaunchTable:
    builder = LaunchBuilder()
    sad_calc = compute_spec("mb_sad_calc", flops=1_400.0, loads=120.0, locality=0.6)
    sad_8 = streaming_spec("larger_sad_calc_8", loads=14.0, stores=8.0)
    sad_16 = streaming_spec("larger_sad_calc_16", loads=12.0, stores=6.0)
    builder.add(sad_calc, 792)
    builder.add(sad_8, 99)
    builder.add(sad_16, 99)
    return builder.table()


def _sgemm() -> LaunchTable:
    builder = LaunchBuilder()
    gemm = compute_spec(
        "mysgemmNT",
        flops=14_000.0,
        shared=1_300.0,
        locality=0.85,
        working_set=96 * MIB,
        threads_per_block=128,
    )
    builder.add(gemm, 1_280)
    return builder.table()


def _spmv() -> LaunchTable:
    builder = LaunchBuilder()
    kernel = irregular_spec(
        "spmv_jds_naive", divergence=0.55, duration_cv=0.45, sectors=22.0, loads=34.0
    )
    builder.add(kernel, 574, repeat=50)
    return builder.table()


def _stencil() -> LaunchTable:
    builder = LaunchBuilder()
    kernel = streaming_spec(
        "block2D_hybrid_coarsen_x", loads=26.0, stores=8.0, locality=0.45
    )
    builder.add(kernel, 1024, repeat=100)
    return builder.table()


def build_suite() -> list[WorkloadSpec]:
    """All 8 Parboil workloads of the paper's Table 4."""
    suite = "parboil"
    return [
        WorkloadSpec("parboil_bfs", suite, _bfs),
        WorkloadSpec("cutcp", suite, _cutcp),
        WorkloadSpec("histo", suite, _histo),
        WorkloadSpec("mri", suite, _mri),
        WorkloadSpec("sad", suite, _sad),
        WorkloadSpec("parboil_sgemm", suite, _sgemm),
        WorkloadSpec("spmv", suite, _spmv),
        WorkloadSpec("parboil_stencil", suite, _stencil),
    ]
