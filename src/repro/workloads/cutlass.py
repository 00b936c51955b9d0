"""Synthetic CUTLASS performance suite.

Twenty workloads: ten SGEMM problem sizes and ten tensor-core WGEMM
problem sizes.  Each runs the paper's seven-launch pattern (Table 3 shows
CUTLASS selecting kernel id 0 out of 7 identical launches), so PKS yields
a modest ~6-7x speedup with near-zero error.
"""

from __future__ import annotations

from repro.workloads.generator import LaunchBuilder, compute_spec, tensor_spec
from repro.workloads.spec import WorkloadSpec
from repro.workloads.table import LaunchTable

__all__ = ["build_suite"]

MIB = 1024 * 1024

# (m, n, k) problem sizes loosely following CUTLASS's perf sweep.
_PROBLEM_SIZES = [
    (2560, 128, 2560),
    (2560, 512, 2560),
    (2560, 1024, 2560),
    (4096, 128, 4096),
    (4096, 512, 4096),
    (4096, 1024, 4096),
    (4096, 4096, 4096),
    (5124, 700, 2048),
    (5124, 700, 2560),
    (7680, 1024, 2560),
]

_TILE_M = 128
_TILE_N = 128
_REPEATS = 7  # CUTLASS's perf harness re-runs each problem (Table 3)


def _grid_for(m: int, n: int) -> int:
    # CUTLASS raises the K-split rather than the grid for big problems,
    # so launch grids stay within a couple of occupancy waves.
    return min(512, max(1, (m // _TILE_M) * (n // _TILE_N)))


def _sgemm_builder(m: int, n: int, k: int):
    def build() -> LaunchTable:
        builder = LaunchBuilder()
        spec = compute_spec(
            f"cutlass_sgemm_{m}x{n}x{k}",
            flops=2.0 * k,
            loads=k / 16.0,
            shared=k / 2.0,
            locality=0.85,
            working_set=4.0 * (m * k + k * n + m * n),
            threads_per_block=256,
            duration_cv=0.03,
        )
        builder.add(spec, _grid_for(m, n), repeat=_REPEATS)
        return builder.table()

    return build


def _wgemm_builder(m: int, n: int, k: int):
    def build() -> LaunchTable:
        builder = LaunchBuilder()
        spec = tensor_spec(
            f"cutlass_wmma_{m}x{n}x{k}",
            tensor_ops=k / 4.0,
            loads=k / 32.0,
            shared=k / 4.0,
            locality=0.85,
            working_set=2.0 * (m * k + k * n) + 4.0 * m * n,
        )
        builder.add(spec, _grid_for(m, n), repeat=_REPEATS)
        return builder.table()

    return build


def build_suite() -> list[WorkloadSpec]:
    """All 20 CUTLASS workloads (10 SGEMM + 10 tensor-core WGEMM)."""
    suite = "cutlass"
    specs: list[WorkloadSpec] = []
    for m, n, k in _PROBLEM_SIZES:
        specs.append(
            WorkloadSpec(
                f"cutlass_sgemm_{m}x{n}x{k}", suite, _sgemm_builder(m, n, k)
            )
        )
    for m, n, k in _PROBLEM_SIZES:
        specs.append(
            WorkloadSpec(
                f"cutlass_wgemm_{m}x{n}x{k}", suite, _wgemm_builder(m, n, k)
            )
        )
    return specs
