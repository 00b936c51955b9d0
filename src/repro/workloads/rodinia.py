"""Synthetic Rodinia 3.1 suite.

Each workload reproduces the *structure* that drives PKS/PKP behaviour in
the paper's Table 4: kernel-launch counts (gaussian_208 launches 414
kernels that cluster into one group; nw launches a triangular sweep),
regular-versus-irregular block behaviour (bfs and hybridsort are
divergent and uneven), and single-kernel apps that see no PKS benefit
(b+tree, backprop, nn, hotspot).
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


def _btree() -> LaunchTable:
    builder = LaunchBuilder()
    find_k = irregular_spec(
        "findK", divergence=0.7, duration_cv=0.2, loads=190.0, working_set=96 * MIB
    )
    find_range = irregular_spec(
        "findRangeK", divergence=0.65, duration_cv=0.2, loads=220.0,
        working_set=96 * MIB,
    )
    builder.add(find_k, 1_280)
    builder.add(find_range, 1_280)
    return builder.table()


def _backprop() -> LaunchTable:
    builder = LaunchBuilder()
    forward = compute_spec("bpnn_layerforward", flops=900.0, shared=240.0)
    adjust = streaming_spec("bpnn_adjust_weights", loads=80.0, stores=64.0)
    builder.add(forward, 1_024)
    builder.add(adjust, 1_024)
    return builder.table()


def _bfs(levels: int, peak_blocks: int, name_prefix: str) -> LaunchTable:
    """Level-synchronous BFS: frontier grows then shrinks across launches.

    Frontier sizes are quantized to powers of four (the runtime rounds
    its grid up to tile multiples), so the same launch geometry recurs
    across levels and PKS needs only a handful of groups.
    """
    import math

    builder = LaunchBuilder()
    kernel1 = irregular_spec(
        f"{name_prefix}_Kernel", divergence=0.35, duration_cv=0.7, sectors=20.0
    )
    kernel2 = tiny_spec(f"{name_prefix}_Kernel2", work=40.0, duration_cv=0.3)
    for level in range(levels):
        # Frontier ramps up to the peak around the middle levels.
        position = level / max(levels - 1, 1)
        raw = max(1.0, peak_blocks * (4.0 ** (-((position - 0.45) * 4) ** 2)))
        frontier = int(4 ** round(math.log(raw, 4)))
        builder.add(kernel1, frontier)
        builder.add(kernel2, frontier)
    return builder.table()


def _dwt2d(levels: int, base_blocks: int, suffix: str) -> LaunchTable:
    """Wavelet transform: per-level kernel pairs on shrinking images."""
    builder = LaunchBuilder()
    fdwt = compute_spec(f"fdwt53Kernel_{suffix}", flops=180.0, locality=0.6)
    copy = streaming_spec(f"c_CopySrcToComponents_{suffix}", loads=12.0, stores=12.0)
    builder.add(copy, base_blocks)
    for level in range(levels):
        builder.add(fdwt, max(1, base_blocks >> (2 * level)))
    return builder.table()


def _gaussian(matrix_size: int, blocks_hint: int) -> LaunchTable:
    """Gaussian elimination: Fan1+Fan2 per row over a shrinking matrix.

    Launches 2*(size-1) kernels that PKS clusters into one or two groups
    (Table 3 reports gaussian_208 -> one group of 414 kernels).
    """
    builder = LaunchBuilder()
    fan1 = tiny_spec("Fan1", work=30.0, threads_per_block=256)
    fan2 = tiny_spec("Fan2", work=50.0, threads_per_block=256)
    for row in range(matrix_size - 1):
        remaining = matrix_size - row
        grid = max(1, int(blocks_hint * remaining / matrix_size))
        builder.add(fan1, max(1, grid // 4))
        builder.add(fan2, grid)
    return builder.table()


def _hotspot(grid_blocks: int, suffix: str) -> LaunchTable:
    builder = LaunchBuilder()
    kernel = compute_spec(
        f"calculate_temp_{suffix}", flops=900.0, locality=0.75, shared=240.0
    )
    builder.add(kernel, grid_blocks)
    return builder.table()


def _hybridsort(passes: int, name: str, histogram_blocks: int) -> LaunchTable:
    """Hybridsort: histogram + bucket + many uneven merge-sort passes.

    The merge passes repeat the same few launch geometries (grids are
    halved then clamped to tile multiples), which is what gives the
    paper's ~5x PKS reduction on an otherwise irregular sort.
    """
    builder = LaunchBuilder()
    histogram = irregular_spec(
        f"{name}_histogram1024", atomics=6.0, divergence=0.6, duration_cv=0.3
    )
    bucketsort = irregular_spec(
        f"{name}_bucketsort", divergence=0.5, duration_cv=0.5, sectors=24.0
    )
    mergesort = irregular_spec(
        f"{name}_mergeSortPass", divergence=0.55, duration_cv=0.6, loads=36.0
    )
    merge_grids = (histogram_blocks, histogram_blocks // 2, histogram_blocks // 4)
    builder.add(histogram, histogram_blocks, repeat=2)
    builder.add(bucketsort, histogram_blocks, repeat=2)
    for pass_index in range(passes):
        builder.add(mergesort, max(1, merge_grids[pass_index % len(merge_grids)]))
    return builder.table()


def _kmeans(points_blocks: int, iterations: int, name: str) -> LaunchTable:
    builder = LaunchBuilder()
    assign = streaming_spec(
        f"{name}_kmeansPoint", loads=40.0, stores=4.0, locality=0.3, duration_cv=0.1
    )
    swap = tiny_spec(f"{name}_invert_mapping", work=30.0)
    builder.add(swap, points_blocks)
    for _ in range(iterations):
        builder.add(assign, points_blocks)
    return builder.table()


def _lavamd() -> LaunchTable:
    builder = LaunchBuilder()
    kernel = compute_spec(
        "kernel_gpu_cuda",
        flops=42_000.0,
        loads=1_200.0,
        shared=3_000.0,
        threads_per_block=128,
        locality=0.8,
        working_set=64 * MIB,
        duration_cv=0.06,
    )
    builder.add(kernel, 1_280)
    return builder.table()


def _lud(matrix_blocks: int, name: str) -> LaunchTable:
    """LU decomposition: diagonal/perimeter/internal per iteration."""
    builder = LaunchBuilder()
    diagonal = tiny_spec(f"{name}_lud_diagonal", work=120.0)
    perimeter = compute_spec(f"{name}_lud_perimeter", flops=150.0, shared=80.0)
    internal = compute_spec(f"{name}_lud_internal", flops=200.0, shared=90.0)
    for step in range(matrix_blocks - 1):
        remaining = matrix_blocks - step - 1
        builder.add(diagonal, 1)
        builder.add(perimeter, max(1, remaining))
        builder.add(internal, max(1, remaining * remaining))
    builder.add(diagonal, 1)
    return builder.table()


def _myocyte() -> LaunchTable:
    """Excluded in the paper: profiling and tracing runs mismatch."""
    builder = LaunchBuilder()
    solver = irregular_spec("myocyte_solver_2", divergence=0.3, duration_cv=0.4)
    builder.add(solver, 2, repeat=40)
    return builder.table()


def _pathfinder() -> LaunchTable:
    builder = LaunchBuilder()
    dynproc = compute_spec("dynproc_kernel", flops=110.0, shared=90.0, locality=0.6)
    builder.add(dynproc, 463, repeat=5)
    return builder.table()


def _nn() -> LaunchTable:
    builder = LaunchBuilder()
    euclid = streaming_spec("euclid", loads=130.0, stores=30.0, locality=0.1)
    builder.add(euclid, 640)
    return builder.table()


def _nw() -> LaunchTable:
    """Needleman-Wunsch: two alternating kernels over a triangular sweep.

    Every launch is latency-bound (tiny per-diagonal grids), so despite
    256 launches with 128 distinct grid sizes the kernels all cost about
    the same — one or two PKS groups cover the app, giving the paper's
    ~88x reduction.
    """
    builder = LaunchBuilder()
    kernel1 = compute_spec(
        "needle_cuda_shared_1", flops=90.0, shared=100.0, loads=4.0, stores=2.0,
        working_set=4 * MIB, locality=0.8,
    )
    kernel2 = compute_spec(
        "needle_cuda_shared_2", flops=90.0, shared=100.0, loads=4.0, stores=2.0,
        working_set=4 * MIB, locality=0.8,
    )
    diagonals = 128
    for diag in range(1, diagonals + 1):
        builder.add(kernel1, diag)
    for diag in range(diagonals, 0, -1):
        builder.add(kernel2, diag)
    return builder.table()


def _streamcluster() -> LaunchTable:
    builder = LaunchBuilder()
    pgain = irregular_spec(
        "kernel_compute_cost", divergence=0.5, duration_cv=0.35, loads=50.0
    )
    center = tiny_spec("kernel_center_table", work=25.0)
    for _ in range(129):
        builder.add(pgain, 512)
        builder.add(center, 16)
    return builder.table()


def _srad_v1() -> LaunchTable:
    builder = LaunchBuilder()
    srad1 = streaming_spec("srad_cuda_1", loads=28.0, stores=8.0, locality=0.4)
    srad2 = streaming_spec("srad_cuda_2", loads=24.0, stores=8.0, locality=0.4)
    for _ in range(100):
        builder.add(srad1, 1024)
        builder.add(srad2, 1024)
    return builder.table()


def build_suite() -> list[WorkloadSpec]:
    """All 27 Rodinia workloads of the paper's Table 4."""
    suite = "rodinia"
    return [
        WorkloadSpec("b+tree", suite, _btree),
        WorkloadSpec("backprop", suite, _backprop),
        WorkloadSpec("bfs1MW", suite, lambda: _bfs(24, 4000, "bfs1MW")),
        WorkloadSpec("bfs4096", suite, lambda: _bfs(10, 16, "bfs4096")),
        WorkloadSpec("bfs65536", suite, lambda: _bfs(40, 256, "bfs65536")),
        WorkloadSpec("dwt2d_192", suite, lambda: _dwt2d(5, 144, "192")),
        WorkloadSpec("dwt2d_rgb", suite, lambda: _dwt2d(7, 1024, "rgb")),
        WorkloadSpec("gauss_208", suite, lambda: _gaussian(208, 8)),
        WorkloadSpec("gauss_mat4", suite, lambda: _gaussian(7, 2)),
        WorkloadSpec("gauss_s16", suite, lambda: _gaussian(16, 2)),
        WorkloadSpec("gauss_s64", suite, lambda: _gaussian(64, 4)),
        WorkloadSpec("gauss_s256", suite, lambda: _gaussian(256, 8)),
        WorkloadSpec("hots_1024", suite, lambda: _hotspot(1_024, "1024")),
        WorkloadSpec("hots_512", suite, lambda: _hotspot(256, "512")),
        WorkloadSpec("hstort_500k", suite, lambda: _hybridsort(18, "hs500k", 1000)),
        WorkloadSpec("hstort_r", suite, lambda: _hybridsort(30, "hsr", 2000)),
        WorkloadSpec("kmeans_28k", suite, lambda: _kmeans(110, 3, "km28k")),
        WorkloadSpec("kmeans_819k", suite, lambda: _kmeans(1_280, 4, "km819k")),
        WorkloadSpec("kmeans_oi", suite, lambda: _kmeans(1_280, 3, "kmoi")),
        WorkloadSpec("lavaMD", suite, _lavamd),
        WorkloadSpec("lud_i", suite, lambda: _lud(16, "ludi")),
        WorkloadSpec("lud_256", suite, lambda: _lud(8, "lud256")),
        WorkloadSpec(
            "myocyte", suite, _myocyte, quirks=("kernel_mismatch",)
        ),
        WorkloadSpec("nn", suite, _nn),
        WorkloadSpec("pathfinder", suite, _pathfinder),
        WorkloadSpec("nw", suite, _nw),
        WorkloadSpec("scluster", suite, _streamcluster),
        WorkloadSpec("srad_v1", suite, _srad_v1),
    ]
