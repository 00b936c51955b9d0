"""Reusable differential comparator for simulation results.

The intra-run parallelism work promises *bitwise* equivalence between
three execution paths of the DES fast path — scalar-serial (pure Python
floats), vectorized (numpy batch ops) and sharded (``intra_jobs > 1``) —
and plain ``==`` on a nested dataclass says only "something differs".
This module provides

* :func:`assert_bitwise_equal` / :func:`diff_results` — field-by-field
  comparison of :class:`~repro.sim.stats.AppRunResult` and
  :class:`~repro.sim.engine.KernelSimResult` trees that reports *which*
  field diverged and by how many ulps, comparing floats by their IEEE-754
  bit patterns (so ``-0.0 != 0.0`` and NaNs are flagged, not swallowed);
* :func:`scalar_engine` — a context manager that swaps the engine's
  vectorized fast path for a pure-Python scalar reference implementing
  the *same* chunked left-fold schedule, so the vectorized path can be
  differentially tested against arithmetic with no numpy batch ops in
  the loop;
* :func:`reference_windowed_engine` — a context manager that swaps the
  windowed (PKP) path back to its per-window reference: scalar draws
  from the noise and miss streams, a scalar ``np.exp`` per window, and
  the stability monitor judging one sample per call
  (:class:`ReferenceStabilityMonitor`) with a numpy ``std / mean``;
* :func:`reference_launches_digest` — the per-launch incremental
  formulation of :func:`~repro.analysis.persistence.launches_digest`,
  which every on-disk cache key was derived from;
* :func:`reference_select_tbpoint` / :func:`reference_build_merge_tree`
  — TBPoint clustering one merge tree over every launch (the full n x n
  matrix), against which the distinct-row tree is checked;
* :class:`ReferenceLaunchBuilder` / :func:`reference_perturb_launches` —
  the list-based launch builder and near-duplicate derivation, against
  which the launch table's materialised launches are checked;
* :func:`reference_state_text` — an approximate tier's state file dumped
  whole from its partitions, against which the state assembled from
  texts rendered once is checked;
* :class:`ReferenceCycleSurrogate` / :func:`reference_surrogate_estimate`
  — the surrogate estimate that fits before it checks coverage, against
  which the coverage-first estimate is checked.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import struct
import zlib
from collections.abc import Sequence
from contextlib import contextmanager
from random import Random

import numpy as np

from repro.analysis.persistence import CACHE_SCHEMA_VERSION
from repro.baselines.tbpoint import (
    _THRESHOLD_SWEEP,
    TBPointSelection,
    _better,
    _selection_for,
)
from repro.core.features import FeaturePipeline, profile_feature_matrix
from repro.core.pkp import IPCStabilityMonitor
from repro.errors import ReproError
from repro.gpu.kernels import KernelLaunch, KernelSpec
from repro.mlkit import ClusteringCapacityError, MergeTree, SGDRegressor
from repro.mlkit._checks import require_finite
from repro.mlkit.hierarchical import _LINKAGES
from repro.predict.surrogate import CycleSurrogate
from repro.profiling.detailed import DetailedProfile
from repro.sim import engine
from repro.sim.engine import KernelSimResult, WindowSample, fold_chunk_ranges
from repro.sim.stats import AppRunResult, KernelRecord
from repro.workloads.spec import _jittered

__all__ = [
    "ReferenceCycleSurrogate",
    "ReferenceLaunchBuilder",
    "ReferenceStabilityMonitor",
    "assert_bitwise_equal",
    "diff_results",
    "float_bits",
    "monitor_state",
    "reference_build_merge_tree",
    "reference_launches_digest",
    "reference_perturb_launches",
    "reference_select_tbpoint",
    "reference_state_text",
    "reference_surrogate_estimate",
    "reference_windowed_engine",
    "scalar_engine",
]


def float_bits(value: float) -> str:
    """Hex IEEE-754 bit pattern of ``value`` (total ordering, signed zero)."""
    return struct.pack("<d", float(value)).hex()


def _diff_float(path: str, a: float, b: float, out: list[str]) -> None:
    if float_bits(a) != float_bits(b):
        out.append(f"{path}: {a!r} ({float_bits(a)}) != {b!r} ({float_bits(b)})")


def _diff_exact(path: str, a, b, out: list[str]) -> None:
    if a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def _diff_kernel_result(
    path: str, a: KernelSimResult, b: KernelSimResult, out: list[str]
) -> None:
    _diff_exact(f"{path}.launch", a.launch, b.launch, out)
    _diff_exact(f"{path}.perf", a.perf, b.perf, out)
    _diff_float(f"{path}.cycles", a.cycles, b.cycles, out)
    _diff_exact(f"{path}.blocks_finished", a.blocks_finished, b.blocks_finished, out)
    _diff_float(
        f"{path}.warp_instructions", a.warp_instructions, b.warp_instructions, out
    )
    _diff_float(f"{path}.dram_bytes", a.dram_bytes, b.dram_bytes, out)
    _diff_exact(f"{path}.stopped_early", a.stopped_early, b.stopped_early, out)
    _diff_exact(f"{path}.samples", a.samples, b.samples, out)


def _diff_record(path: str, a: KernelRecord, b: KernelRecord, out: list[str]) -> None:
    _diff_exact(f"{path}.launch_id", a.launch_id, b.launch_id, out)
    _diff_exact(f"{path}.name", a.name, b.name, out)
    _diff_float(f"{path}.cycles", a.cycles, b.cycles, out)
    _diff_float(f"{path}.instructions", a.instructions, b.instructions, out)
    _diff_float(f"{path}.dram_bytes", a.dram_bytes, b.dram_bytes, out)
    _diff_float(f"{path}.simulated_cycles", a.simulated_cycles, b.simulated_cycles, out)
    _diff_exact(f"{path}.projected", a.projected, b.projected, out)


def _diff_app_result(
    path: str, a: AppRunResult, b: AppRunResult, out: list[str]
) -> None:
    _diff_exact(f"{path}.workload", a.workload, b.workload, out)
    _diff_exact(f"{path}.gpu", a.gpu, b.gpu, out)
    _diff_exact(f"{path}.method", a.method, b.method, out)
    _diff_float(f"{path}.total_cycles", a.total_cycles, b.total_cycles, out)
    _diff_float(
        f"{path}.total_instructions", a.total_instructions, b.total_instructions, out
    )
    _diff_float(
        f"{path}.total_dram_bytes", a.total_dram_bytes, b.total_dram_bytes, out
    )
    _diff_float(f"{path}.simulated_cycles", a.simulated_cycles, b.simulated_cycles, out)
    if len(a.kernel_records) != len(b.kernel_records):
        out.append(
            f"{path}.kernel_records: {len(a.kernel_records)} records "
            f"!= {len(b.kernel_records)} records"
        )
        return
    for index, (ra, rb) in enumerate(zip(a.kernel_records, b.kernel_records)):
        _diff_record(f"{path}.kernel_records[{index}]", ra, rb, out)


def diff_results(a, b, label: str = "result") -> list[str]:
    """Human-readable list of bitwise field mismatches (empty == equal)."""
    out: list[str] = []
    if type(a) is not type(b):
        return [f"{label}: type {type(a).__name__} != {type(b).__name__}"]
    if isinstance(a, AppRunResult):
        _diff_app_result(label, a, b, out)
    elif isinstance(a, KernelSimResult):
        _diff_kernel_result(label, a, b, out)
    elif isinstance(a, float):
        _diff_float(label, a, b, out)
    else:
        _diff_exact(label, a, b, out)
    return out


def assert_bitwise_equal(a, b, label: str = "result") -> None:
    """Assert two results agree bitwise, naming every divergent field."""
    mismatches = diff_results(a, b, label)
    assert not mismatches, "bitwise divergence:\n  " + "\n  ".join(mismatches)


# ---------------------------------------------------------------------------
# Scalar reference engine.
# ---------------------------------------------------------------------------


def scalar_block_durations(launch, perf, bias, start, stop) -> list[float]:
    """Pure-Python mirror of :func:`repro.sim.engine.block_durations`.

    The log-normal variation draw is inherently the chunked numpy RNG
    (that *is* the definition of the stream), but every arithmetic step
    after it — phase drift, cold-start, bias, the 1.0 floor — is redone
    one block at a time in Python floats, in the same operation order as
    the vectorized elementwise expressions.
    """
    import numpy as np

    spec = launch.spec
    grid = launch.grid_blocks
    if spec.duration_cv > 0:
        sigma = float(np.sqrt(np.log1p(spec.duration_cv**2)))
        variation = engine._variation_slice(
            spec.signature(), grid, sigma, start, stop
        ).tolist()
    else:
        variation = [1.0] * (stop - start)

    first_wave = min(grid, perf.occupancy.wave_size)
    base = perf.base_block_cycles
    durations = []
    for offset, var in enumerate(variation):
        index = start + offset
        if grid > 1 and spec.phase_drift != 0.0:
            phase = 1.0 + (spec.phase_drift * index) / (grid - 1)
            phase = max(phase, 0.05)
        else:
            phase = 1.0
        if spec.cold_start_factor > 0 and index < first_wave:
            phase = phase * (1.0 * (1.0 + spec.cold_start_factor))
        duration = ((base * var) * phase) * bias
        durations.append(max(duration, 1.0))
    return durations


def _scalar_run_fast(launch, perf, slots, bias, intra) -> KernelSimResult:
    """Scalar-serial fast path: same chunked fold, no numpy batch ops."""
    grid = launch.grid_blocks
    finish = [0.0] * slots
    for lo, hi in fold_chunk_ranges(grid, slots):
        durations = scalar_block_durations(launch, perf, bias, lo, hi)
        partial = [0.0] * slots
        # Ranges are wave-aligned, so block lo+i sits in slot i % slots.
        for i, duration in enumerate(durations):
            slot = i % slots
            partial[slot] = partial[slot] + duration
        for slot in range(slots):
            finish[slot] = finish[slot] + partial[slot]
    makespan = max(finish)
    total_insts = perf.warp_insts_per_block * grid
    total_bytes = perf.memory.dram_bytes_per_block * grid
    return KernelSimResult(
        launch=launch,
        perf=perf,
        cycles=makespan,
        blocks_finished=grid,
        warp_instructions=total_insts,
        dram_bytes=total_bytes,
        stopped_early=False,
    )


@contextmanager
def scalar_engine():
    """Swap the engine's vectorized fast path for the scalar reference.

    Everything built on :func:`repro.sim.engine.simulate_kernel` —
    ``Simulator.run_full``, harness cells, baselines — then computes its
    plain kernel runs through pure-Python scalar arithmetic, which the
    differential tests compare bitwise against the vectorized build.
    """
    original = engine._run_fast
    engine._run_fast = _scalar_run_fast
    try:
        yield
    finally:
        engine._run_fast = original


# ---------------------------------------------------------------------------
# Per-window reference for the windowed (PKP) path.
# ---------------------------------------------------------------------------


def _reference_run_windowed(
    launch: KernelLaunch,
    gpu: GPUConfig,
    perf: KernelPerformance,
    durations: np.ndarray,
    slots: int,
    window_cycles: float,
    monitor: StopMonitor | Callable[[WindowSample], bool] | None,
    collect_series: bool,
) -> KernelSimResult:
    """Event loop with per-window IPC/L2/DRAM emission and early stop.

    Runs the same interleaved schedule as the fast path — each slot's
    chain of blocks executes back to back — with a heap merging the
    slots' completion streams into time order.
    """
    if monitor is None:
        observe = None
    else:
        observe = monitor.observe if hasattr(monitor, "observe") else monitor
    grid = launch.grid_blocks
    inst_per_block = perf.warp_insts_per_block
    bytes_per_block = perf.memory.dram_bytes_per_block
    base_miss = (1.0 - perf.memory.l2_hit_rate) * 100.0
    peak_dram = gpu.dram_bytes_per_cycle
    miss_rng = np.random.default_rng(launch.spec.signature() % 2**63)
    # Windowed IPC is bursty in proportion to the kernel's irregularity:
    # memory bursts, instruction replays and uneven intra-block progress
    # show up as window-to-window jitter that the uniform-rate attribution
    # would otherwise smooth away.  This is the signal PKP's stability
    # detector actually contends with (Figure 5b's noisy BFS trace).
    ipc_noise_sigma = 0.45 * launch.spec.duration_cv
    noise_rng = np.random.default_rng((launch.spec.signature() * 31 + 7) % 2**63)
    # On top of white jitter, IPC *wanders* at low frequency while blocks
    # work through their phases (cache warm-up, loop progression, DRAM row
    # locality shifts); the wander dies out over roughly one block
    # lifetime.  Kernels with many short blocks therefore calm down after
    # a wave (syr2k-style, where PKP saves 50x), while a handful of huge
    # blocks keep the signal moving for much of the kernel (DeepBench
    # GEMMs, where PKP saves ~2x).
    wander = 0.0
    wander_rho = 0.8
    wander_amp0 = 0.12
    first_wave = durations[: min(slots, len(durations))]
    block_lifetime = float(first_wave.mean()) if len(first_wave) else 1.0

    # Slot state: the block currently resident on each slot and its
    # uniform retire rates; the heap holds (completion_cycle, slot).
    heap: list[tuple[float, int]] = []
    slot_block = list(range(slots))
    slot_rates: list[tuple[float, float]] = [(0.0, 0.0)] * slots
    inst_rate = 0.0
    byte_rate = 0.0
    for slot in range(slots):
        duration = float(durations[slot])
        block_inst_rate = inst_per_block / duration
        block_byte_rate = bytes_per_block / duration
        heapq.heappush(heap, (duration, slot))
        slot_rates[slot] = (block_inst_rate, block_byte_rate)
        inst_rate += block_inst_rate
        byte_rate += block_byte_rate

    finished = 0
    now = 0.0
    win_insts = 0.0
    win_bytes = 0.0
    window_end = window_cycles
    total_insts = 0.0
    total_bytes = 0.0
    samples: list[WindowSample] = []
    stopped = False

    while finished < grid and not stopped:
        next_completion = heap[0][0]
        # Emit any windows that close before the next block completion.
        while window_end <= next_completion and not stopped:
            elapsed = window_end - now
            win_insts += inst_rate * elapsed
            win_bytes += byte_rate * elapsed
            total_insts += inst_rate * elapsed
            total_bytes += byte_rate * elapsed
            now = window_end
            observed_ipc = win_insts / window_cycles
            amp = wander_amp0 * np.exp(-3.0 * now / block_lifetime)
            wander = wander_rho * wander + amp * float(noise_rng.standard_normal())
            observed_ipc *= 1.0 + wander
            if ipc_noise_sigma > 0:
                observed_ipc *= 1.0 + ipc_noise_sigma * float(
                    noise_rng.standard_normal()
                )
            observed_ipc = max(0.0, observed_ipc)
            sample = WindowSample(
                cycle=window_end,
                ipc=observed_ipc,
                l2_miss_rate=min(
                    100.0,
                    max(0.0, base_miss * (1.0 + 0.04 * miss_rng.standard_normal())),
                ),
                dram_util=min(100.0, 100.0 * win_bytes / (window_cycles * peak_dram)),
                blocks_finished=finished,
            )
            if collect_series:
                samples.append(sample)
            if observe is not None and observe(sample):
                stopped = True
            win_insts = 0.0
            win_bytes = 0.0
            window_end += window_cycles
        if stopped:
            break
        # Advance to the completion and retire every block ending there,
        # starting each retiring slot's next chained block at the exact
        # completion cycle (the same left fold as the fast path).
        elapsed = next_completion - now
        win_insts += inst_rate * elapsed
        win_bytes += byte_rate * elapsed
        total_insts += inst_rate * elapsed
        total_bytes += byte_rate * elapsed
        now = next_completion
        while heap and heap[0][0] <= now + 1e-9:
            end, slot = heapq.heappop(heap)
            done_inst_rate, done_byte_rate = slot_rates[slot]
            inst_rate -= done_inst_rate
            byte_rate -= done_byte_rate
            finished += 1
            successor = slot_block[slot] + slots
            if successor < grid:
                duration = float(durations[successor])
                slot_block[slot] = successor
                block_inst_rate = inst_per_block / duration
                block_byte_rate = bytes_per_block / duration
                slot_rates[slot] = (block_inst_rate, block_byte_rate)
                inst_rate += block_inst_rate
                byte_rate += block_byte_rate
                heapq.heappush(heap, (end + duration, slot))

    return KernelSimResult(
        launch=launch,
        perf=perf,
        cycles=now,
        blocks_finished=finished,
        warp_instructions=total_insts,
        dram_bytes=total_bytes,
        stopped_early=stopped,
        samples=tuple(samples),
    )


# numpy's unroll width and block size in its pairwise summation.
_PAIRWISE_UNROLL = 8
_PAIRWISE_BLOCK = 128


def _pairwise_sum(values: list[float]) -> float:
    """Sum ``values`` in numpy's pairwise order.

    A float-for-float copy of numpy's ``pairwise_sum`` (the kernel behind
    ``np.add.reduce`` on contiguous float64): short runs are a left fold
    from ``-0.0``; up to one block, eight strided accumulators combined as
    a balanced tree, then the leftover tail; longer runs recurse on halves
    split at a multiple of the unroll width.
    """
    n = len(values)
    if n < _PAIRWISE_UNROLL:
        total = -0.0
        for value in values:
            total += value
        return total
    if n <= _PAIRWISE_BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        body = n - n % _PAIRWISE_UNROLL
        for index in range(8, body, 8):
            r0 += values[index]
            r1 += values[index + 1]
            r2 += values[index + 2]
            r3 += values[index + 3]
            r4 += values[index + 4]
            r5 += values[index + 5]
            r6 += values[index + 6]
            r7 += values[index + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for value in values[body:]:
            total += value
        return total
    half = n // 2
    half -= half % _PAIRWISE_UNROLL
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


class ReferenceStabilityMonitor(IPCStabilityMonitor):
    """The PKP stability monitor judging one window per ``observe`` call.

    ``observe`` and ``relative_std`` are the per-window implementation the
    block judge (:meth:`IPCStabilityMonitor.observe_windows`) replaced,
    kept verbatim together with its scalar :func:`_pairwise_sum`: Python
    float sums over the rolling window, recomputed after every sample, and
    sharing no code with the block judge.  Construction and state are the
    monitor's own, so the two can be compared field by field.

    ``observe_windows`` is unset, so the engine hands this monitor one
    sample at a time rather than judging it with the inherited block
    judge.
    """

    observe_windows = None

    def relative_std(self) -> float | None:
        """Rolling std/mean of IPC, or None until the window fills.

        Runs once per simulated window, so it avoids numpy's per-call
        overhead on a handful of samples, yet returns the bitwise value of
        ``np.std(w) / np.mean(w)``: both sums use :func:`_pairwise_sum`,
        which mirrors numpy's pairwise summation, and the remaining
        operations (``/ n``, ``(x - mean) * (x - mean)``, sqrt, the final
        divide) are single IEEE-754 operations either way.  The property
        test in ``tests/core/test_pkp.py`` guards the equality.
        """
        window = self._window
        n = len(window)
        if n < window.maxlen:
            return None
        mean = _pairwise_sum(list(window)) / n
        if not math.isfinite(mean) or mean <= 0.0:
            return None
        squares = [(value - mean) * (value - mean) for value in window]
        spread = math.sqrt(_pairwise_sum(squares) / n) / mean
        return spread if math.isfinite(spread) else None

    def observe(self, sample: WindowSample) -> bool:
        """Ingest one window sample; True stops the simulation.

        The paper expresses ``s`` in raw IPC units against signals whose
        magnitude is tens of IPC; on our normalized (relative) signal the
        equivalent criterion is ``std/mean < s/10`` — s=0.25 means the
        rolling IPC varies by under 2.5% of its mean.  Regular kernels
        cross it right after their first wave; BFS-like kernels with
        double-digit jitter effectively never do, which is why the paper
        sees PKP gains concentrated in the regular, long-running apps.
        """
        self.windows_observed += 1
        if not math.isfinite(sample.ipc):
            # A poisoned window sample must never end the simulation early;
            # treat it as maximal instability and restart the streak.
            self._window.clear()
            self._quiet_streak = 0
            return False
        self._window.append(sample.ipc)
        spread = self.relative_std()
        if spread is None or spread >= self.config.stability_threshold / 10.0:
            self._quiet_streak = 0
            return False
        self._quiet_streak += 1
        if self._quiet_streak < self.config.consecutive_windows:
            return False
        if self.stable_at_cycle is None:
            self.stable_at_cycle = sample.cycle
        if self.wave_rule_active and sample.blocks_finished < self.wave_size:
            # Quasi-stable, but the first wave has not fully turned over
            # yet; keep simulating until it has.
            return False
        self.stop_cycle = sample.cycle
        return True


def _reference_relative_std(self) -> float | None:
    """Rolling std/mean of IPC, or None until the window fills."""
    if len(self._window) < self.config.rolling_samples:
        return None
    values = np.asarray(self._window)
    mean = float(values.mean())
    if not np.isfinite(mean) or mean <= 0.0:
        return None
    spread = float(values.std() / mean)
    return spread if np.isfinite(spread) else None


def monitor_state(monitor: IPCStabilityMonitor) -> tuple:
    """Everything a stability monitor carries between windows, as bits."""
    return (
        [float_bits(value) for value in monitor._window],
        monitor._quiet_streak,
        monitor.windows_observed,
        monitor.stable_at_cycle,
        monitor.stop_cycle,
    )


@contextmanager
def reference_windowed_engine():
    """Swap the windowed path and the PKP monitor for per-window references.

    The engine's windowed event loop then draws one scalar normal per
    stream use, calls ``np.exp`` once per window and hands every sample
    to its monitor as it is emitted, and every
    :class:`~repro.core.pkp.IPCStabilityMonitor` judges it with
    :class:`ReferenceStabilityMonitor`'s per-window ``observe``, its
    rolling spread computed as ``np.std / np.mean`` — the straightforward
    formulation the block-drawn, block-judged hot path must match bitwise.
    """
    original_run = engine._run_windowed
    original_observe = IPCStabilityMonitor.observe
    original_std = IPCStabilityMonitor.relative_std
    engine._run_windowed = _reference_run_windowed
    IPCStabilityMonitor.observe = ReferenceStabilityMonitor.observe
    IPCStabilityMonitor.relative_std = _reference_relative_std
    try:
        yield
    finally:
        engine._run_windowed = original_run
        IPCStabilityMonitor.observe = original_observe
        IPCStabilityMonitor.relative_std = original_std


def reference_launches_digest(launches) -> str:
    """One sha256 update per launch row: the original cache-key digest."""
    hasher = hashlib.sha256()
    for launch in launches:
        row = (
            f"{launch.launch_id}:{launch.spec.signature()}:"
            f"{launch.grid_blocks}:{sorted(launch.nvtx.items())}\n"
        )
        hasher.update(row.encode("utf-8"))
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# Full-matrix reference for TBPoint's clustering.
# ---------------------------------------------------------------------------
# ``select_tbpoint`` and ``build_merge_tree`` as they stood before TBPoint
# clustered distinct feature rows: one merge tree over every launch, its
# initial distances summed as ``(-2G + s_i) + s_j``.  Only the names differ.


def reference_build_merge_tree(
    points: np.ndarray,
    linkage: str = "average",
    max_points: int = 20_000,
) -> MergeTree:
    """Agglomerate ``points`` all the way down to one cluster.

    Runs in O(n^2) time using cached per-row minima over the in-place
    updated distance matrix.  Each merge changes only columns ``i`` and
    ``j`` of the other rows, so a cached minimum is always the row's true
    minimum; a per-row flag records when its cached index is also the
    row's *first* argmin.  That invariant settles distance ties (which
    dominate duplicate-heavy inputs) without a full-row rescan while
    reproducing exactly the merges a rescan-on-every-tie loop produces.
    """
    points = require_finite(points, "build_merge_tree")
    if points.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if linkage not in _LINKAGES:
        raise ValueError(f"linkage must be one of {_LINKAGES}")
    n = points.shape[0]
    if n == 0:
        raise ValueError("cannot cluster zero points")
    if n > max_points:
        raise ClusteringCapacityError(
            f"hierarchical clustering of {n} points exceeds the "
            f"{max_points}-point capacity (the scalability wall "
            "PKA's k-means avoids)"
        )
    if n == 1:
        return MergeTree(n_points=1, merges=())

    # Full pairwise distance matrix with inf diagonal, built in place so
    # the n x n Gram product is the only n^2 buffer ever allocated.
    sq_norms = np.sum(points**2, axis=1)
    dist = points @ points.T
    dist *= -2.0
    dist += sq_norms[:, None]
    dist += sq_norms[None, :]
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, np.inf)

    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.float64)
    # Cached minimum of each active row (value and column index), and
    # whether that index is known to be the row's *first* argmin.
    row_min_val = dist.min(axis=1)
    row_min_idx = dist.argmin(axis=1)
    row_min_first = np.ones(n, dtype=bool)
    merges: list[tuple[int, int, float]] = []

    for _ in range(n - 1):
        candidate_vals = np.where(active, row_min_val, np.inf)
        i = int(np.argmin(candidate_vals))
        j = int(row_min_idx[i])
        merge_dist = float(candidate_vals[i])
        merges.append((i, j, merge_dist))

        # Merge j into i with the chosen linkage update.
        row_i = dist[i, :]
        row_j = dist[j, :]
        if linkage == "single":
            merged = np.minimum(row_i, row_j)
        elif linkage == "complete":
            merged = np.maximum(row_i, row_j)
        else:  # size-weighted average linkage
            total = sizes[i] + sizes[j]
            merged = (sizes[i] * row_i + sizes[j] * row_j) / total
            merged[~np.isfinite(row_i) | ~np.isfinite(row_j)] = np.inf
        merged[i] = np.inf
        merged[j] = np.inf
        dist[i, :] = merged
        dist[:, i] = merged
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        sizes[i] += sizes[j]
        active[j] = False

        # Refresh cached minima.  Row i changed entirely and is rescanned.
        row_min_val[i] = merged.min()
        row_min_idx[i] = int(merged.argmin())
        row_min_first[i] = True
        # Any other row only changed in columns i (now ``merged``) and j
        # (now inf).  A row whose cached minimum pointed at i or j would
        # rescan to its first argmin; that is provably column i when the
        # merged distance undercuts the old minimum, or ties it with no
        # earlier column holding the same value (the cached index was the
        # first argmin and is no earlier than i).
        stale = active & ((row_min_idx == i) | (row_min_idx == j))
        stale[i] = False
        stale_rows = np.flatnonzero(stale)
        old_val = row_min_val[stale_rows]
        new_val = merged[stale_rows]
        keeps_i = (new_val < old_val) | (
            (new_val == old_val)
            & row_min_first[stale_rows]
            & (row_min_idx[stale_rows] >= i)
        )
        row_min_val[stale_rows[keeps_i]] = new_val[keeps_i]
        row_min_idx[stale_rows[keeps_i]] = i
        for row in stale_rows[~keeps_i]:
            row_min_val[row] = dist[row, :].min()
            row_min_idx[row] = int(dist[row, :].argmin())
        row_min_first[stale_rows] = True
        # A tie at column i ahead of the cached index leaves the cache on
        # a later column (the update below is strict), so it is no longer
        # the first argmin.
        row_min_first[(merged == row_min_val) & (row_min_idx > i)] = False
        # Rows for which the new row i is now closer than their cache.
        improved = active & (merged < row_min_val)
        improved[i] = False
        row_min_val[improved] = merged[improved]
        row_min_idx[improved] = i
        row_min_first[improved] = True

    return MergeTree(n_points=n, merges=tuple(merges))


def reference_select_tbpoint(
    workload_name: str,
    profiles: Sequence[DetailedProfile],
    *,
    target_error: float = 0.05,
    max_points: int = 20_000,
) -> TBPointSelection:
    """Cluster kernels TBPoint-style with the 20-threshold sweep.

    Raises :class:`ClusteringCapacityError` for kernel counts beyond the
    hierarchical-clustering capacity — TBPoint does not scale to MLPerf.
    """
    if not profiles:
        raise ReproError("TBPoint requires at least one profile")
    if len(profiles) > max_points:
        raise ClusteringCapacityError(
            f"TBPoint cannot cluster {len(profiles)} kernels "
            f"(capacity {max_points})"
        )

    counters = profile_feature_matrix(profiles)
    pipeline = FeaturePipeline()
    reduced = pipeline.fit_transform(counters)
    # Normalize to unit scale so the absolute threshold sweep is
    # comparable across applications.
    spread = float(np.abs(reduced).max()) or 1.0
    normalized = reduced / spread
    cycles = np.asarray([profile.cycles for profile in profiles])
    actual_total = float(cycles.sum())

    # Agglomerate once; cut the same dendrogram at every sweep threshold.
    tree = reference_build_merge_tree(normalized, linkage="average", max_points=max_points)
    best: TBPointSelection | None = None
    for threshold in _THRESHOLD_SWEEP:
        labels = tree.labels_at_threshold(float(threshold))
        selection = _selection_for(
            workload_name, profiles, normalized, labels, cycles, actual_total,
            float(threshold),
        )
        if best is None or _better(selection, best, target_error):
            best = selection
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# List-based references for the launch table.
# ---------------------------------------------------------------------------
# ``LaunchBuilder`` and ``_perturb_launches`` as they stood before launch
# lists became tables: one ``KernelLaunch`` per launch, built as it is
# added.  Only the names differ.


class ReferenceLaunchBuilder:
    """Accumulates launches, assigning chronological launch ids."""

    def __init__(self) -> None:
        self._launches: list[KernelLaunch] = []

    def add(
        self,
        spec: KernelSpec,
        grid_blocks: int,
        *,
        repeat: int = 1,
        nvtx: dict[str, str] | None = None,
    ) -> None:
        """Append ``repeat`` launches of ``spec`` with the given grid."""
        for _ in range(repeat):
            self._launches.append(
                KernelLaunch(
                    spec=spec,
                    grid_blocks=max(1, int(grid_blocks)),
                    launch_id=len(self._launches),
                    nvtx=dict(nvtx) if nvtx else {},
                )
            )

    def launches(self) -> list[KernelLaunch]:
        return list(self._launches)

    def __len__(self) -> int:
        return len(self._launches)


def reference_perturb_launches(
    launches: list[KernelLaunch], derived_name: str
) -> list[KernelLaunch]:
    """Deterministically jitter a launch stream into a near duplicate.

    Each distinct kernel spec gets one mix-scale draw (so repeats of a
    kernel stay self-consistent, as a recompiled binary's would) and each
    launch gets an independent grid draw.  All draws come from one RNG
    seeded by the derived name, and launches are visited in stream order,
    so every process derives bit-identical variants.
    """
    rng = Random(zlib.crc32(f"{derived_name}/near-duplicate".encode("utf-8")))
    perturbed: dict[int, KernelSpec] = {}
    out: list[KernelLaunch] = []
    for launch in launches:
        signature = launch.spec.signature()
        spec = perturbed.get(signature)
        if spec is None:
            spec = launch.spec.with_mix(
                launch.spec.mix.scaled(max(0.5, _jittered(rng, 1.0)))
            )
            perturbed[signature] = spec
        grid = max(1, round(_jittered(rng, float(launch.grid_blocks))))
        out.append(
            KernelLaunch(
                spec=spec,
                grid_blocks=grid,
                launch_id=launch.launch_id,
                nvtx=dict(launch.nvtx),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Whole-document references for approximate-tier state.
# ---------------------------------------------------------------------------
# ``SemanticCache._dump_partitions``, ``PredictTiers._dump_partitions`` and
# ``CycleSurrogate.to_state`` as they stood before tier state was assembled
# from texts rendered once: every persist dumped every partition, donor
# and training row again.  Only the names differ.


def _reference_semcache_partitions(self) -> dict:
    return {
        key: {
            digest: {
                "workload": entry.workload,
                "cycles_rate": entry.cycles_rate,
                "dram_rate": entry.dram_rate,
                "total_warp_instructions": entry.total_warp_instructions,
                "total_launches": entry.total_launches,
                "rows": [
                    {
                        "counters": list(row.counters),
                        "warp_instructions": row.warp_instructions,
                        "launches": row.launches,
                    }
                    for row in entry.rows
                ],
            }
            for digest, entry in partition.items()
        }
        for key, partition in self._partitions.items()
    }


def _reference_surrogate_state(self) -> dict:
    return {"rows": [row.to_state() for row in self.rows]}


def _reference_predict_partitions(self) -> dict:
    return {
        key: {
            "calibration": partition.calibration.to_state(),
            "surrogate": _reference_surrogate_state(partition.surrogate),
        }
        for key, partition in self._partitions.items()
    }


def reference_state_text(tier) -> str:
    """The state file ``tier`` must have written, as ``put_state`` wrote
    the envelope of the whole-dumped document."""
    dump = {
        "semcache": _reference_semcache_partitions,
        "predict": _reference_predict_partitions,
    }[tier.kind]
    document = {
        "version": tier.state_version,
        "context": tier.context,
        "partitions": dump(tier),
    }
    payload = json.dumps(document, sort_keys=True)
    return json.dumps(
        {
            "kind": f"{tier.kind}_state",
            "schema": CACHE_SCHEMA_VERSION,
            "payload": document,
            "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        },
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# Fit-first reference for the surrogate estimate.
# ---------------------------------------------------------------------------
# ``CycleSurrogate._fit_if_dirty`` / ``predict`` and
# ``PredictTiers._surrogate_estimate`` as they stood before coverage was
# checked ahead of the fit: the out-of-fold error is read (fitting five
# models) before any group's distance is known.  Only the names differ.

_REFERENCE_OOF_FOLDS = 4


class ReferenceCycleSurrogate(CycleSurrogate):
    """A surrogate whose fit builds the distance matrix and whose
    ``predict`` returns ``(ratio, distance)``."""

    def _fit_if_dirty(self) -> None:
        if not self._dirty or not self.trained:
            return
        matrix = np.asarray(
            [row.counters for row in self.rows], dtype=np.float64
        )
        targets = np.asarray(
            [row.log_residual for row in self.rows], dtype=np.float64
        )
        logs = np.log1p(matrix)
        self._log_matrix = logs
        self._mean = logs.mean(axis=0)
        std = logs.std(axis=0)
        self._std = np.where(std > 0, std, 1.0)
        features = self._features(matrix)

        # Out-of-fold: fold k is predicted by a model fit on the other
        # folds.  Deterministic (index % K), so refits reproduce.
        folds = np.arange(len(self.rows)) % _REFERENCE_OOF_FOLDS
        oof = 0.0
        for fold in range(_REFERENCE_OOF_FOLDS):
            train = folds != fold
            test = ~train
            if not test.any() or train.sum() < 2:
                continue
            model = SGDRegressor().fit(features[train], targets[train])
            predicted = model.predict(features[test])
            # Relative cycle error implied by the log-residual miss.
            errors = np.abs(np.expm1(predicted - targets[test]))
            oof = max(oof, float(errors.max()))
        self._oof_error = oof
        self._model = SGDRegressor().fit(features, targets)
        self._dirty = False

    def predict(
        self, counters: tuple[float, ...]
    ) -> tuple[float, float] | None:
        if not self.trained:
            return None
        self._fit_if_dirty()
        assert self._model is not None and self._log_matrix is not None
        query = np.log1p(np.asarray(counters, dtype=np.float64))
        distance = float(
            np.abs(self._log_matrix - query).mean(axis=1).min()
        )
        features = self._features(
            np.asarray([counters], dtype=np.float64)
        )
        log_residual = float(self._model.predict(features)[0])
        # A runaway extrapolation must not produce absurd cycle totals;
        # the residuals this model sees are fractions of a log unit.
        log_residual = float(np.clip(log_residual, -2.0, 2.0))
        return math.exp(log_residual), distance


def reference_surrogate_estimate(self, partition, estimate):
    """``self`` carries the predict config; ``partition.surrogate`` is a
    :class:`ReferenceCycleSurrogate`."""
    from repro.sim.perfmodel import KERNEL_LAUNCH_OVERHEAD

    surrogate = partition.surrogate
    if not surrogate.trained:
        return None
    oof = surrogate.oof_error
    if oof is None:
        return None
    total = 0.0
    quad = 0.0
    for group, share in zip(
        estimate.groups, estimate.shares(), strict=True
    ):
        predicted = surrogate.predict(group.counters)
        if predicted is None:
            return None
        ratio, distance = predicted
        if distance > self.config.coverage_radius:
            return None
        corrected = group.cycles * ratio
        total += group.count * (corrected + KERNEL_LAUNCH_OVERHEAD)
        term = oof + self.config.lipschitz * distance
        quad += (share * term) ** 2
    bound = self.config.error_floor + self.config.safety_factor * math.sqrt(
        quad
    )
    return bound, total
