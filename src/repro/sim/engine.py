"""Block-level discrete-event simulation of one kernel launch.

The engine schedules thread blocks onto the GPU with a static interleaved
assignment: block ``i`` runs on residency slot ``i % slots`` and each slot
executes its chain of blocks back to back, like a hardware CTA scheduler
with a fixed issue order.  The static assignment is what makes the
simulation decomposable: a slot's finish time is a plain sum of its block
durations, so any contiguous, wave-aligned span of blocks reduces to a
per-slot partial sum that can be computed vectorized, out of order, or on
another worker process — and the recombined result is bitwise identical
to the serial scalar loop.  While running in windowed mode the engine
emits fixed-width *windows* of GPU state — IPC, L2 miss rate, DRAM
utilization, finished-block count — which is the online signal Principal
Kernel Projection consumes to detect IPC stability and stop the
simulation early.

Per-block durations come from :mod:`repro.sim.perfmodel` stretched by

* a deterministic, seeded log-normal variation (the spec's
  ``duration_cv`` — regular kernels near zero, BFS-like kernels large),
* a linear phase drift across the grid (``phase_drift``),
* the caller-supplied ``bias`` — the simulator's per-kernel modeling
  error; silicon-faithful runs pass 1.0.

The variation stream is drawn in fixed ``DURATION_CHUNK_BLOCKS`` chunks,
each with its own seed derived from (spec signature, grid, chunk index),
so ``block_durations`` can produce any half-open block range exactly —
the same values whether the caller asks for the whole grid or for one
shard of it.  Chunk 0 keeps the historical seed, so grids that fit in a
single chunk reproduce the exact streams of the original implementation.

The windowed path's own noise streams (IPC wander and jitter, L2 miss
rate) are drawn in blocks of ``_WINDOW_DRAW_BLOCK`` windows, together
with the vectorized wander amplitudes; a block yields bitwise the
stream that one scalar draw and one ``np.exp`` per window would, so the
block size never shows in a result.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from repro.errors import SimulationError
from repro.gpu.architectures import GPUConfig
from repro.gpu.kernels import KernelLaunch
from repro.obs import obs_count, obs_span
from repro.sim.perfmodel import KernelPerformance, analyze_kernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.parallel import ExecutionBackend

__all__ = [
    "DEFAULT_WINDOW_CYCLES",
    "DURATION_CHUNK_BLOCKS",
    "KernelSimResult",
    "StopMonitor",
    "WindowSample",
    "block_durations",
    "compute_shard_partials",
    "fold_chunk_ranges",
    "simulate_kernel",
]

DEFAULT_WINDOW_CYCLES = 500.0

# The variation RNG is drawn in fixed-size chunks so any block range can
# be regenerated independently (intra-run sharding).  The chunk size is a
# block count, deliberately independent of the GPU: the duration stream
# of a kernel must not change with the architecture it runs on.
DURATION_CHUNK_BLOCKS = 65_536

# The windowed path draws its noise streams and wander amplitudes this
# many windows at a time.
_WINDOW_DRAW_BLOCK = 256

# A monitor judges windows a block at a time: the first block is this
# short and each next one half as long again, up to the cap, so a kernel
# that stabilises early simulates few windows past its stop.
_FIRST_JUDGE_BLOCK = 16
_JUDGE_BLOCK = 256

_SEED_MOD = 2**63
# Odd 64-bit golden-ratio stride decorrelates per-chunk seeds.
_CHUNK_SEED_STRIDE = 0x9E37_79B9_7F4A_7C15


@dataclass(frozen=True)
class WindowSample:
    """One fixed-width observation window of simulated GPU state.

    Attributes
    ----------
    cycle:
        Cycle at the *end* of the window.
    ipc:
        Warp instructions retired per cycle during the window.
    l2_miss_rate:
        Percentage of L2 sector requests that missed during the window.
    dram_util:
        Percentage of peak DRAM bandwidth consumed during the window.
    blocks_finished:
        Cumulative thread blocks retired by the end of the window.
    """

    cycle: float
    ipc: float
    l2_miss_rate: float
    dram_util: float
    blocks_finished: int


class StopMonitor(Protocol):
    """Online observer that can end a kernel simulation early (PKP).

    A monitor that also defines ``observe_windows(cycles, ipcs,
    blocks_finished) -> int | None`` (as
    :class:`~repro.core.pkp.IPCStabilityMonitor` does) is handed whole
    blocks of windows and returns the index of its stopping window; the
    engine then builds no :class:`WindowSample` for it.  A subclass that
    overrides ``observe`` must override ``observe_windows`` to match, or
    set it to None to be handed one sample at a time.
    """

    def observe(self, sample: WindowSample) -> bool:
        """Ingest one window; return True to stop simulating now."""
        ...


@dataclass(frozen=True)
class KernelSimResult:
    """Outcome of simulating (part of) one kernel launch.

    ``cycles`` and the traffic counters cover only the simulated portion;
    when ``stopped_early`` the caller is expected to *project* totals from
    them (that is Principal Kernel Projection's job, not the engine's).
    """

    launch: KernelLaunch
    perf: KernelPerformance
    cycles: float
    blocks_finished: int
    warp_instructions: float
    dram_bytes: float
    stopped_early: bool
    samples: tuple[WindowSample, ...] = ()

    @property
    def grid_blocks(self) -> int:
        return self.launch.grid_blocks

    @property
    def ipc(self) -> float:
        """Mean warp IPC over the simulated portion."""
        return self.warp_instructions / self.cycles if self.cycles > 0 else 0.0


def _variation_seed(signature: int, grid: int, chunk: int) -> int:
    """Seed for one ``DURATION_CHUNK_BLOCKS`` chunk of the variation RNG.

    Chunk 0 uses the historical ``(signature, grid)`` seed unchanged so
    grids up to one chunk reproduce the original duration streams bit for
    bit; later chunks offset it by a golden-ratio stride.
    """
    base = (signature * 1_000_003 + grid) % _SEED_MOD
    if chunk == 0:
        return base
    return (base + chunk * _CHUNK_SEED_STRIDE) % _SEED_MOD


def _variation_slice(
    signature: int, grid: int, sigma: float, start: int, stop: int
) -> np.ndarray:
    """Log-normal variation for blocks ``[start, stop)`` of ``grid``.

    Every chunk is always drawn from its own seed at its full in-grid
    length, so the values returned for a block never depend on which
    range the caller asked for.
    """
    if start == stop:
        return np.empty(0)
    mean = -0.5 * sigma**2
    first = start // DURATION_CHUNK_BLOCKS
    last = (stop - 1) // DURATION_CHUNK_BLOCKS
    parts: list[np.ndarray] = []
    for chunk in range(first, last + 1):
        lo = chunk * DURATION_CHUNK_BLOCKS
        hi = min(lo + DURATION_CHUNK_BLOCKS, grid)
        rng = np.random.default_rng(_variation_seed(signature, grid, chunk))
        draw = rng.lognormal(mean=mean, sigma=sigma, size=hi - lo)
        parts.append(draw[max(start, lo) - lo : min(stop, hi) - lo])
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def block_durations(
    launch: KernelLaunch,
    perf: KernelPerformance,
    bias: float = 1.0,
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray:
    """Deterministic per-block durations for blocks ``[start, stop)``.

    Seeded by the kernel spec's signature and the grid size so the same
    launch always produces the same durations, on every GPU, in every
    process, and — because the variation stream is drawn in fixed chunks
    — for every requested sub-range: ``block_durations(l, p)[a:b]`` is
    bitwise equal to ``block_durations(l, p, start=a, stop=b)``.
    """
    spec = launch.spec
    grid = launch.grid_blocks
    if stop is None:
        stop = grid
    if not 0 <= start <= stop <= grid:
        raise SimulationError(
            f"invalid block range [{start}, {stop}) for grid {grid}"
        )
    count = stop - start

    if spec.duration_cv > 0:
        sigma = float(np.sqrt(np.log1p(spec.duration_cv**2)))
        variation = _variation_slice(spec.signature(), grid, sigma, start, stop)
    else:
        variation = np.ones(count)

    if grid > 1 and spec.phase_drift != 0.0:
        phase = 1.0 + spec.phase_drift * np.arange(start, stop) / (grid - 1)
        phase = np.maximum(phase, 0.05)
    else:
        phase = np.ones(count)

    # Cold caches slow the first wave down, producing the IPC ramp-up
    # phase that PKP's wave constraint exists to wait out.
    if spec.cold_start_factor > 0:
        first_wave = min(grid, perf.occupancy.wave_size)
        if start < first_wave:
            cold = np.ones(count)
            cold[: min(first_wave, stop) - start] *= 1.0 + spec.cold_start_factor
            phase = phase * cold

    durations = perf.base_block_cycles * variation * phase * bias
    return np.maximum(durations, 1.0)


def fold_chunk_ranges(grid: int, slots: int) -> list[tuple[int, int]]:
    """Wave-aligned block ranges whose per-slot sums fold to finish times.

    Every range starts on a wave boundary (a multiple of ``slots``), so
    block ``i`` of the grid occupies position ``i % slots`` in every row
    of its chunk, and the chunk reduces to one partial-sum vector per
    slot.  The chunk layout depends only on (grid, slots) — never on how
    chunks are distributed across workers — which is what keeps the
    recombined fold bitwise identical for every ``intra_jobs`` setting.
    """
    if slots <= 0:
        raise SimulationError("slots must be positive")
    step = max(1, DURATION_CHUNK_BLOCKS // slots) * slots
    return [(lo, min(lo + step, grid)) for lo in range(0, grid, step)]


def compute_shard_partials(
    launch: KernelLaunch,
    perf: KernelPerformance,
    bias: float,
    slots: int,
    ranges: list[tuple[int, int]],
) -> list[np.ndarray]:
    """Per-slot partial finish times for contiguous fold-chunk ``ranges``.

    Returns one length-``slots`` vector per range.  Chunks are *not*
    merged here: the caller folds the individual chunk partials in global
    chunk order, so the floating-point accumulation order is one fixed
    left fold regardless of how chunks were sharded across workers.
    """
    lo = ranges[0][0]
    hi = ranges[-1][1]
    durations = block_durations(launch, perf, bias, start=lo, stop=hi)
    partials: list[np.ndarray] = []
    for a, b in ranges:
        chunk = durations[a - lo : b - lo]
        partial = np.zeros(slots)
        for off in range(0, b - a, slots):
            row = chunk[off : off + slots]
            partial[: len(row)] += row
        partials.append(partial)
    return partials


def simulate_kernel(
    launch: KernelLaunch,
    gpu: GPUConfig,
    *,
    bias: float = 1.0,
    window_cycles: float = DEFAULT_WINDOW_CYCLES,
    monitor: StopMonitor | Callable[[WindowSample], bool] | None = None,
    collect_series: bool = False,
    intra: "ExecutionBackend | None" = None,
) -> KernelSimResult:
    """Simulate ``launch`` on ``gpu``, optionally stopping early.

    Parameters
    ----------
    bias:
        Per-kernel duration multiplier modelling simulator-vs-silicon
        error; 1.0 reproduces the performance model exactly.
    window_cycles:
        Width of the observation windows fed to ``monitor``.
    monitor:
        Online stop condition (e.g. a PKP stability detector).  When it
        stops at a window, the result ends at that window boundary.
    collect_series:
        Keep every window sample on the result (needed for Figure-5-style
        time-series plots); otherwise samples are discarded after the
        monitor sees them.
    intra:
        Optional execution backend for intra-kernel block sharding.  With
        a multi-worker backend and a grid spanning several fold chunks,
        the fast path fans chunk partial-sums out across workers and
        recombines them in chunk order — bitwise identical to serial.

    Notes
    -----
    When neither ``monitor`` nor ``collect_series`` is given the engine
    takes a vectorized fast path that computes the identical interleaved
    schedule without window bookkeeping.
    """
    if bias <= 0:
        raise SimulationError("bias must be positive")
    if window_cycles <= 0:
        raise SimulationError("window_cycles must be positive")

    perf = analyze_kernel(launch, gpu)
    slots = min(launch.grid_blocks, perf.occupancy.wave_size)

    if monitor is None and not collect_series:
        return _run_fast(launch, perf, slots, bias, intra)
    durations = block_durations(launch, perf, bias)
    return _run_windowed(
        launch, gpu, perf, durations, slots, window_cycles, monitor, collect_series
    )


def _run_fast(
    launch: KernelLaunch,
    perf: KernelPerformance,
    slots: int,
    bias: float,
    intra: "ExecutionBackend | None",
) -> KernelSimResult:
    """Interleaved static scheduling without window bookkeeping.

    Block ``i`` runs on slot ``i % slots``; a slot's finish time is the
    sum of its blocks' durations and the kernel's makespan is the slowest
    slot.  The sum is accumulated as a fixed left fold over wave-aligned
    fold chunks, which is the property the sharded path preserves.
    """
    grid = launch.grid_blocks
    ranges = fold_chunk_ranges(grid, slots)
    if intra is not None and getattr(intra, "jobs", 1) > 1 and len(ranges) > 1:
        from repro.sim.parallel import CHUNKS_PER_WORKER, block_shard_task, chunked

        shards = chunked(ranges, intra.jobs * CHUNKS_PER_WORKER)
        obs_count("sim.intra.sharded_kernels")
        obs_count("sim.intra.shards", len(shards))
        obs_count("sim.intra.block_chunks", len(ranges))
        with obs_span(
            "sim.intra.fanout",
            kernel=launch.spec.name,
            grid=grid,
            shards=len(shards),
            chunks=len(ranges),
        ):
            payloads = [
                (launch, perf, bias, slots, tuple(shard)) for shard in shards
            ]
            shard_results = intra.map_tasks(block_shard_task, payloads)
        partials = [partial for shard in shard_results for partial in shard]
    else:
        partials = compute_shard_partials(launch, perf, bias, slots, ranges)
    finish = np.zeros(slots)
    for partial in partials:
        finish += partial
    makespan = float(finish.max())
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


def _run_windowed(
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
    slots' completion streams into time order.  Windows are judged a
    block at a time (see ``_FIRST_JUDGE_BLOCK``); a stop at window ``j``
    rewinds the result to window ``j``'s snapshot, so the windows run
    ahead of the judge never show in it.
    """
    judge, judge_reads_samples = _resolve_judge(monitor)
    keep_samples = collect_series or judge_reads_samples
    grid = launch.grid_blocks
    inst_per_block = perf.warp_insts_per_block
    bytes_per_block = perf.memory.dram_bytes_per_block
    base_miss = (1.0 - perf.memory.l2_hit_rate) * 100.0
    peak_dram = gpu.dram_bytes_per_cycle
    # Windowed IPC is bursty in proportion to the kernel's irregularity:
    # memory bursts, instruction replays and uneven intra-block progress
    # show up as window-to-window jitter that the uniform-rate attribution
    # would otherwise smooth away.  This is the signal PKP's stability
    # detector actually contends with (Figure 5b's noisy BFS trace).
    ipc_noise_sigma = 0.45 * launch.spec.duration_cv
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
    draws = _window_draws(
        launch.spec.signature(),
        ipc_noise_sigma > 0,
        window_cycles,
        wander_amp0,
        block_lifetime,
    )

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
    # Windows not yet judged: each one's end cycle, IPC, finished blocks,
    # running totals and sample, so a stop at any of them can be rewound to.
    pending_cycles: list[float] = []
    pending_ipcs: list[float] = []
    pending_finished: list[int] = []
    pending_totals: list[tuple[float, float]] = []
    pending_samples: list[WindowSample] = []
    block = _FIRST_JUDGE_BLOCK
    stop: int | None = None

    while True:
        if finished < grid:
            next_completion = heap[0][0]
            # Emit any windows that close before the next block completion.
            while window_end <= next_completion and len(pending_ipcs) < block:
                elapsed = window_end - now
                win_insts += inst_rate * elapsed
                win_bytes += byte_rate * elapsed
                total_insts += inst_rate * elapsed
                total_bytes += byte_rate * elapsed
                now = window_end
                observed_ipc = win_insts / window_cycles
                amp, wander_draw, noise_draw, miss_draw = next(draws)
                wander = wander_rho * wander + amp * wander_draw
                observed_ipc *= 1.0 + wander
                if ipc_noise_sigma > 0:
                    observed_ipc *= 1.0 + ipc_noise_sigma * noise_draw
                observed_ipc = max(0.0, observed_ipc)
                if keep_samples:
                    pending_samples.append(
                        WindowSample(
                            cycle=window_end,
                            ipc=observed_ipc,
                            l2_miss_rate=min(
                                100.0, max(0.0, base_miss * (1.0 + 0.04 * miss_draw))
                            ),
                            dram_util=min(
                                100.0, 100.0 * win_bytes / (window_cycles * peak_dram)
                            ),
                            blocks_finished=finished,
                        )
                    )
                pending_cycles.append(window_end)
                pending_ipcs.append(observed_ipc)
                pending_finished.append(finished)
                pending_totals.append((total_insts, total_bytes))
                win_insts = 0.0
                win_bytes = 0.0
                window_end += window_cycles
        if len(pending_ipcs) == block or (finished == grid and pending_ipcs):
            if judge is not None:
                stop = judge(
                    pending_cycles, pending_ipcs, pending_finished, pending_samples
                )
            if collect_series:
                judged = len(pending_ipcs) if stop is None else stop + 1
                samples.extend(pending_samples[:judged])
            if stop is not None:
                # Rewind to the stopping window: the run ends there.
                now = pending_cycles[stop]
                finished = pending_finished[stop]
                total_insts, total_bytes = pending_totals[stop]
                break
            pending_cycles.clear()
            pending_ipcs.clear()
            pending_finished.clear()
            pending_totals.clear()
            pending_samples.clear()
            block = min(block * 3 // 2, _JUDGE_BLOCK)
            continue
        if finished == grid:
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
        stopped_early=stop is not None,
        samples=tuple(samples),
    )


def _window_draws(
    signature: int,
    noisy: bool,
    window_cycles: float,
    wander_amp0: float,
    block_lifetime: float,
) -> Iterator[tuple[float, float, float, float]]:
    """Per-window ``(amp, wander_draw, noise_draw, miss_draw)``, in order.

    ``amp`` is the wander amplitude ``wander_amp0 * exp(-3 t / lifetime)``
    at the window's end cycle ``t``; the draws are standard normals from
    the kernel's two seeded streams.  Each window consumes the wander draw
    and then, for a ``noisy`` kernel, the IPC jitter draw from the noise
    stream (a quiet kernel's ``noise_draw`` is 0.0 and consumes nothing).

    Values are produced ``_WINDOW_DRAW_BLOCK`` windows at a time, bitwise
    equal to per-window scalar draws: ``standard_normal(k)`` yields exactly
    the stream of ``k`` scalar calls, the window ends are built by the same
    repeated ``+= window_cycles`` as the event loop's, and the vectorized
    ``np.exp`` rounds each element as the scalar call does (``math.exp``
    does not).
    """
    miss_rng = np.random.default_rng(signature % 2**63)
    noise_rng = np.random.default_rng((signature * 31 + 7) % 2**63)
    per_window = 2 if noisy else 1
    window_end = window_cycles
    while True:
        steps = repeat(window_cycles, _WINDOW_DRAW_BLOCK - 1)
        ends = list(accumulate(steps, initial=window_end))
        window_end = ends[-1] + window_cycles
        amps = wander_amp0 * np.exp(
            -3.0 * np.array(ends, dtype=float) / block_lifetime
        )
        noise = noise_rng.standard_normal(_WINDOW_DRAW_BLOCK * per_window).tolist()
        misses = miss_rng.standard_normal(_WINDOW_DRAW_BLOCK).tolist()
        if noisy:
            yield from zip(amps.tolist(), noise[0::2], noise[1::2], misses)
        else:
            yield from zip(amps.tolist(), noise, repeat(0.0), misses)


def _resolve_judge(
    monitor: StopMonitor | Callable[[WindowSample], bool] | None,
) -> tuple[Callable[..., int | None] | None, bool]:
    """``monitor`` as a block judge, and whether it reads the samples.

    The judge takes a block's end cycles, IPCs, finished-block counts and
    (for per-window monitors) samples, and returns the index of the
    window that stops the run, or None.  A monitor with
    ``observe_windows`` judges the block itself; any other monitor is
    called one sample at a time, and never past its stopping window.
    """
    if monitor is None:
        return None, False
    observe_windows = getattr(monitor, "observe_windows", None)
    if observe_windows is not None:
        return (
            lambda cycles, ipcs, finished, samples: observe_windows(
                cycles, ipcs, finished
            )
        ), False
    observe = getattr(monitor, "observe", monitor)

    def judge(cycles, ipcs, finished, samples) -> int | None:
        for index, sample in enumerate(samples):
            if observe(sample):
                return index
        return None

    return judge, True
