"""Principal Kernel Projection (PKP): intra-kernel reduction.

PKP watches the simulator's windowed IPC signal and declares the kernel
*quasi-stable* when the rolling relative standard deviation (std/mean
over the last 3000 cycles) drops below the user's threshold ``s``.  To
keep contention representative, stability only counts once at least one
full *wave* of thread blocks — enough to fill every SM at the kernel's
occupancy — has retired; grids smaller than a wave skip that condition
(they never exhibit block turnover phases, per §3.2).

Once stable, simulation stops and the kernel's totals are projected
linearly from the amount of work remaining: with ``f`` of ``g`` blocks
finished after ``c`` cycles, the projected total is ``c * g / f``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.config import PKPConfig
from repro.errors import SimulationError
from repro.gpu.architectures import GPUConfig
from repro.gpu.kernels import KernelLaunch
from repro.gpu.occupancy import compute_occupancy
from repro.obs import obs_count, obs_span
from repro.sim.engine import KernelSimResult, WindowSample
from repro.sim.simulator import Simulator

__all__ = ["IPCStabilityMonitor", "PKPProjection", "project_result", "run_pkp"]


# numpy's unroll width and block size in its pairwise summation.
_PAIRWISE_UNROLL = 8
_PAIRWISE_BLOCK = 128


def _pairwise_sum(values: list[float] | list[np.ndarray]):
    """Sum ``values`` in numpy's pairwise order.

    A float-for-float copy of numpy's ``pairwise_sum`` (the kernel behind
    ``np.add.reduce`` on contiguous float64): short runs are a left fold
    from ``-0.0``; up to one block, eight strided accumulators combined as
    a balanced tree, then the leftover tail; longer runs recurse on halves
    split at a multiple of the unroll width.

    ``values`` may also be a list of equal-length float64 arrays: every
    add is then elementwise, in the same order, so element ``i`` of the
    result is bitwise the sum of element ``i`` of each array.  No add is
    in place, so the arrays are never written.
    """
    n = len(values)
    if n < _PAIRWISE_UNROLL:
        total = -0.0
        for value in values:
            total = total + value
        return total
    if n <= _PAIRWISE_BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        body = n - n % _PAIRWISE_UNROLL
        for index in range(8, body, 8):
            r0 = r0 + values[index]
            r1 = r1 + values[index + 1]
            r2 = r2 + values[index + 2]
            r3 = r3 + values[index + 3]
            r4 = r4 + values[index + 4]
            r5 = r5 + values[index + 5]
            r6 = r6 + values[index + 6]
            r7 = r7 + values[index + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for value in values[body:]:
            total = total + value
        return total
    half = n // 2
    half -= half % _PAIRWISE_UNROLL
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _rolling_spreads(values: list[float], width: int) -> list[float]:
    """std/mean of every ``width``-long run of ``values``, NaN where invalid.

    Element ``i`` is bitwise ``np.std(w) / np.mean(w)`` for
    ``w = values[i : i + width]``: column ``c`` holds the ``c``-th member
    of every run, so :func:`_pairwise_sum` over the columns adds each
    run's members in numpy's order, and ``/ width``, ``(x - mean) *
    (x - mean)``, sqrt and the final divide are single IEEE-754
    operations elementwise.  A run whose mean is not finite and positive,
    or whose spread is not finite, has no usable spread and yields NaN.

    A single run's columns are its values themselves, so judging one
    window takes the same steps on Python floats, without a numpy call
    per one-element column.
    """
    runs = len(values) - width + 1
    if runs == 1:
        columns = values
    else:
        array = np.array(values, dtype=float)
        columns = [array[c : c + runs] for c in range(width)]
    with np.errstate(all="ignore"):
        mean = _pairwise_sum(columns) / width
        squares = [(column - mean) * (column - mean) for column in columns]
        spread = np.sqrt(_pairwise_sum(squares) / width) / mean
    valid = np.isfinite(mean) & (mean > 0.0) & np.isfinite(spread)
    return np.where(valid, spread, np.nan).reshape(runs).tolist()


class IPCStabilityMonitor:
    """Online IPC-stability detector implementing the engine StopMonitor.

    Parameters
    ----------
    wave_size:
        Thread blocks needed to fill the GPU once at this kernel's
        occupancy.
    grid_blocks:
        Total blocks in the launch (sub-wave grids skip the wave rule).
    config:
        PKP parameters (threshold ``s``, rolling window width...).
    """

    def __init__(
        self,
        wave_size: int,
        grid_blocks: int,
        config: PKPConfig | None = None,
    ) -> None:
        if wave_size < 1:
            raise SimulationError("wave_size must be >= 1")
        self.config = config if config is not None else PKPConfig()
        self.wave_size = wave_size
        self.grid_blocks = grid_blocks
        self._window: deque[float] = deque(maxlen=self.config.rolling_samples)
        self._quiet_streak = 0
        # The paper expresses ``s`` in raw IPC units against signals whose
        # magnitude is tens of IPC; on our normalized (relative) signal the
        # equivalent criterion is ``std/mean < s/10`` — s=0.25 means the
        # rolling IPC varies by under 2.5% of its mean.
        self._quiet_below = self.config.stability_threshold / 10.0
        self.stable_at_cycle: float | None = None
        self.stop_cycle: float | None = None
        #: Window samples judged; a plain int (not a tracer counter) so
        #: the hot path stays untouched — run_pkp reports the total once
        #: per kernel.
        self.windows_observed = 0

    @property
    def wave_rule_active(self) -> bool:
        """Whether the finished-wave precondition applies to this kernel."""
        return self.config.enforce_wave and self.grid_blocks >= self.wave_size

    def relative_std(self) -> float | None:
        """Rolling std/mean of IPC, or None until the window fills.

        Bitwise the value of ``np.std(w) / np.mean(w)`` (see
        :func:`_rolling_spreads`); the property test in
        ``tests/core/test_pkp.py`` guards the equality.
        """
        window = self._window
        if len(window) < window.maxlen:
            return None
        spread = _rolling_spreads(list(window), len(window))[0]
        return None if math.isnan(spread) else spread

    def observe(self, sample: WindowSample) -> bool:
        """Ingest one window sample; True stops the simulation."""
        return (
            self.observe_windows(
                [sample.cycle], [sample.ipc], [sample.blocks_finished]
            )
            is not None
        )

    def observe_windows(
        self,
        cycles: Sequence[float],
        ipcs: Sequence[float],
        blocks_finished: Sequence[int],
    ) -> int | None:
        """Judge a block of consecutive windows; the stopping index, or None.

        The windows are judged in order exactly as one :meth:`observe` per
        window would, and the monitor is left in the state that sequence
        of calls leaves it in, up to and including the stopping window;
        windows after it are not judged.  A window is *quiet* when the
        rolling std/mean of the last ``rolling_samples`` finite IPCs is
        below ``s/10``.  ``consecutive_windows`` quiet windows in a row
        make the kernel quasi-stable; it stops at the first such window
        by which a full wave of blocks has retired (or at once, for
        sub-wave grids).  Regular kernels cross it right after their
        first wave; BFS-like kernels with double-digit jitter effectively
        never do, which is why the paper sees PKP gains concentrated in
        the regular, long-running apps.

        A non-finite IPC is maximal instability: it is never quiet, and
        it empties the rolling window, so no window before it counts
        again.
        """
        quiet, breaks = self._quiet_flags(ipcs)
        streak = self._quiet_streak
        needed = self.config.consecutive_windows
        wave = self.wave_size if self.wave_rule_active else 0
        stop = None
        for index, is_quiet in enumerate(quiet):
            if not is_quiet:
                streak = 0
                continue
            streak += 1
            if streak < needed:
                continue
            if self.stable_at_cycle is None:
                self.stable_at_cycle = cycles[index]
            # Quasi-stable, but until the first wave has fully turned over
            # the kernel keeps simulating.
            if blocks_finished[index] >= wave:
                stop = index
                break
        judged = len(quiet) if stop is None else stop + 1
        self.windows_observed += judged
        self._quiet_streak = streak
        # A non-finite IPC among the judged windows restarts the rolling
        # window just after it.
        resets = bisect_left(breaks, judged)
        kept_from = 0
        if resets:
            self._window.clear()
            kept_from = breaks[resets - 1] + 1
        self._window.extend(ipcs[kept_from:judged])
        if stop is not None:
            self.stop_cycle = cycles[stop]
        return stop

    def _quiet_flags(self, ipcs: Sequence[float]) -> tuple[list[bool], list[int]]:
        """Per-window quiet flags, and the indices of non-finite IPCs.

        Each run of finite IPCs between non-finite ones is judged in one
        :func:`_rolling_spreads` call: the first run continues the current
        rolling window, later runs start from an empty one.
        """
        width = self._window.maxlen
        if all(map(math.isfinite, ipcs)):
            broken = []
        else:
            broken = [i for i, ipc in enumerate(ipcs) if not math.isfinite(ipc)]
        quiet = [False] * len(ipcs)
        # The last ``width - 1`` values complete the block's first windows.
        history = list(self._window)[1 - width :]
        start = 0
        for end in [*broken, len(ipcs)]:
            run = history + list(ipcs[start:end])
            if len(run) >= width:
                first = end - (len(run) - width + 1)
                below = self._quiet_below
                quiet[first:end] = [
                    spread < below for spread in _rolling_spreads(run, width)
                ]
            history = []
            start = end + 1
        return quiet, broken


@dataclass(frozen=True)
class PKPProjection:
    """A kernel's totals after Principal Kernel Projection.

    When the monitor never fired (the kernel ran to completion) the
    projected values equal the simulated ones and ``stopped_early`` is
    False.

    ``relative_std_at_stop`` is the rolling relative standard deviation
    the monitor observed when it fired (None for completed runs); it
    feeds the projection's confidence interval.
    """

    result: KernelSimResult
    projected_cycles: float
    projected_instructions: float
    projected_dram_bytes: float
    stopped_early: bool
    relative_std_at_stop: float | None = None

    def confidence_interval(
        self, z_score: float = 1.96
    ) -> tuple[float, float]:
        """Cycle bounds implied by the residual IPC variability at stop.

        The linear projection extends the observed rate over the
        remaining work; the rolling relative standard deviation bounds
        how far the true rate may sit from the observed one, so the
        interval widens with both the residual variability and the
        unsimulated fraction.  Completed runs return a degenerate
        interval.
        """
        if not self.stopped_early or self.relative_std_at_stop is None:
            return (self.projected_cycles, self.projected_cycles)
        remaining_fraction = 1.0 - (
            self.result.cycles / self.projected_cycles
            if self.projected_cycles > 0
            else 0.0
        )
        margin = (
            z_score
            * self.relative_std_at_stop
            * remaining_fraction
            * self.projected_cycles
        )
        return (
            max(self.result.cycles, self.projected_cycles - margin),
            self.projected_cycles + margin,
        )

    @property
    def simulated_cycles(self) -> float:
        """Simulation cost actually paid for this kernel."""
        return self.result.cycles

    @property
    def speedup(self) -> float:
        """Projected cycles over simulated cycles (intra-kernel speedup)."""
        if self.result.cycles <= 0:
            return 1.0
        return self.projected_cycles / self.result.cycles

    @property
    def projected_dram_util_fraction(self) -> float:
        """Projected DRAM bytes per cycle (divide by peak for percent)."""
        if self.projected_cycles <= 0:
            return 0.0
        return self.projected_dram_bytes / self.projected_cycles


def project_result(
    result: KernelSimResult, relative_std_at_stop: float | None = None
) -> PKPProjection:
    """Project a (possibly truncated) kernel run to completion.

    Multi-wave kernels scale linearly by the unfinished thread blocks —
    the paper's occupancy-based projection.  Sub-wave kernels (which the
    monitor may stop before any block retires) scale by the remaining
    warp instructions instead, since every block is already resident and
    progressing.
    """
    if not result.stopped_early:
        return PKPProjection(
            result=result,
            projected_cycles=result.cycles,
            projected_instructions=result.warp_instructions,
            projected_dram_bytes=result.dram_bytes,
            stopped_early=False,
        )
    multi_wave = result.grid_blocks > result.perf.occupancy.wave_size
    if multi_wave and result.blocks_finished > 0:
        scale = result.grid_blocks / result.blocks_finished
    else:
        # Sub-wave: every block is already resident and progressing in
        # parallel, so block counts misrepresent progress — scale by the
        # remaining warp instructions instead.
        total_insts = result.perf.warp_insts_per_block * result.grid_blocks
        scale = (
            total_insts / result.warp_instructions
            if result.warp_instructions > 0
            else 1.0
        )
    if not np.isfinite(scale) or scale <= 0.0:
        # A non-finite or non-positive ratio means the denominators were
        # degenerate; projecting by anything other than identity would
        # fabricate cycles.
        scale = 1.0
    return PKPProjection(
        result=result,
        projected_cycles=result.cycles * scale,
        projected_instructions=result.warp_instructions * scale,
        projected_dram_bytes=result.dram_bytes * scale,
        stopped_early=True,
        relative_std_at_stop=relative_std_at_stop,
    )


def run_pkp(
    simulator: Simulator,
    launch: KernelLaunch,
    config: PKPConfig | None = None,
    *,
    collect_series: bool = False,
) -> PKPProjection:
    """Simulate one launch under PKP and project its totals."""
    config = config if config is not None else PKPConfig()
    monitor = make_monitor(launch, simulator.gpu, config)
    with obs_span("pkp.kernel", kernel=launch.spec.name) as span:
        result = simulator.run_kernel(
            launch,
            monitor=monitor,
            collect_series=collect_series,
            window_cycles=config.window_cycles,
        )
        projection = project_result(
            result, relative_std_at_stop=monitor.relative_std()
        )
        span.set(stopped_early=projection.stopped_early)
    obs_count("pkp.kernels")
    obs_count("pkp.windows_observed", monitor.windows_observed)
    if projection.stopped_early:
        obs_count("pkp.stopped_early")
    return projection


def make_monitor(
    launch: KernelLaunch,
    gpu: GPUConfig,
    config: PKPConfig | None = None,
) -> IPCStabilityMonitor:
    """Build a stability monitor sized to the launch's occupancy wave."""
    occupancy = compute_occupancy(launch.spec, gpu)
    return IPCStabilityMonitor(
        wave_size=occupancy.wave_size,
        grid_blocks=launch.grid_blocks,
        config=config,
    )
