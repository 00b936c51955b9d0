"""Profiling- and simulation-time projections (the Figure-1 landscape).

Figure 1 of the paper plots, per workload, three wall-clock magnitudes:
raw silicon execution (microseconds to minutes), detailed in-silicon
profiling of 12 statistics (minutes to months), and projected cycle-level
simulation (hours to centuries).  This module computes all three from a
workload's launch list so the benchmark harness can regenerate the figure.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.gpu.kernels import KernelLaunch
from repro.profiling.detailed import DetailedProfiler
from repro.profiling.lightweight import LightweightProfiler
from repro.sim.perfmodel import KERNEL_LAUNCH_OVERHEAD
from repro.sim.silicon import SiliconExecutor

__all__ = ["TimeLandscape", "compute_time_landscape", "SECONDS_PER_WEEK"]

SECONDS_PER_WEEK = 7 * 24 * 3600.0
SECONDS_PER_YEAR = 365.25 * 24 * 3600.0


@dataclass(frozen=True)
class TimeLandscape:
    """Projected wall-clock costs for one workload on one GPU.

    All values in seconds; ``scale`` has already been applied, so these
    are the magnitudes of the *unscaled* (paper-sized) workload.
    """

    workload: str
    silicon_seconds: float
    detailed_profiling_seconds: float
    lightweight_profiling_seconds: float
    full_simulation_seconds: float

    @property
    def simulation_hours(self) -> float:
        return self.full_simulation_seconds / 3600.0

    @property
    def simulation_years(self) -> float:
        return self.full_simulation_seconds / SECONDS_PER_YEAR

    @property
    def detailed_profiling_tractable(self) -> bool:
        """The paper's rule: detailed profiling over a week is intractable."""
        return self.detailed_profiling_seconds <= SECONDS_PER_WEEK


def compute_time_landscape(
    workload_name: str,
    launches: Sequence[KernelLaunch],
    silicon: SiliconExecutor,
    *,
    scale: float = 1.0,
) -> TimeLandscape:
    """Project silicon / profiling / simulation times for one workload.

    ``scale`` multiplies every per-launch cost, undoing the launch-count
    downscaling the synthetic MLPerf generators apply (see DESIGN.md).
    """
    gpu = silicon.gpu
    detailed = DetailedProfiler(silicon)
    lightweight = LightweightProfiler(silicon)

    total_cycles = sum(silicon.kernel_cycles(launch) for launch in launches)
    total_cycles += KERNEL_LAUNCH_OVERHEAD * len(launches)

    return TimeLandscape(
        workload=workload_name,
        silicon_seconds=gpu.cycles_to_seconds(total_cycles) * scale,
        detailed_profiling_seconds=detailed.profiling_seconds(launches) * scale,
        lightweight_profiling_seconds=lightweight.profiling_seconds(launches) * scale,
        full_simulation_seconds=gpu.cycles_to_sim_seconds(total_cycles) * scale,
    )
