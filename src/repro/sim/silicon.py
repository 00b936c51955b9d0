"""Silicon execution model: the ground truth every method is scored against.

Real hardware executes a workload in closed form here — per-launch cycles
come from :func:`repro.sim.perfmodel.analytic_kernel_cycles`, memoized on
(kernel signature, grid, GPU) because scaled workloads launch the same few
specs millions of times.  The silicon model is deterministic: the paper's
"error versus silicon" metrics need a stable reference.  Pricing is
cheap next to starting a process, so it runs in the calling one.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.gpu.architectures import GPUConfig
from repro.gpu.kernels import KernelLaunch
from repro.obs import obs_count, obs_span
from repro.sim.memory import build_memory_profile
from repro.sim.perfmodel import KERNEL_LAUNCH_OVERHEAD, analytic_kernel_cycles
from repro.sim.stats import AppRunResult, KernelRecord

__all__ = ["SiliconExecutor"]


class SiliconExecutor:
    """Executes workloads "on silicon" (analytically) for one GPU."""

    def __init__(self, gpu: GPUConfig) -> None:
        self.gpu = gpu
        self._cycle_cache: dict[tuple[int, int], float] = {}
        self._traffic_cache: dict[int, float] = {}

    def kernel_cycles(self, launch: KernelLaunch) -> float:
        """Ground-truth cycles for one launch, memoized."""
        key = (launch.spec.signature(), launch.grid_blocks)
        cached = self._cycle_cache.get(key)
        if cached is None:
            cached = analytic_kernel_cycles(launch, self.gpu)
            self._cycle_cache[key] = cached
        return cached

    def kernel_dram_bytes_per_block(self, launch: KernelLaunch) -> float:
        """Ground-truth DRAM traffic per thread block, memoized."""
        signature = launch.spec.signature()
        per_block = self._traffic_cache.get(signature)
        if per_block is None:
            per_block = build_memory_profile(launch.spec, self.gpu).dram_bytes_per_block
            self._traffic_cache[signature] = per_block
        return per_block

    def kernel_dram_bytes(self, launch: KernelLaunch) -> float:
        """Ground-truth DRAM traffic for one launch, memoized."""
        return self.kernel_dram_bytes_per_block(launch) * launch.grid_blocks

    def run(
        self,
        workload_name: str,
        launches: Iterable[KernelLaunch],
        *,
        keep_records: bool = False,
    ) -> AppRunResult:
        """Execute the whole application on silicon.

        ``simulated_cycles`` is zero — silicon pays no simulation cost;
        real time comes from :attr:`AppRunResult.silicon_seconds`.
        """
        if not isinstance(launches, Sequence):
            launches = list(launches)
        with obs_span(
            "silicon.run",
            workload=workload_name,
            gpu=self.gpu.name,
            launches=len(launches),
        ):
            total_cycles = 0.0
            total_insts = 0.0
            total_bytes = 0.0
            records: list[KernelRecord] = []
            for launch in launches:
                cycles = self.kernel_cycles(launch)
                insts = launch.warp_instructions
                dram = self.kernel_dram_bytes(launch)
                total_cycles += cycles + KERNEL_LAUNCH_OVERHEAD
                total_insts += insts
                total_bytes += dram
                if keep_records:
                    records.append(
                        KernelRecord(
                            launch_id=launch.launch_id,
                            name=launch.spec.name,
                            cycles=cycles,
                            instructions=insts,
                            dram_bytes=dram,
                            simulated_cycles=0.0,
                        )
                    )
            obs_count("silicon.kernels", len(launches))
        return AppRunResult(
            workload=workload_name,
            gpu=self.gpu,
            method="silicon",
            total_cycles=total_cycles,
            total_instructions=total_insts,
            total_dram_bytes=total_bytes,
            simulated_cycles=0.0,
            kernel_records=tuple(records),
        )
