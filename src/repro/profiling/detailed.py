"""Detailed silicon profiler (the Nsight Compute stand-in).

Collects, per kernel launch, exactly the twelve microarchitecture-agnostic
counters of the paper's Table 2 plus the measured kernel duration.
Detailed profiling is *expensive*: Nsight Compute replays every kernel
many times, so profiling cost scales with kernel count and runtime — the
very intractability (Figure 1) that motivates two-level profiling.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ProfilingError
from repro.gpu.kernels import KernelLaunch
from repro.sim.memory import build_memory_profile
from repro.sim.silicon import SiliconExecutor

__all__ = ["FEATURE_NAMES", "DetailedProfile", "DetailedProfiler", "collect_counters"]

#: The Table-2 counters, in feature-vector order.
FEATURE_NAMES: tuple[str, ...] = (
    "coalesced_global_loads",  # l1tex__t_sectors_pipe_lsu_mem_global_op_ld.sum
    "coalesced_global_stores",  # l1tex__t_sectors_pipe_lsu_mem_global_op_st.sum
    "coalesced_local_loads",  # l1tex__t_sectors_pipe_lsu_mem_local_op_ld.sum
    "thread_global_loads",  # smsp__inst_executed_op_global_ld.sum
    "thread_global_stores",  # smsp__inst_executed_op_global_st.sum
    "thread_local_loads",  # smsp__inst_executed_op_local_ld.sum
    "thread_shared_loads",  # smsp__inst_executed_op_shared_ld.sum
    "thread_shared_stores",  # smsp__inst_executed_op_shared_st.sum
    "thread_global_atomics",  # smsp__sass_inst_executed_op_global_atom.sum
    "instructions",  # smsp__inst_executed.sum
    "divergence_efficiency",  # smsp__thread_inst_executed_per_inst_executed.ratio
    "thread_blocks",  # launch_grid_size
)


@dataclass(frozen=True)
class DetailedProfile:
    """One kernel's Table-2 counter readings plus its measured duration.

    ``cycles`` is not part of the clustering feature vector (it is
    architecture-*dependent*); PKS uses it to weigh groups and compute the
    projection error during the K sweep.
    """

    launch_id: int
    kernel_name: str
    counters: tuple[float, ...]
    cycles: float

    def __post_init__(self) -> None:
        if len(self.counters) != len(FEATURE_NAMES):
            raise ProfilingError(
                f"expected {len(FEATURE_NAMES)} counters, got {len(self.counters)}"
            )

    def feature_vector(self) -> np.ndarray:
        """The 12-dimensional arch-agnostic feature vector for PCA."""
        return np.asarray(self.counters, dtype=np.float64)

    def counter(self, name: str) -> float:
        """Look one counter up by its Table-2 row name."""
        try:
            return self.counters[FEATURE_NAMES.index(name)]
        except ValueError as exc:
            raise ProfilingError(f"unknown counter {name!r}") from exc


# Different GPU generations compile to different machine ISAs, so absolute
# instruction counts differ slightly between the profiled binary of each
# generation (the paper's stated caveat).  A few-percent deterministic skew
# per (kernel, generation) models that.
_ISA_SKEW = 0.03


@functools.lru_cache(maxsize=4096)
def _isa_factor(signature: int, generation: str) -> float:
    # zlib.crc32 is a stable string hash (Python's hash() is salted per
    # process, which would break reproducibility).
    import zlib

    generation_hash = zlib.crc32(generation.encode("utf-8"))
    rng = np.random.default_rng((signature ^ generation_hash) % 2**63)
    return float(1.0 + _ISA_SKEW * rng.uniform(-1.0, 1.0))


def collect_counters(launch: KernelLaunch, generation: str = "volta") -> tuple[float, ...]:
    """Derive the Table-2 counters of one launch from its kernel spec."""
    return _counters(launch, _isa_factor(launch.spec.signature(), generation))


def _counters(launch: KernelLaunch, isa: float) -> tuple[float, ...]:
    """The Table-2 counters of one launch under ISA skew factor ``isa``."""
    spec = launch.spec
    threads = launch.total_threads
    warps = threads / 32.0
    efficiency = spec.divergence_efficiency

    def warp_insts(per_thread: float) -> float:
        """Warp-level executed-instruction count for one opcode class."""
        return warps * per_thread / efficiency * isa

    global_load_accesses = warp_insts(spec.mix.global_loads)
    global_store_accesses = warp_insts(spec.mix.global_stores)
    local_load_accesses = warp_insts(spec.mix.local_loads)

    return (
        global_load_accesses * spec.sectors_per_global_access,
        global_store_accesses * spec.sectors_per_global_access,
        local_load_accesses,  # local memory coalesces perfectly
        global_load_accesses,
        global_store_accesses,
        local_load_accesses,
        warp_insts(spec.mix.shared_loads),
        warp_insts(spec.mix.shared_stores),
        warp_insts(spec.mix.global_atomics),
        warps * spec.mix.per_thread_total / efficiency * isa,
        32.0 * efficiency,
        float(launch.grid_blocks),
    )


class DetailedProfiler:
    """Profiles launches in "silicon", charging Nsight-Compute-like cost.

    Parameters
    ----------
    silicon:
        The silicon executor providing ground-truth kernel durations.
    replay_factor:
        How many times each kernel effectively re-executes under the
        profiler (Nsight Compute replays the kernel once per counter
        group).
    per_kernel_overhead_s:
        Fixed profiler cost per kernel (attach, flush, serialize).
    """

    def __init__(
        self,
        silicon: SiliconExecutor,
        *,
        replay_factor: float = 40.0,
        per_kernel_overhead_s: float = 0.8,
    ) -> None:
        self.silicon = silicon
        self.replay_factor = replay_factor
        self.per_kernel_overhead_s = per_kernel_overhead_s

    def profile(
        self,
        launches: Iterable[KernelLaunch],
        *,
        limit: int | None = None,
    ) -> list[DetailedProfile]:
        """Collect detailed profiles for the first ``limit`` launches."""
        generation = self.silicon.gpu.generation
        # One ISA skew per (signature, generation): launches of one kernel
        # share it, and seeding a generator per launch would dominate.
        isa_factors: dict[int, float] = {}
        profiles: list[DetailedProfile] = []
        for index, launch in enumerate(launches):
            if limit is not None and index >= limit:
                break
            signature = launch.spec.signature()
            isa = isa_factors.get(signature)
            if isa is None:
                isa = isa_factors[signature] = _isa_factor(signature, generation)
            profiles.append(
                DetailedProfile(
                    launch_id=launch.launch_id,
                    kernel_name=launch.spec.name,
                    counters=_counters(launch, isa),
                    cycles=self.silicon.kernel_cycles(launch),
                )
            )
        return profiles

    def profiling_seconds(self, launches: Sequence[KernelLaunch]) -> float:
        """Wall-clock cost of detailed-profiling all given launches."""
        gpu = self.silicon.gpu
        total = 0.0
        for launch in launches:
            kernel_seconds = gpu.cycles_to_seconds(self.silicon.kernel_cycles(launch))
            total += kernel_seconds * self.replay_factor + self.per_kernel_overhead_s
        return total

    def dram_bytes(self, launch: KernelLaunch) -> float:
        """Ground-truth DRAM traffic, as the profiler would report it."""
        profile = build_memory_profile(launch.spec, self.silicon.gpu)
        return profile.dram_bytes_per_block * launch.grid_blocks
