"""Parametric GPU architecture configurations.

Stands in for the three silicon platforms of the paper's evaluation — a
Volta V100, a Turing RTX 2060 and an Ampere RTX 3070 — plus the
MPS-style half-SM V100 used in the Figure-10 case study.  Only the
parameters the performance model consumes are represented; they are taken
from the public datasheets of the respective cards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

from repro.errors import ConfigurationError

__all__ = [
    "ALL_GPUS",
    "AMPERE_A100",
    "AMPERE_RTX3070",
    "GENERATIONS",
    "GPUConfig",
    "TURING_RTX2060",
    "VOLTA_V100",
    "get_gpu",
    "volta_v100_half_sms",
]


@dataclass(frozen=True)
class GPUConfig:
    """Microarchitectural parameters of one GPU.

    Attributes
    ----------
    name / generation:
        Human-readable identifiers ("V100" / "volta").
    num_sms:
        Streaming multiprocessor count.
    max_threads_per_sm / max_blocks_per_sm:
        Occupancy limits per SM.
    registers_per_sm / shared_mem_per_sm:
        Register-file entries and shared-memory bytes per SM.
    warp_size:
        Threads per warp (32 on all Nvidia parts).
    issue_rate_per_sm:
        Peak warp instructions issued per SM per cycle.
    tensor_speedup:
        Throughput multiplier applied to tensor-core warp instructions.
    core_clock_ghz:
        SM clock used to convert cycles to wall-clock seconds.
    l2_size_bytes:
        Last-level cache capacity.
    dram_bandwidth_gbps:
        Peak DRAM bandwidth in GB/s.
    dram_capacity_gb:
        Device memory size; workloads whose footprint exceeds it cannot
        run on the card (MLPerf does not fit on the RTX 2060).
    sim_cycles_per_second:
        Rate at which the cycle-level simulator retires simulated cycles,
        used to project simulation wall-clock time (Accel-Sim-calibrated).
    """

    name: str
    generation: str
    num_sms: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    registers_per_sm: int
    shared_mem_per_sm: int
    warp_size: int
    issue_rate_per_sm: float
    tensor_speedup: float
    core_clock_ghz: float
    l2_size_bytes: int
    dram_bandwidth_gbps: float
    dram_capacity_gb: float
    sim_cycles_per_second: float

    def __post_init__(self) -> None:
        # NaN fails every comparison, so the range checks below would pass
        # vacuously on a poisoned config; reject non-finite floats first.
        for field_name in (
            "issue_rate_per_sm",
            "tensor_speedup",
            "core_clock_ghz",
            "dram_bandwidth_gbps",
            "dram_capacity_gb",
            "sim_cycles_per_second",
        ):
            value = getattr(self, field_name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{field_name} must be finite, got {value!r}")
        if self.num_sms < 1:
            raise ConfigurationError("num_sms must be >= 1")
        if self.warp_size < 1:
            raise ConfigurationError("warp_size must be >= 1")
        if self.issue_rate_per_sm <= 0:
            raise ConfigurationError("issue_rate_per_sm must be positive")
        if self.dram_bandwidth_gbps <= 0:
            raise ConfigurationError("dram_bandwidth_gbps must be positive")
        if self.sim_cycles_per_second <= 0:
            raise ConfigurationError("sim_cycles_per_second must be positive")

    @cached_property
    def field_json(self) -> str:
        """Every field as canonical JSON: sorted keys, no spaces.

        Computed once per config: every run-cache digest hashes the full
        config.  A string, so no caller can alter what another sees.
        """
        return json.dumps(
            {f.name: getattr(self, f.name) for f in fields(self)},
            sort_keys=True,
            separators=(",", ":"),
        )

    @property
    def dram_bytes_per_cycle(self) -> float:
        """Peak DRAM bytes deliverable per core-clock cycle."""
        return self.dram_bandwidth_gbps / self.core_clock_ghz

    @property
    def peak_ipc(self) -> float:
        """Peak GPU-wide warp instructions per cycle."""
        return self.num_sms * self.issue_rate_per_sm

    def cycles_to_seconds(self, cycles: float) -> float:
        """Wall-clock seconds the given cycle count takes on silicon."""
        return cycles / (self.core_clock_ghz * 1e9)

    def cycles_to_sim_seconds(self, cycles: float) -> float:
        """Wall-clock seconds the given cycle count takes to *simulate*."""
        return cycles / self.sim_cycles_per_second

    def with_sms(self, num_sms: int) -> "GPUConfig":
        """A copy of this config with a different SM count (MPS partition)."""
        if num_sms < 1:
            raise ConfigurationError("num_sms must be >= 1")
        return replace(
            self,
            name=f"{self.name}-{num_sms}sm",
            num_sms=num_sms,
        )


# Accel-Sim retires on the order of tens of thousands of warp instructions
# per second; at the ~hundreds-of-IPC rates of these workloads that is a
# few tens of simulated cycles per wall-clock second.  This single constant
# reproduces the ms->hours and seconds->centuries magnitudes of Figure 1.
_ACCEL_SIM_RATE = 25.0

VOLTA_V100 = GPUConfig(
    name="V100",
    generation="volta",
    num_sms=80,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    registers_per_sm=65_536,
    shared_mem_per_sm=96 * 1024,
    warp_size=32,
    issue_rate_per_sm=4.0,
    tensor_speedup=8.0,
    core_clock_ghz=1.455,
    l2_size_bytes=6 * 1024 * 1024,
    dram_bandwidth_gbps=900.0,
    dram_capacity_gb=32.0,
    sim_cycles_per_second=_ACCEL_SIM_RATE,
)

TURING_RTX2060 = GPUConfig(
    name="RTX2060",
    generation="turing",
    num_sms=30,
    max_threads_per_sm=1024,
    max_blocks_per_sm=16,
    registers_per_sm=65_536,
    shared_mem_per_sm=64 * 1024,
    warp_size=32,
    issue_rate_per_sm=4.0,
    tensor_speedup=8.0,
    core_clock_ghz=1.680,
    l2_size_bytes=3 * 1024 * 1024,
    dram_bandwidth_gbps=336.0,
    dram_capacity_gb=6.0,
    sim_cycles_per_second=_ACCEL_SIM_RATE,
)

AMPERE_RTX3070 = GPUConfig(
    name="RTX3070",
    generation="ampere",
    num_sms=46,
    max_threads_per_sm=1536,
    max_blocks_per_sm=16,
    registers_per_sm=65_536,
    shared_mem_per_sm=100 * 1024,
    warp_size=32,
    issue_rate_per_sm=4.0,
    tensor_speedup=10.0,
    core_clock_ghz=1.725,
    l2_size_bytes=4 * 1024 * 1024,
    dram_bandwidth_gbps=448.0,
    dram_capacity_gb=8.0,
    sim_cycles_per_second=_ACCEL_SIM_RATE,
)

# Extension beyond the paper's three cards: the datacenter Ampere part,
# for users projecting selections onto an A100-class machine.
AMPERE_A100 = GPUConfig(
    name="A100",
    generation="ampere",
    num_sms=108,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    registers_per_sm=65_536,
    shared_mem_per_sm=164 * 1024,
    warp_size=32,
    issue_rate_per_sm=4.0,
    tensor_speedup=16.0,
    core_clock_ghz=1.410,
    l2_size_bytes=40 * 1024 * 1024,
    dram_bandwidth_gbps=1_555.0,
    dram_capacity_gb=40.0,
    sim_cycles_per_second=_ACCEL_SIM_RATE,
)

GENERATIONS: dict[str, GPUConfig] = {
    "volta": VOLTA_V100,
    "turing": TURING_RTX2060,
    "ampere": AMPERE_RTX3070,
}

#: Every known config, including extensions not in the paper's evaluation.
ALL_GPUS: tuple[GPUConfig, ...] = (
    VOLTA_V100,
    TURING_RTX2060,
    AMPERE_RTX3070,
    AMPERE_A100,
)


def volta_v100_half_sms() -> GPUConfig:
    """The Figure-10 configuration: a V100 restricted to 40 of 80 SMs."""
    return VOLTA_V100.with_sms(VOLTA_V100.num_sms // 2)


def get_gpu(identifier: str) -> GPUConfig:
    """Look up a GPU by generation ("volta") or by name ("V100")."""
    key = identifier.lower()
    if key in GENERATIONS:
        return GENERATIONS[key]
    for config in ALL_GPUS:
        if config.name.lower() == key:
            return config
    raise ConfigurationError(f"unknown GPU identifier: {identifier!r}")
