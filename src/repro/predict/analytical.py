"""Analytical fast path: price an application without an event loop.

The discrete-event engine's per-kernel makespan is a deterministic
function of (kernel spec, grid): block durations are drawn from a
spec-seeded stream, stretched by phase drift, cold start and the
simulator's modeling bias, then folded over residency slots.  The
closed-form :func:`repro.sim.perfmodel.analytic_kernel_cycles` computes
the *expectation* of that makespan from the same occupancy × latency
arithmetic — so pricing every distinct (spec, grid) group at
``analytic_kernel_cycles × kernel_bias_factor`` and summing with the
per-launch overhead reproduces the DES total up to a per-kernel
**residual**: the gap between the realized stochastic makespan and its
extreme-value approximation.

That residual is what the prediction tiers must bound.  It is
idiosyncratic per kernel signature (re-seeding the duration stream moves
it) but its *scale* is systematic by behaviour: regular many-wave
kernels concentrate tightly around the closed form while small-grid or
straggler-dominated kernels scatter by tens of percent.  The
:class:`ResidualCalibration` here learns that scale online, keyed by the
same behaviour-bucket hash the simulator draws its modeling bias from —
kernels that share simulator code paths share residual dispersion.

Nothing in this module runs the event loop; pricing an MLPerf-scale app
costs one occupancy analysis per distinct kernel group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpu.architectures import GPUConfig
from repro.gpu.kernels import KernelLaunch, group_by_kernel
from repro.profiling.detailed import collect_counters
from repro.sim.perfmodel import (
    KERNEL_LAUNCH_OVERHEAD,
    analyze_kernel,
    analytic_kernel_cycles,
)
from repro.sim.simulator import (
    ModelErrorConfig,
    _behavior_bucket_hash,
    kernel_bias_factor,
)

__all__ = [
    "AppEstimate",
    "GroupEstimate",
    "ResidualCalibration",
    "price_app",
]

#: Dispersion inflation applied when a bucket has no samples and the
#: global maximum stands in.  An unseen behaviour bucket can scatter
#: wider than anything observed so far — the max of a few samples from
#: *other* buckets underestimates it, so the fallback pays a premium
#: until the bucket is observed directly.
_FALLBACK_INFLATION = 1.5


@dataclass(frozen=True)
class GroupEstimate:
    """One distinct (spec, grid) kernel group of an app, priced analytically.

    ``cycles`` / ``warp_instructions`` / ``dram_bytes`` are per launch;
    ``count`` repeats them over the stream.  ``counters`` is the group's
    Table-2 vector (the surrogate's feature input) and ``bucket`` the
    simulator behaviour-bucket hash (the calibration key).
    """

    signature: int
    grid_blocks: int
    bucket: int
    count: int
    cycles: float
    warp_instructions: float
    dram_bytes: float
    counters: tuple[float, ...]

    @property
    def cycle_mass(self) -> float:
        return self.count * self.cycles


@dataclass(frozen=True)
class AppEstimate:
    """Closed-form totals for one application on one GPU."""

    total_cycles: float
    total_instructions: float
    total_dram_bytes: float
    groups: tuple[GroupEstimate, ...]

    def shares(self) -> tuple[float, ...]:
        """Each group's fraction of the predicted kernel-cycle mass."""
        mass = sum(group.cycle_mass for group in self.groups)
        if mass <= 0:
            return tuple(0.0 for _ in self.groups)
        return tuple(group.cycle_mass / mass for group in self.groups)


def price_app(
    launches: list[KernelLaunch],
    gpu: GPUConfig,
    model_error: ModelErrorConfig,
) -> AppEstimate:
    """Price one application's launch stream analytically on ``gpu``.

    Per group: closed-form kernel cycles times the simulator's
    deterministic modeling bias (so the estimate targets what the DES
    would report, not silicon); instructions and DRAM bytes from the
    same shared perf model the engine integrates over — those two are
    exact, only cycles carry the stochastic-makespan residual.  Groups
    are :func:`~repro.gpu.kernels.group_by_kernel`'s, the simulator's
    full-run memo key, so analytical groups and DES ground-truth entries
    align one-to-one.
    """
    groups: list[GroupEstimate] = []
    total_cycles = 0.0
    total_insts = 0.0
    total_bytes = 0.0
    counts, reps = group_by_kernel(launches)
    for key, rep in reps.items():
        count = counts[key]
        perf = analyze_kernel(rep, gpu)
        bias = kernel_bias_factor(rep.spec, model_error)
        cycles = analytic_kernel_cycles(rep, gpu) * bias
        insts = perf.warp_insts_per_block * rep.grid_blocks
        dram = perf.memory.dram_bytes_per_block * rep.grid_blocks
        groups.append(
            GroupEstimate(
                signature=rep.spec.signature(),
                grid_blocks=rep.grid_blocks,
                bucket=_behavior_bucket_hash(rep.spec),
                count=count,
                cycles=cycles,
                warp_instructions=insts,
                dram_bytes=dram,
                counters=collect_counters(rep, gpu.generation),
            )
        )
        total_cycles += count * (cycles + KERNEL_LAUNCH_OVERHEAD)
        total_insts += count * insts
        total_bytes += count * dram
    return AppEstimate(
        total_cycles=total_cycles,
        total_instructions=total_insts,
        total_dram_bytes=total_bytes,
        groups=tuple(groups),
    )


class ResidualCalibration:
    """Online per-bucket dispersion of the closed-form-vs-DES residual.

    Every observed computed run contributes, per kernel group, the
    absolute log residual ``|log(DES cycles / analytic cycles)|``; the
    dispersion served back for a bucket is the *maximum* sample seen in
    that bucket (conservative by design — the bound contract admits no
    optimism), never below ``min_dispersion`` because a freshly
    re-seeded near-duplicate redraws its idiosyncratic part.  Buckets
    with no samples fall back to the *inflated* global maximum, and a
    completely cold calibration falls back to the caller's prior.
    """

    def __init__(self, max_samples: int = 256) -> None:
        self.max_samples = max_samples
        self._buckets: dict[int, list[float]] = {}
        self._all: list[float] = []
        self.apps_observed = 0

    def observe(self, bucket: int, log_residual: float) -> None:
        if not math.isfinite(log_residual):
            return
        sample = abs(log_residual)
        rows = self._buckets.setdefault(bucket, [])
        rows.append(sample)
        del rows[: max(0, len(rows) - self.max_samples)]
        self._all.append(sample)
        del self._all[: max(0, len(self._all) - self.max_samples)]

    def dispersion(
        self, bucket: int, prior: float, min_dispersion: float
    ) -> float:
        rows = self._buckets.get(bucket)
        if rows:
            return max(max(rows), min_dispersion)
        if self._all:
            return max(_FALLBACK_INFLATION * max(self._all), min_dispersion)
        return max(prior, min_dispersion)

    @property
    def samples(self) -> int:
        return len(self._all)

    # -- persistence ------------------------------------------------------

    def to_state(self) -> dict:
        return {
            "apps_observed": self.apps_observed,
            "buckets": {
                str(bucket): list(rows)
                for bucket, rows in self._buckets.items()
            },
            "all": list(self._all),
        }

    @classmethod
    def from_state(cls, state: dict, max_samples: int = 256) -> "ResidualCalibration":
        calibration = cls(max_samples=max_samples)
        try:
            calibration.apps_observed = int(state.get("apps_observed", 0))
            for bucket, rows in state.get("buckets", {}).items():
                calibration._buckets[int(bucket)] = [
                    float(v) for v in rows
                ][-max_samples:]
            calibration._all = [float(v) for v in state.get("all", [])][
                -max_samples:
            ]
        except (TypeError, ValueError):
            return cls(max_samples=max_samples)
        return calibration

    def merge(self, other: "ResidualCalibration") -> None:
        """Fold another process's samples in (used by stale-state reload)."""
        self.apps_observed = max(self.apps_observed, other.apps_observed)
        for bucket, rows in other._buckets.items():
            mine = self._buckets.setdefault(bucket, [])
            for sample in rows:
                if sample not in mine:
                    mine.append(sample)
            del mine[: max(0, len(mine) - self.max_samples)]
        for sample in other._all:
            if sample not in self._all:
                self._all.append(sample)
        del self._all[: max(0, len(self._all) - self.max_samples)]
