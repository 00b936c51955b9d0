"""Cycle-level application simulator (the Accel-Sim stand-in).

Wraps the per-kernel discrete-event engine with

* a deterministic per-kernel *modeling error* — real simulators disagree
  with silicon by a kernel-dependent factor, and the whole point of the
  paper's Figure-8 comparison is how sampling errors compose with that
  baseline error.  The bias depends only on the kernel spec (never on the
  GPU config), so relative-accuracy studies across architectures behave
  the way Section 5.3 reports;
* memoization of full-kernel runs keyed on (spec, grid) — identical
  dynamic instances of one kernel produce identical simulations;
* application-level accounting: estimated cycles versus simulation cost.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.architectures import GPUConfig
from repro.gpu.kernels import KernelLaunch, group_by_kernel
from repro.obs import obs_count, obs_span
from repro.sim.engine import (
    DEFAULT_WINDOW_CYCLES,
    KernelSimResult,
    StopMonitor,
    WindowSample,
    simulate_kernel,
)
from repro.sim.parallel import (
    CHUNKS_PER_WORKER,
    ExecutionBackend,
    chunked,
    resolve_backend,
    simulate_batch_task,
)
from repro.sim.perfmodel import KERNEL_LAUNCH_OVERHEAD
from repro.sim.stats import AppRunResult, KernelRecord

__all__ = ["ModelErrorConfig", "Simulator", "kernel_bias_factor"]

_BIAS_SALT = 0x5151_DEAD_BEEF


def _behavior_bucket_hash(spec) -> int:
    """Coarse behavioural identity of a kernel spec.

    Two kernels that land in the same bucket — same order of magnitude of
    per-thread work, similar memory intensity, divergence and footprint —
    exercise the same simulator code paths and therefore share its
    modeling error.
    """
    mix = spec.mix
    bucket = (
        int(round(np.log10(max(mix.per_thread_total, 1.0)) * 2)),
        int(round(mix.memory_fraction * 5)),
        spec.uses_tensor_cores,
        int(round(spec.divergence_efficiency * 4)),
        int(round(np.log10(max(spec.working_set_bytes, 1.0)))),
        int(round(spec.sectors_per_global_access / 8.0)),
    )
    import zlib

    return zlib.crc32(repr(bucket).encode("utf-8"))


@dataclass(frozen=True)
class ModelErrorConfig:
    """Shape of the simulator's per-kernel error versus silicon.

    Simulator error is *systematic by kernel behaviour*: a simulator that
    mis-models coalescing mispredicts every scatter-heavy kernel the same
    way.  So the bias is drawn per behaviour bucket (work magnitude,
    memory intensity, divergence, tensor-core use...) with a log-normal
    whose sigma is itself bucket-drawn from [sigma_min, sigma_max] — some
    behaviours are modelled well, some poorly (the paper's sgemm shows
    154% error) — plus a small per-spec idiosyncratic jitter
    (``spec_sigma``).  Kernels PKS would group together therefore share
    nearly the same bias, which is why sampled simulation errors track
    full-simulation errors in the paper.

    ``enabled=False`` makes the simulator silicon-faithful, which tests
    use to isolate sampling error from modeling error.
    """

    enabled: bool = True
    sigma_min: float = 0.15
    sigma_max: float = 0.85
    spec_sigma: float = 0.05
    seed_salt: int = _BIAS_SALT

    def __post_init__(self) -> None:
        if self.sigma_min < 0 or self.sigma_max < self.sigma_min:
            raise ConfigurationError("require 0 <= sigma_min <= sigma_max")
        if self.spec_sigma < 0:
            raise ConfigurationError("spec_sigma must be >= 0")


def kernel_bias_factor(spec, model_error: "ModelErrorConfig") -> float:
    """The deterministic modeling-error bias one kernel spec carries.

    Pure function of (spec, model-error config): bucket-level
    behavioural bias times a small per-spec jitter, exactly the factor
    :meth:`Simulator.kernel_bias` applies to block durations.  Exposed
    at module level so the analytical prediction tier can price kernels
    with the *same* simulator bias without instantiating an event loop.
    """
    if not model_error.enabled:
        return 1.0
    return _bias_factor(spec.signature(), _behavior_bucket_hash(spec), model_error)


@functools.lru_cache(maxsize=4096)
def _bias_factor(
    signature: int, bucket_hash: int, model_error: ModelErrorConfig
) -> float:
    """:func:`kernel_bias_factor`, memoized on what it reads of the spec.

    Keyed on the signature rather than the spec: specs that compare
    equal can still carry different signatures (``working_set_bytes``
    of ``2**24`` and ``2.0**24``), and each must keep its own bias.
    """
    bucket_rng = np.random.default_rng(
        (bucket_hash ^ model_error.seed_salt) % 2**63
    )
    sigma = bucket_rng.uniform(model_error.sigma_min, model_error.sigma_max)
    bucket_bias = float(bucket_rng.lognormal(mean=0.0, sigma=sigma))
    spec_rng = np.random.default_rng(
        (signature ^ model_error.seed_salt) % 2**63
    )
    jitter = float(spec_rng.lognormal(mean=0.0, sigma=model_error.spec_sigma))
    return bucket_bias * jitter


class Simulator:
    """Per-GPU cycle-level simulator with deterministic modeling error."""

    def __init__(
        self,
        gpu: GPUConfig,
        *,
        model_error: ModelErrorConfig | None = None,
        window_cycles: float = DEFAULT_WINDOW_CYCLES,
        backend: ExecutionBackend | str | int | None = None,
        intra_jobs: ExecutionBackend | str | int | None = None,
    ) -> None:
        if backend is not None and intra_jobs is not None:
            raise ConfigurationError(
                "pass either backend or intra_jobs, not both: at the "
                "simulator level they name the same worker pool"
            )
        if not (math.isfinite(window_cycles) and window_cycles > 0):
            raise ConfigurationError(
                f"window_cycles must be positive and finite, got {window_cycles!r}"
            )
        self.gpu = gpu
        self.model_error = model_error if model_error is not None else ModelErrorConfig()
        self.window_cycles = window_cycles
        # At this level intra_jobs is an alias for backend: a Simulator's
        # pool only ever parallelizes *within* one app run (kernel-stream
        # prefetch and block sharding), never across cells.
        self.backend = resolve_backend(backend if backend is not None else intra_jobs)
        self._bias_cache: dict[int, float] = {}
        self._full_run_cache: dict[tuple[int, int], KernelSimResult] = {}

    def kernel_bias(self, launch: KernelLaunch) -> float:
        """The simulator's deterministic cycle bias for this kernel spec.

        Bucket-level (behavioural) bias times a small per-spec jitter;
        independent of the GPU config so relative-accuracy studies see a
        consistent simulator (Section 5.3).
        """
        if not self.model_error.enabled:
            return 1.0
        signature = launch.spec.signature()
        cached = self._bias_cache.get(signature)
        if cached is None:
            cached = kernel_bias_factor(launch.spec, self.model_error)
            self._bias_cache[signature] = cached
        return cached

    def memoized_kernel_cycles(self) -> dict[tuple[int, int], float]:
        """Simulated cycles of every full kernel run memoized so far,
        keyed by (spec signature, grid blocks).

        The prediction tier's observe path reads this right after a
        computed full run to harvest per-kernel ground truth without
        re-simulating anything.
        """
        return {
            key: result.cycles for key, result in self._full_run_cache.items()
        }

    def run_kernel(
        self,
        launch: KernelLaunch,
        *,
        monitor: StopMonitor | Callable[[WindowSample], bool] | None = None,
        collect_series: bool = False,
        window_cycles: float | None = None,
    ) -> KernelSimResult:
        """Simulate one launch; full runs (no monitor/series) are memoized."""
        plain = monitor is None and not collect_series
        key = (launch.spec.signature(), launch.grid_blocks)
        if plain:
            cached = self._full_run_cache.get(key)
            if cached is not None:
                obs_count("sim.kernel_memo_hits")
                return cached
        obs_count("sim.kernels_simulated")
        result = simulate_kernel(
            launch,
            self.gpu,
            bias=self.kernel_bias(launch),
            window_cycles=(
                self.window_cycles if window_cycles is None else window_cycles
            ),
            monitor=monitor,
            collect_series=collect_series,
            # Plain full runs may shard one huge kernel's blocks across
            # the pool; the engine recombines in fixed chunk order, so
            # the memoized result is bitwise independent of the backend.
            intra=self.backend if plain and self.backend.jobs > 1 else None,
        )
        if plain:
            self._full_run_cache[key] = result
        return result

    def run_full(
        self,
        workload_name: str,
        launches: Iterable[KernelLaunch],
        *,
        keep_records: bool = False,
        max_simulated_cycles: float | None = None,
    ) -> AppRunResult:
        """Full (unsampled) simulation of an application.

        ``max_simulated_cycles`` lets callers enforce a simulation budget
        — the way practitioners abandon full runs that would take months.
        Launches beyond the budget are *not* simulated and do not
        contribute; the result then under-reports the application.

        With a parallel backend, distinct kernels are simulated across
        worker processes first and the accumulation below then runs over
        the prefetched results in launch order — bit-identical to the
        serial path.  A simulation budget forces the serial path: which
        launches fall inside the budget depends on the results of the
        ones before them.
        """
        if not isinstance(launches, Sequence):
            launches = list(launches)
        with obs_span(
            "sim.run_full",
            workload=workload_name,
            gpu=self.gpu.name,
            launches=len(launches),
        ):
            if max_simulated_cycles is not None:
                return self._run_budgeted(
                    workload_name,
                    launches,
                    keep_records=keep_records,
                    max_simulated_cycles=max_simulated_cycles,
                )
            # A launch stream is dominated by repeats of few distinct
            # kernels, so group it up front (first-occurrence order) and
            # accumulate each distinct kernel's contribution once.  The
            # accumulation order is fixed by the stream itself — never by
            # the backend — so serial and sharded runs agree bitwise.
            counts, reps = group_by_kernel(launches)
            obs_count("sim.intra.stream_groups", len(reps))
            if self.backend.jobs > 1:
                self._prefetch_parallel(reps)
            results = {key: self.run_kernel(rep) for key, rep in reps.items()}
            total_cycles = 0.0
            total_insts = 0.0
            total_bytes = 0.0
            simulated = 0.0
            for key in reps:
                result = results[key]
                count = counts[key]
                total_cycles += count * (result.cycles + KERNEL_LAUNCH_OVERHEAD)
                total_insts += count * result.warp_instructions
                total_bytes += count * result.dram_bytes
                simulated += count * result.cycles
            records: list[KernelRecord] = []
            if keep_records:
                for launch in launches:
                    key = (launch.spec.signature(), launch.grid_blocks)
                    result = results[key]
                    records.append(
                        KernelRecord(
                            launch_id=launch.launch_id,
                            name=launch.spec.name,
                            cycles=result.cycles,
                            instructions=result.warp_instructions,
                            dram_bytes=result.dram_bytes,
                            simulated_cycles=result.cycles,
                        )
                    )
            obs_count("sim.simulated_cycles", simulated)
        return AppRunResult(
            workload=workload_name,
            gpu=self.gpu,
            method="full_sim",
            total_cycles=total_cycles,
            total_instructions=total_insts,
            total_dram_bytes=total_bytes,
            simulated_cycles=simulated,
            kernel_records=tuple(records),
        )

    def _run_budgeted(
        self,
        workload_name: str,
        launches: Sequence[KernelLaunch],
        *,
        keep_records: bool,
        max_simulated_cycles: float,
    ) -> AppRunResult:
        """Sequential accumulation under a simulation budget.

        Which launches fall inside the budget depends on the cycles of
        the launches before them, so this path stays a per-launch loop.
        """
        total_cycles = 0.0
        total_insts = 0.0
        total_bytes = 0.0
        simulated = 0.0
        records: list[KernelRecord] = []
        for launch in launches:
            if simulated >= max_simulated_cycles:
                break
            result = self.run_kernel(launch)
            total_cycles += result.cycles + KERNEL_LAUNCH_OVERHEAD
            total_insts += result.warp_instructions
            total_bytes += result.dram_bytes
            simulated += result.cycles
            if keep_records:
                records.append(
                    KernelRecord(
                        launch_id=launch.launch_id,
                        name=launch.spec.name,
                        cycles=result.cycles,
                        instructions=result.warp_instructions,
                        dram_bytes=result.dram_bytes,
                        simulated_cycles=result.cycles,
                    )
                )
        obs_count("sim.simulated_cycles", simulated)
        return AppRunResult(
            workload=workload_name,
            gpu=self.gpu,
            method="full_sim",
            total_cycles=total_cycles,
            total_instructions=total_insts,
            total_dram_bytes=total_bytes,
            simulated_cycles=simulated,
            kernel_records=tuple(records),
        )

    def _prefetch_parallel(self, reps: dict[tuple[int, int], KernelLaunch]) -> None:
        """Fan distinct, not-yet-memoized kernels out across the backend.

        ``reps`` is :func:`group_by_kernel`'s first launch per kernel.
        Per-kernel simulation is a pure function of (spec, grid, GPU,
        model error), so workers compute exactly what the serial path
        would have and the results land in the same memo table the
        serial accumulation reads.
        """
        pending = {
            key: launch
            for key, launch in reps.items()
            if key not in self._full_run_cache
        }
        if len(pending) < 2:
            return
        with obs_span("sim.prefetch", distinct_kernels=len(pending)):
            batches = chunked(
                list(pending.values()), self.backend.jobs * CHUNKS_PER_WORKER
            )
            payloads = [
                (self.gpu, self.model_error, self.window_cycles, tuple(batch))
                for batch in batches
            ]
            for results in self.backend.map_tasks(simulate_batch_task, payloads):
                for result in results:
                    key = (
                        result.launch.spec.signature(),
                        result.launch.grid_blocks,
                    )
                    self._full_run_cache[key] = result
