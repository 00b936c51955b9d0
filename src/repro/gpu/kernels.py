"""Kernel descriptions: instruction mixes, specs and launches.

A :class:`KernelSpec` captures everything the performance model and the
profilers need to know about one compiled kernel; a :class:`KernelLaunch`
is one dynamic instance of a spec with a concrete grid.  Workload
generators emit sequences of launches; the simulator, the silicon model
and the profilers all consume them.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from repro.errors import WorkloadError

__all__ = [
    "NO_ANNOTATIONS",
    "InstructionMix",
    "KernelLaunch",
    "KernelSpec",
    "group_by_kernel",
]


@dataclass(frozen=True)
class InstructionMix:
    """Per-thread dynamic instruction counts for one kernel.

    All counts are averages per thread over the kernel's lifetime, which
    is what the Nsight ``smsp__inst_executed*`` counters divide down to.
    """

    fp_ops: float = 0.0
    int_ops: float = 0.0
    tensor_ops: float = 0.0
    global_loads: float = 0.0
    global_stores: float = 0.0
    local_loads: float = 0.0
    shared_loads: float = 0.0
    shared_stores: float = 0.0
    global_atomics: float = 0.0
    control_ops: float = 0.0

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise WorkloadError(f"instruction count {name} must be >= 0")
        if self.per_thread_total <= 0:
            raise WorkloadError("an instruction mix must contain work")

    @property
    def per_thread_total(self) -> float:
        """Total dynamic instructions executed per thread."""
        return (
            self.fp_ops
            + self.int_ops
            + self.tensor_ops
            + self.global_loads
            + self.global_stores
            + self.local_loads
            + self.shared_loads
            + self.shared_stores
            + self.global_atomics
            + self.control_ops
        )

    @property
    def memory_fraction(self) -> float:
        """Fraction of instructions that touch global or local memory."""
        memory = (
            self.global_loads
            + self.global_stores
            + self.local_loads
            + self.global_atomics
        )
        return memory / self.per_thread_total

    def scaled(self, factor: float) -> "InstructionMix":
        """A mix with every count multiplied by ``factor`` (> 0)."""
        if factor <= 0:
            raise WorkloadError("scale factor must be positive")
        return InstructionMix(
            **{name: value * factor for name, value in self.__dict__.items()}
        )


@dataclass(frozen=True)
class KernelSpec:
    """Static description of one compiled GPU kernel.

    Attributes
    ----------
    name:
        Mangled-ish kernel name as a profiler would report it.
    threads_per_block:
        CTA size in threads.
    mix:
        Per-thread instruction mix.
    regs_per_thread / shared_mem_per_block:
        Occupancy-limiting resources.
    divergence_efficiency:
        Average active threads per issued warp instruction divided by the
        warp size; 1.0 means no control divergence.
    sectors_per_global_access:
        Average 32-byte sectors touched per warp-level global access;
        4 is perfectly coalesced 4-byte accesses, 32 is fully scattered.
    l2_locality:
        Fraction of sector traffic that hits in an infinitely large L2;
        the memory model degrades it by the footprint/capacity ratio.
    working_set_bytes:
        Approximate data footprint of one launch.
    duration_cv:
        Coefficient of variation of per-block durations — the knob that
        separates regular kernels (ATAX-like) from irregular ones
        (BFS-like).
    phase_drift:
        Relative duration trend from the first to the last block of the
        grid (+0.5 means late blocks run 50% longer), modelling
        intra-kernel phase behaviour.
    cold_start_factor:
        Relative slowdown of the first wave of blocks (cold caches, TLB
        and instruction-fetch warm-up); the source of the IPC ramp-up
        phase PKP must wait out.
    uses_tensor_cores:
        Whether tensor_ops execute at the tensor-core rate.
    """

    name: str
    threads_per_block: int
    mix: InstructionMix
    regs_per_thread: int = 32
    shared_mem_per_block: int = 0
    divergence_efficiency: float = 1.0
    sectors_per_global_access: float = 4.0
    l2_locality: float = 0.5
    working_set_bytes: float = 16 * 1024 * 1024
    duration_cv: float = 0.05
    phase_drift: float = 0.0
    cold_start_factor: float = 0.2
    uses_tensor_cores: bool = False

    def __post_init__(self) -> None:
        if self.threads_per_block < 1 or self.threads_per_block > 1024:
            raise WorkloadError("threads_per_block must be in [1, 1024]")
        if not 0.0 < self.divergence_efficiency <= 1.0:
            raise WorkloadError("divergence_efficiency must be in (0, 1]")
        if not 1.0 <= self.sectors_per_global_access <= 32.0:
            raise WorkloadError("sectors_per_global_access must be in [1, 32]")
        if not 0.0 <= self.l2_locality <= 1.0:
            raise WorkloadError("l2_locality must be in [0, 1]")
        if self.working_set_bytes <= 0:
            raise WorkloadError("working_set_bytes must be positive")
        if self.duration_cv < 0:
            raise WorkloadError("duration_cv must be >= 0")
        if self.cold_start_factor < 0:
            raise WorkloadError("cold_start_factor must be >= 0")
        if self.regs_per_thread < 1:
            raise WorkloadError("regs_per_thread must be >= 1")
        if self.shared_mem_per_block < 0:
            raise WorkloadError("shared_mem_per_block must be >= 0")

    def signature(self) -> int:
        """Stable 63-bit hash of the spec's behavioural identity.

        Seeds everything stochastic about the kernel (block-duration
        variation, the simulator's per-kernel modeling bias) so results
        are reproducible and independent of launch order or GPU.

        Memoized per instance: million-launch streams group launches by
        signature, and a sha256 per launch would dominate that loop.
        """
        cached = getattr(self, "_signature_memo", None)
        if cached is not None:
            return cached
        payload = "|".join(
            str(part)
            for part in (
                self.name,
                self.threads_per_block,
                self.regs_per_thread,
                self.shared_mem_per_block,
                round(self.divergence_efficiency, 6),
                round(self.sectors_per_global_access, 6),
                round(self.l2_locality, 6),
                round(self.working_set_bytes, 3),
                round(self.duration_cv, 6),
                round(self.phase_drift, 6),
                round(self.cold_start_factor, 6),
                self.uses_tensor_cores,
                round(self.mix.per_thread_total, 6),
                round(self.mix.memory_fraction, 9),
            )
        )
        digest = hashlib.sha256(payload.encode("utf-8")).digest()
        value = int.from_bytes(digest[:8], "little") >> 1
        # Frozen dataclass: route the memo write around __setattr__.
        object.__setattr__(self, "_signature_memo", value)
        return value

    def with_mix(self, mix: InstructionMix) -> "KernelSpec":
        """A copy of this spec with a different instruction mix."""
        return replace(self, mix=mix)


class _NoAnnotations(dict):
    """The read-only empty annotation mapping every unannotated launch shares.

    A ``dict``, so it compares equal to ``{}`` and reads and serializes
    like one; every write raises :class:`TypeError`, so no launch can
    change another's annotations through it.  Copies and pickles resolve
    to the one module-level instance.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("unannotated launches share a read-only empty mapping")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self) -> str:
        # The global's name: pickle and copy resolve it to the singleton.
        return "NO_ANNOTATIONS"


#: The annotations of every launch that has none (see :class:`KernelLaunch`).
NO_ANNOTATIONS = _NoAnnotations()


@dataclass(frozen=True, slots=True)
class KernelLaunch:
    """One dynamic kernel instance: a spec plus a concrete grid.

    Attributes
    ----------
    spec:
        The static kernel description.
    grid_blocks:
        Number of thread blocks in the launch.
    launch_id:
        Chronological position within the application (0-based); PKS
        selects the *first chronological* kernel of each group, so this
        ordering is semantically load-bearing.
    nvtx:
        Optional PyProf-style annotations (layer name, tensor dims) used
        by the lightweight profiler on MLPerf workloads.  A launch without
        any holds the shared read-only :data:`NO_ANNOTATIONS`: a stream
        of a million launches then pays for no empty dict per launch.

    Slotted, so a launch carries no ``__dict__`` and takes no new
    attributes.
    """

    spec: KernelSpec
    grid_blocks: int
    launch_id: int
    nvtx: dict[str, str] = field(default_factory=lambda: NO_ANNOTATIONS)

    def __post_init__(self) -> None:
        if self.grid_blocks < 1:
            raise WorkloadError("grid_blocks must be >= 1")
        if self.launch_id < 0:
            raise WorkloadError("launch_id must be >= 0")
        if not self.nvtx and self.nvtx is not NO_ANNOTATIONS:
            object.__setattr__(self, "nvtx", NO_ANNOTATIONS)

    @property
    def total_threads(self) -> int:
        return self.grid_blocks * self.spec.threads_per_block

    @property
    def total_warps(self) -> float:
        return self.total_threads / 32.0

    @property
    def thread_instructions(self) -> float:
        """Total dynamic thread-level instructions in the launch."""
        return self.total_threads * self.spec.mix.per_thread_total

    @property
    def warp_instructions(self) -> float:
        """Total issued warp-level instructions, accounting for divergence.

        With divergence efficiency ``e``, each issued warp instruction
        retires ``32 * e`` thread-level instructions on average.
        """
        return self.thread_instructions / (32.0 * self.spec.divergence_efficiency)


def group_by_kernel(
    launches: Iterable[KernelLaunch],
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], KernelLaunch]]:
    """Launch counts and first launches per ``(spec signature, grid)``.

    Both dicts hold the groups in order of first occurrence.  The stream
    is keyed by spec identity first, so each distinct spec object's
    signature is read once rather than once per launch; distinct spec
    objects with one signature then merge in the same order, so counts
    and first launches are those of a per-launch signature walk.
    """
    # Each group keeps its first launch, and so its spec, alive: no id
    # can be reused by another spec while the walk runs.
    by_spec: dict[tuple[int, int], list] = {}
    for launch in launches:
        key = (id(launch.spec), launch.grid_blocks)
        group = by_spec.get(key)
        if group is None:
            by_spec[key] = [launch, 1]
        else:
            group[1] += 1
    counts: dict[tuple[int, int], int] = {}
    firsts: dict[tuple[int, int], KernelLaunch] = {}
    for launch, count in by_spec.values():
        key = (launch.spec.signature(), launch.grid_blocks)
        if key in counts:
            counts[key] += count
        else:
            counts[key] = count
            firsts[key] = launch
    return counts, firsts
