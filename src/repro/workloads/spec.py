"""Workload specifications and the 147-workload registry.

A :class:`WorkloadSpec` names one benchmark (one row of the paper's
Table 4), knows how to build its kernel-launch list deterministically, and
records the metadata the harness needs: which suite it belongs to, the
launch-count ``scale`` factor applied by the synthetic generator (see
DESIGN.md §4), whether full simulation is tractable, how much device
memory it needs (MLPerf does not fit on the RTX 2060), and any known
quirks (the paper excludes myocyte and DeepBench conv-training runs whose
kernel counts mismatch between profiling and tracing runs).
"""

from __future__ import annotations

import re
import threading
import zlib
from array import array
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from random import Random

from repro.errors import WorkloadError
from repro.gpu.architectures import GPUConfig
from repro.gpu.kernels import KernelLaunch, KernelSpec
from repro.workloads.table import LaunchTable, _RowInterner

__all__ = [
    "WorkloadSpec",
    "register",
    "get_workload",
    "iter_workloads",
    "suite_names",
    "workload_names",
    "clear_registry",
    "is_builtin",
]

Builder = Callable[[], Sequence[KernelLaunch]]


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload.

    Attributes
    ----------
    name / suite:
        Identifiers; ``name`` is unique across the registry.
    builder:
        Zero-argument callable producing the deterministic launch list
        (the suites return a :class:`~repro.workloads.LaunchTable`).
    scale:
        Launch-count downscale applied by the generator: the paper-sized
        workload launches ``scale`` times more kernels than ``build()``
        returns.  Time projections multiply it back in.
    completable:
        Whether full simulation finishes in tolerable time (the paper's
        Figures 7/8 include only completable workloads).
    min_memory_gb:
        Device-memory footprint; used to exclude MLPerf from the 6 GB
        RTX 2060.
    quirks:
        Known anomalies, e.g. ``"kernel_mismatch"`` for workloads whose
        profiled and traced runs launch different kernel counts.
    variant_builders:
        Per-generation builders for workloads whose execution genuinely
        differs across GPUs (cuDNN's runtime algorithm selection).
    """

    name: str
    suite: str
    builder: Builder
    scale: float = 1.0
    completable: bool = True
    min_memory_gb: float = 2.0
    quirks: tuple[str, ...] = ()
    variant_builders: dict[str, Builder] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scale < 1.0:
            raise WorkloadError("scale must be >= 1")
        if self.min_memory_gb <= 0:
            raise WorkloadError("min_memory_gb must be positive")

    def builder_key(self, generation: str | None = None) -> str:
        """Name of the builder :meth:`builder_for` picks: ``generation``
        when it has a variant builder, else ``"*"`` (the shared one)."""
        if generation is not None and generation in self.variant_builders:
            return generation
        return "*"

    def builder_for(self, generation: str | None = None) -> Builder:
        """The builder that produces the launch list on ``generation``.

        Most workloads run identically on every generation and share
        :attr:`builder`; the few with ``variant_builders`` (cuDNN
        autotuned ones) build a different list on the named generation —
        the source of the paper's Turing conv-training anomaly.  Two
        generations with the same builder get the same launch list.
        """
        key = self.builder_key(generation)
        return self.builder if key == "*" else self.variant_builders[key]

    def build(self, generation: str | None = None) -> LaunchTable:
        """Build the launch table, optionally for a specific GPU generation.

        A builder that returns a plain launch list is wrapped with
        :meth:`LaunchTable.from_launches`, which keeps its launch ids.
        """
        return LaunchTable.from_launches(self.builder_for(generation)())

    def fits_on(self, gpu: GPUConfig) -> bool:
        """Whether the workload's footprint fits in the GPU's memory."""
        return gpu.dram_capacity_gb >= self.min_memory_gb

    @property
    def excluded(self) -> bool:
        """Workloads the paper reports as "*" (kernel-count mismatches)."""
        return "kernel_mismatch" in self.quirks


_REGISTRY: dict[str, WorkloadSpec] = {}

#: The specs the suite modules registered, and the near duplicates
#: derived from them, by name: the built-in corpus, whose launch lists
#: are a function of this package's sources alone.
_BUILTIN: dict[str, WorkloadSpec] = {}


def register(spec: WorkloadSpec) -> WorkloadSpec:
    """Add a workload to the global registry (name must be unique)."""
    if spec.name in _REGISTRY:
        raise WorkloadError(f"workload {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_workload(name: str) -> WorkloadSpec:
    """Look a workload up by name.

    ``<base>~nd<digits>`` names resolve to deterministic **near
    duplicates** of a registered base workload: the same kernel stream
    with every spec's instruction mix and grid jittered by a few percent
    (seeded from the derived name, so every process builds the identical
    variant).  They model the recompiled-or-retraced resubmissions the
    semantic cache exists for — behaviourally adjacent, but a genuine
    digest miss.  Derived specs are cached outside the registry, so
    :func:`iter_workloads` and ``pka list`` are unaffected.
    """
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        derived = _derived_workload(name)
        if derived is not None:
            return derived
        raise WorkloadError(f"unknown workload {name!r}") from exc


def is_builtin(spec: WorkloadSpec) -> bool:
    """Whether ``spec`` is the built-in corpus's own spec object (or a
    near duplicate derived from one) — not a spec registered, replaced
    or constructed at runtime."""
    return _BUILTIN.get(spec.name) is spec


def iter_workloads(suite: str | None = None) -> Iterator[WorkloadSpec]:
    """Iterate registered workloads, optionally restricted to one suite."""
    _ensure_loaded()
    for spec in _REGISTRY.values():
        if suite is None or spec.suite == suite:
            yield spec


def suite_names() -> list[str]:
    """All registered suite names, in first-seen order."""
    _ensure_loaded()
    seen: dict[str, None] = {}
    for spec in _REGISTRY.values():
        seen.setdefault(spec.suite, None)
    return list(seen)


def workload_names(suite: str | None = None) -> list[str]:
    """All registered workload names, optionally restricted to one suite."""
    return [spec.name for spec in iter_workloads(suite)]


_LOADED = False
_LOAD_LOCK = threading.Lock()


def clear_registry() -> None:
    """Empty the registry (test isolation helper); it reloads on next use."""
    global _LOADED
    with _LOAD_LOCK:
        _REGISTRY.clear()
        _DERIVED.clear()
        _BUILTIN.clear()
        _LOADED = False


# ---------------------------------------------------------------------------
# Near-duplicate derivation: <base>~nd<digits>.
# ---------------------------------------------------------------------------

#: Relative jitter applied to mixes and grids when deriving a near
#: duplicate.  Small enough that the variant stays in the base kernel's
#: behaviour regime, large enough that every spec signature (and hence
#: the content digest) changes.
ND_JITTER = 0.02

_ND_PATTERN = re.compile(r"^(?P<base>.+)~nd(?P<variant>\d+)$")

# Derived specs memoized outside _REGISTRY so the corpus-facing views
# (iter_workloads, suites, validation sweeps) never see them.
_DERIVED: dict[str, WorkloadSpec] = {}
_DERIVED_LOCK = threading.Lock()


def _jittered(rng: Random, value: float, spread: float = ND_JITTER) -> float:
    return value * (1.0 + spread * (2.0 * rng.random() - 1.0))


def _perturb_launches(
    launches: Sequence[KernelLaunch], derived_name: str
) -> LaunchTable:
    """Deterministically jitter a launch stream into a near duplicate.

    Each distinct kernel spec gets one mix-scale draw (so repeats of a
    kernel stay self-consistent, as a recompiled binary's would) and each
    launch gets an independent grid draw.  All draws come from one RNG
    seeded by the derived name, and launches are visited in stream order,
    so every process derives bit-identical variants.  The table keeps the
    base's annotation sets and launch ids; no launch object is built.
    """
    base = LaunchTable.from_launches(launches)
    rng = Random(zlib.crc32(f"{derived_name}/near-duplicate".encode("utf-8")))
    perturbed: dict[int, KernelSpec] = {}
    rows = _RowInterner()
    row_index = array("i")
    for spec, grid, items in map(base.shapes().__getitem__, base.row_index):
        signature = spec.signature()
        jittered = perturbed.get(signature)
        if jittered is None:
            jittered = spec.with_mix(spec.mix.scaled(max(0.5, _jittered(rng, 1.0))))
            perturbed[signature] = jittered
        grid = max(1, round(_jittered(rng, float(grid))))
        row_index.append(rows.row(jittered, grid, items))
    return rows.table(row_index, base.launch_ids)


def _derived_workload(name: str) -> WorkloadSpec | None:
    """Resolve a ``<base>~nd<digits>`` name, or None if it is not one."""
    match = _ND_PATTERN.match(name)
    if match is None:
        return None
    base_name = match.group("base")
    base = _REGISTRY.get(base_name)
    if base is None:
        # The base may itself be derivable (a~nd1~nd2 is rejected: one
        # level keeps digests and provenance simple).
        return None
    with _DERIVED_LOCK:
        cached = _DERIVED.get(name)
        if cached is None:

            def deriving(builder: Builder) -> Builder:
                return lambda: _perturb_launches(builder(), name)

            cached = WorkloadSpec(
                name=name,
                suite=base.suite,
                builder=deriving(base.builder),
                scale=base.scale,
                completable=base.completable,
                min_memory_gb=base.min_memory_gb,
                quirks=base.quirks,
                variant_builders={
                    generation: deriving(builder)
                    for generation, builder in base.variant_builders.items()
                },
            )
            _DERIVED[name] = cached
            if _BUILTIN.get(base_name) is base:
                _BUILTIN[name] = cached
    return cached


def _ensure_loaded() -> None:
    """Populate the registry from the suite modules on first access.

    Each suite module exposes ``build_suite() -> list[WorkloadSpec]``;
    importing is deferred to avoid a circular import at package load.
    Lock-guarded: the evaluation service hits first access from many
    request threads at once, and a double load would register every
    workload twice.
    """
    global _LOADED
    if _LOADED:
        return
    with _LOAD_LOCK:
        if _LOADED:
            return
        from repro.workloads import (
            cutlass,
            deepbench,
            mlperf,
            parboil,
            polybench,
            rodinia,
        )

        for module in (rodinia, parboil, polybench, cutlass, deepbench, mlperf):
            for spec in module.build_suite():
                _BUILTIN[spec.name] = register(spec)
        _LOADED = True
