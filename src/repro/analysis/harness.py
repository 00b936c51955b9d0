"""Shared evaluation harness: every method on every workload, memoized.

The benchmark suite regenerates ten-plus tables and figures that all draw
on the same underlying runs (silicon truth per GPU, PKA characterization
on Volta, full/PKS/PKA/1B/TBPoint simulation).  The harness runs each of
those at most once per workload per GPU and caches the results, so the
whole benchmark suite costs one corpus sweep.

Two optional layers extend the in-memory memoization:

* an **on-disk run cache** (:class:`~repro.analysis.persistence.RunCache`)
  shared by every process that points at the same directory — a repeated
  benchmark sweep, a CLI session, a worker pool — keyed by a content
  digest of everything a cell depends on;
* an **execution backend** (:mod:`repro.sim.parallel`): per-kernel
  simulation inside each cell fans out through it, and
  :meth:`EvaluationHarness.evaluate_cells` dispatches whole independent
  workload × method × GPU cells across worker processes with a
  deterministic reduce.

Both layers are bit-exact: a cache hit or a parallel run returns exactly
what a cold serial run would have computed.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.persistence import (
    NullRunCache,
    RunCache,
    RunKey,
    fingerprint,
    launches_digest,
    resolve_run_cache,
    run_digest,
)
from repro.analysis.semcache import (
    SemanticCache,
    SemanticCacheConfig,
    TransferResult,
)
from repro.approx import ApproxTier
from repro.predict import PredictConfig, PredictTiers, PredictedResult
from repro.baselines.first_n import run_first_n_instructions
from repro.baselines.tbpoint import TBPointSelection, select_tbpoint, simulate_tbpoint
from repro.core.config import PKAConfig
from repro.core.pka import KernelSelection, PrincipalKernelAnalysis
from repro.core.validation import resolve_mode
from repro.errors import InputValidationError, ReproError, TaskFailureError
from repro.gpu.architectures import GENERATIONS, GPUConfig, VOLTA_V100, get_gpu
from repro.mlkit import ClusteringCapacityError
from repro.obs import get_tracer, obs_count, obs_span
from repro.profiling.detailed import DetailedProfiler
from repro.sim.faults import FaultPlan
from repro.sim.parallel import (
    ExecutionBackend,
    FaultPolicy,
    TaskFailure,
    TaskOutcome,
    _run_tasks_inline,
    resolve_backend,
)
from repro.sim.silicon import SiliconExecutor
from repro.sim.simulator import ModelErrorConfig, Simulator
from repro.sim.stats import AppRunResult
from repro.workloads.spec import WorkloadSpec, get_workload, iter_workloads
from repro.workloads.table import LaunchTable

__all__ = ["CellFailure", "WorkloadEvaluation", "EvaluationHarness"]

#: Sweep-manifest key (and ``harness.cells_<key>`` counter) of the cells
#: each approximate tier answered.
_APPROX_ANSWERS = (("transferred", TransferResult), ("predicted", PredictedResult))

#: Methods evaluate_cells understands, and whether they take a GPU.
_CELL_METHODS = (
    "silicon",
    "pks_silicon",
    "selection",
    "full_sim",
    "pks_sim",
    "pka_sim",
    "pka_sim_faithful",
    "first_1b",
    "tbpoint_sim",
)


@dataclass(frozen=True)
class CellFailure:
    """Structured record of one evaluation cell that could not be computed.

    Returned by :meth:`EvaluationHarness.evaluate_cells` (and
    :meth:`WorkloadEvaluation.compute_cell` with ``strict=False``) in
    place of the cell's result, so one poison cell no longer aborts — or
    discards — an entire workload × method × GPU sweep.  ``kind`` is the
    runtime's classification (``"exception"``, ``"timeout"`` or
    ``"crash"``); ``error_type``/``message`` describe the last
    underlying error; ``attempts`` counts how many tries the
    :class:`~repro.sim.parallel.FaultPolicy` allowed before quarantine.
    """

    workload: str
    method: str
    gpu: str | None
    kind: str
    error_type: str
    message: str
    attempts: int = 1

    @property
    def label(self) -> str:
        return cell_label(self.workload, self.method, self.gpu)

    def to_error(self) -> TaskFailureError:
        """The typed exception equivalent (what ``strict`` mode raises)."""
        return TaskFailure(
            index=-1,
            label=self.label,
            kind=self.kind,
            error_type=self.error_type,
            message=self.message,
            attempts=self.attempts,
        ).to_error()

    def to_record(self) -> dict:
        """A JSON-ready manifest row."""
        record = dataclasses.asdict(self)
        record["label"] = self.label
        return record


def cell_label(workload: str, method: str, gpu: GPUConfig | str | None) -> str:
    """Human-readable identity of one sweep cell, used in manifests."""
    name = gpu.name if isinstance(gpu, GPUConfig) else gpu
    return f"{workload}:{method}" + (f"@{name}" if name else "")


@dataclass
class WorkloadEvaluation:
    """Lazy bundle of every run for one workload.

    All accessors compute on first use and memoize under a typed
    :class:`~repro.analysis.persistence.RunKey`; the same key addresses
    the harness's on-disk cache, so the in-memory and persistent layers
    can never hold different results for one cell.  Methods that do not
    apply (full simulation of MLPerf, TBPoint beyond its capacity,
    silicon runs on GPUs the workload does not fit) return None.
    """

    spec: WorkloadSpec
    harness: "EvaluationHarness"
    # Launch tables and their digests, keyed by the builder that made them
    # (WorkloadSpec.builder_for), so generations that share a builder
    # build and hash one table.
    _launches: dict[Callable, LaunchTable] = field(default_factory=dict)
    _launch_digests: dict[Callable, str] = field(default_factory=dict)
    _cache: dict[RunKey, object] = field(default_factory=dict)

    # -- building blocks ------------------------------------------------

    def launches(self, generation: str = "volta") -> LaunchTable:
        """The launch table the workload runs on one GPU generation.

        Built once per distinct builder: every generation without a
        variant builder gets the *same* table.  The table is shared
        read-only by every cell of the workload.  Digesting it builds no
        launch object; the first cell that iterates it materialises the
        launches once, for every later cell.
        """
        builder = self.spec.builder_for(generation)
        if builder not in self._launches:
            self._launches[builder] = self.spec.build(generation)
        return self._launches[builder]

    def launch_digest(self, generation: str = "volta") -> str:
        """Memoized content digest of one generation's launch list."""
        builder = self.spec.builder_for(generation)
        if builder not in self._launch_digests:
            self._launch_digests[builder] = launches_digest(
                self.launches(generation)
            )
        return self._launch_digests[builder]

    def runs_on(self, gpu: GPUConfig) -> bool:
        if not self.spec.fits_on(gpu):
            return False
        return f"no_{gpu.generation}" not in self.spec.quirks

    def _memoized_run(
        self,
        key: RunKey,
        gpu: GPUConfig | None,
        generations: tuple[str, ...],
        compute: Callable[[], AppRunResult | None],
    ) -> AppRunResult | None:
        """Memory -> disk -> compute, storing the result in both layers.

        ``None`` results (the workload cannot run this cell) are
        memoized in memory only: they are trivial to re-derive and must
        not occupy the persistent store.

        A digest miss consults the enabled approximate tiers in order
        (semantic cache, then prediction) before computing.  An
        approximate answer is memoized **in memory only** — never
        written through ``put_run`` — so the exact digest cache can
        never be poisoned by it; a computed result is additionally
        *observed* by every tier so it can price future answers.
        """
        if key in self._cache:
            obs_count("harness.memo_hits")
            return self._cache[key]  # type: ignore[return-value]
        with obs_span(
            "harness.cell", cell=cell_label(self.spec.name, key.method, key.gpu)
        ) as span:
            digest = self.harness._cell_digest(self, key, gpu, generations)
            result = self.harness.run_cache.get_run(digest)
            if result is None:
                for tier in self.harness.approx_tiers:
                    answer = self.harness._approx_consult(
                        tier, self, key.method, gpu, digest
                    )
                    if answer is not None:
                        span.set(source=tier.source)
                        self._cache[key] = answer
                        return answer
                span.set(source="computed")
                result = compute()
                if result is not None:
                    self.harness.run_cache.put_run(digest, result)
                    self.harness._approx_observe(
                        self, key.method, gpu, digest, result
                    )
            else:
                span.set(source="disk_cache")
        self._cache[key] = result
        return result

    # -- silicon --------------------------------------------------------

    def silicon(self, generation: str = "volta") -> AppRunResult | None:
        """Full-application silicon truth on one GPU generation."""
        return self.silicon_on(GENERATIONS[generation])

    def silicon_on(self, gpu: GPUConfig) -> AppRunResult | None:
        """Silicon truth on an arbitrary GPU config (e.g. half-SM V100)."""
        key = RunKey("silicon", gpu.name)

        def compute() -> AppRunResult | None:
            if not self.runs_on(gpu):
                return None
            executor = self.harness.silicon(gpu)
            return executor.run(self.spec.name, self.launches(gpu.generation))

        return self._memoized_run(key, gpu, (gpu.generation,), compute)

    # -- characterization (always on Volta, per the paper) ---------------

    def selection(self) -> KernelSelection:
        key = RunKey("selection")
        if key in self._cache:
            obs_count("harness.memo_hits")
            return self._cache[key]  # type: ignore[return-value]
        with obs_span(
            "harness.cell", cell=cell_label(self.spec.name, "selection", None)
        ) as span:
            digest = self.harness._cell_digest(self, key, None, ("volta",))
            selection = self.harness.run_cache.get_selection(digest)
            if selection is None:
                span.set(source="computed")
                selection = self.harness.pka.characterize(
                    self.spec.name,
                    self.launches("volta"),
                    self.harness.silicon(VOLTA_V100),
                    scale=self.spec.scale,
                )
                self.harness.run_cache.put_selection(digest, selection)
            else:
                span.set(source="disk_cache")
        self._cache[key] = selection
        return selection

    def pks_silicon(self, generation: str = "volta") -> AppRunResult | None:
        """PKS priced on one generation's silicon (Volta-selected kernels)."""
        gpu = GENERATIONS[generation]
        key = RunKey("pks_silicon", gpu.name)

        def compute() -> AppRunResult | None:
            if not self.runs_on(gpu):
                return None
            executor = self.harness.silicon(gpu)
            return self.harness.pka.project_silicon(self.selection(), executor)

        return self._memoized_run(key, gpu, ("volta", generation), compute)

    # -- simulation -----------------------------------------------------

    def full_sim(self, gpu: GPUConfig | None = None) -> AppRunResult | None:
        gpu = gpu if gpu is not None else VOLTA_V100
        key = RunKey("full_sim", gpu.name)

        def compute() -> AppRunResult | None:
            if not self.spec.completable or not self.runs_on(gpu):
                return None
            simulator = self.harness.simulator(gpu)
            return simulator.run_full(self.spec.name, self.launches(gpu.generation))

        return self._memoized_run(key, gpu, (gpu.generation,), compute)

    def pks_sim(self, gpu: GPUConfig | None = None) -> AppRunResult | None:
        return self._sampled_sim("pks_sim", use_pkp=False, gpu=gpu)

    def pka_sim(self, gpu: GPUConfig | None = None) -> AppRunResult | None:
        return self._sampled_sim("pka_sim", use_pkp=True, gpu=gpu)

    def pka_sim_faithful(self) -> AppRunResult | None:
        """PKA on a *silicon-faithful* simulator (modeling error disabled).

        Its error versus silicon isolates the methodology's own
        *sampling* error — the decomposition behind the paper's claim
        that PKA's error stays "close to the baseline simulator".
        """
        key = RunKey("pka_sim_faithful", VOLTA_V100.name)

        def compute() -> AppRunResult | None:
            if "sim_kernel_mismatch" in self.spec.quirks:
                return None
            simulator = self.harness.faithful_simulator(VOLTA_V100)
            return self.harness.pka.simulate(
                self.selection(), simulator, use_pkp=True
            )

        return self._memoized_run(key, VOLTA_V100, ("volta",), compute)

    def _sampled_sim(
        self, label: str, use_pkp: bool, gpu: GPUConfig | None
    ) -> AppRunResult | None:
        gpu = gpu if gpu is not None else VOLTA_V100
        key = RunKey(label, gpu.name)

        def compute() -> AppRunResult | None:
            if "sim_kernel_mismatch" in self.spec.quirks or not self.runs_on(gpu):
                return None
            simulator = self.harness.simulator(gpu)
            return self.harness.pka.simulate(
                self.selection(), simulator, use_pkp=use_pkp
            )

        return self._memoized_run(key, gpu, ("volta", gpu.generation), compute)

    def first_1b(self, gpu: GPUConfig | None = None) -> AppRunResult | None:
        gpu = gpu if gpu is not None else VOLTA_V100
        key = RunKey("first_1b", gpu.name)

        def compute() -> AppRunResult | None:
            if not self.runs_on(gpu):
                return None
            simulator = self.harness.simulator(gpu)
            return run_first_n_instructions(
                self.spec.name,
                self.launches(gpu.generation),
                simulator,
                instruction_budget=self.harness.instruction_budget,
            )

        return self._memoized_run(key, gpu, (gpu.generation,), compute)

    def tbpoint_selection(self) -> TBPointSelection | None:
        key = RunKey("tbpoint_selection")
        if key not in self._cache:
            if not self.spec.completable:
                self._cache[key] = None
            else:
                launches = self.launches("volta")
                profiler = DetailedProfiler(self.harness.silicon(VOLTA_V100))
                try:
                    self._cache[key] = select_tbpoint(
                        self.spec.name, profiler.profile(launches)
                    )
                except ClusteringCapacityError:
                    self._cache[key] = None
        return self._cache[key]  # type: ignore[return-value]

    def tbpoint_sim(self, gpu: GPUConfig | None = None) -> AppRunResult | None:
        gpu = gpu if gpu is not None else VOLTA_V100
        key = RunKey("tbpoint_sim", gpu.name)

        def compute() -> AppRunResult | None:
            selection = self.tbpoint_selection()
            if selection is None or not self.runs_on(gpu):
                return None
            simulator = self.harness.simulator(gpu)
            return simulate_tbpoint(
                selection, self.launches(gpu.generation), simulator
            )

        return self._memoized_run(key, gpu, ("volta", gpu.generation), compute)

    # -- cell dispatch ---------------------------------------------------

    def compute_cell(
        self,
        method: str,
        gpu: GPUConfig | str | None = None,
        *,
        strict: bool = True,
    ):
        """Run one named cell — the unit :meth:`EvaluationHarness.evaluate_cells`
        fans out across worker processes.

        With ``strict=False`` a failing computation returns a
        :class:`CellFailure` record instead of raising, so callers
        iterating many cells keep their completed work.  An unknown
        ``method`` always raises: that is a caller bug, not a fault.
        """
        if isinstance(gpu, str):
            gpu = get_gpu(gpu)
        if method not in _CELL_METHODS:
            raise ReproError(
                f"unknown cell method {method!r}; choose one of {_CELL_METHODS}"
            )
        if strict:
            return self._dispatch_cell(method, gpu)
        try:
            return self._dispatch_cell(method, gpu)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            kind = (
                "invalid_input"
                if isinstance(exc, InputValidationError)
                else "exception"
            )
            return CellFailure(
                workload=self.spec.name,
                method=method,
                gpu=gpu.name if gpu is not None else None,
                kind=kind,
                error_type=type(exc).__name__,
                message=str(exc),
            )

    def _dispatch_cell(self, method: str, gpu: GPUConfig | None):
        if method == "silicon":
            return self.silicon_on(gpu if gpu is not None else VOLTA_V100)
        if method == "pks_silicon":
            return self.pks_silicon((gpu or VOLTA_V100).generation)
        if method == "selection":
            return self.selection()
        if method == "full_sim":
            return self.full_sim(gpu)
        if method == "pks_sim":
            return self.pks_sim(gpu)
        if method == "pka_sim":
            return self.pka_sim(gpu)
        if method == "pka_sim_faithful":
            return self.pka_sim_faithful()
        if method == "first_1b":
            return self.first_1b(gpu)
        if method == "tbpoint_sim":
            return self.tbpoint_sim(gpu)
        raise ReproError(
            f"unknown cell method {method!r}; choose one of {_CELL_METHODS}"
        )

    def cell_key(self, method: str, gpu: GPUConfig | str | None = None) -> RunKey:
        """The typed key under which :meth:`compute_cell` memoizes."""
        if isinstance(gpu, str):
            gpu = get_gpu(gpu)
        if method == "selection":
            return RunKey("selection")
        if method == "tbpoint_selection":
            return RunKey("tbpoint_selection")
        if method == "pka_sim_faithful":
            return RunKey("pka_sim_faithful", VOLTA_V100.name)
        if method == "pks_silicon":
            return RunKey("pks_silicon", GENERATIONS[(gpu or VOLTA_V100).generation].name)
        if method not in _CELL_METHODS:
            raise ReproError(
                f"unknown cell method {method!r}; choose one of {_CELL_METHODS}"
            )
        return RunKey(method, (gpu if gpu is not None else VOLTA_V100).name)


class EvaluationHarness:
    """Memoizing factory of silicon executors, simulators and evaluations."""

    def __init__(
        self,
        config: PKAConfig | None = None,
        model_error: ModelErrorConfig | None = None,
        instruction_budget: float = 6e7,
        *,
        backend: ExecutionBackend | str | int | None = None,
        run_cache: RunCache | NullRunCache | None = None,
        cache_dir: str | Path | None = None,
        cache_max_bytes: int | None = None,
        fault_policy: FaultPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        validation_mode: str = "strict",
        intra_jobs: ExecutionBackend | str | int | None = None,
        semcache: SemanticCacheConfig | bool | None = None,
        predict: PredictConfig | bool | None = None,
    ) -> None:
        # The default instruction budget is the paper's 1-billion-
        # instruction practice scaled by the same ~7x factor as the
        # synthetic workloads' durations (DESIGN.md §4).
        self.validation_mode = resolve_mode(validation_mode)
        self.pka = PrincipalKernelAnalysis(
            config, validation_mode=self.validation_mode
        )
        self.model_error = model_error if model_error is not None else ModelErrorConfig()
        self.instruction_budget = instruction_budget
        self.backend = resolve_backend(backend)
        # ``backend`` fans *cells* out; ``intra_jobs`` parallelizes
        # *within* one cell's app run (kernel-stream prefetch and block
        # sharding).  None inherits the cell backend, preserving the
        # historical behavior where one pool served both roles.  This is
        # a pure execution detail: results are bitwise identical either
        # way, so it deliberately stays out of ``context_fingerprint``.
        self.intra_jobs = intra_jobs
        self._intra_backend = (
            resolve_backend(intra_jobs) if intra_jobs is not None else self.backend
        )
        if run_cache is None:
            run_cache = resolve_run_cache(cache_dir, max_bytes=cache_max_bytes)
        self.run_cache = run_cache
        self.fault_policy = fault_policy if fault_policy is not None else FaultPolicy()
        self.fault_plan = fault_plan
        #: Manifest of the most recent ``evaluate_cells`` sweep (also
        #: persisted under ``<cache>/manifests/`` when a cache is set).
        self.last_manifest: dict | None = None
        self._silicon: dict[str, SiliconExecutor] = {}
        self._simulators: dict[str, Simulator] = {}
        self._evaluations: dict[str, WorkloadEvaluation] = {}
        self._context_fingerprint: str | None = None
        #: The approximate tiers (None = off), each given a full config
        #: or True for defaults: similarity transfer above the digest
        #: cache, then the prediction tiers below it.
        self.semcache: SemanticCache | None = SemanticCache.create(
            semcache, self.run_cache, self.context_fingerprint()
        )
        self.predict: PredictTiers | None = PredictTiers.create(
            predict, self.run_cache, self.context_fingerprint()
        )

    def silicon(self, gpu: GPUConfig) -> SiliconExecutor:
        if gpu.name not in self._silicon:
            self._silicon[gpu.name] = SiliconExecutor(
                gpu, backend=self._intra_backend
            )
        return self._silicon[gpu.name]

    def simulator(self, gpu: GPUConfig) -> Simulator:
        if gpu.name not in self._simulators:
            self._simulators[gpu.name] = Simulator(
                gpu, model_error=self.model_error, backend=self._intra_backend
            )
        return self._simulators[gpu.name]

    def faithful_simulator(self, gpu: GPUConfig) -> Simulator:
        """A simulator with modeling error disabled (silicon-faithful)."""
        key = f"{gpu.name}/faithful"
        if key not in self._simulators:
            self._simulators[key] = Simulator(
                gpu,
                model_error=ModelErrorConfig(enabled=False),
                backend=self._intra_backend,
            )
        return self._simulators[key]

    def evaluation(self, workload: str | WorkloadSpec) -> WorkloadEvaluation:
        spec = workload if isinstance(workload, WorkloadSpec) else get_workload(workload)
        if spec.name not in self._evaluations:
            self._evaluations[spec.name] = WorkloadEvaluation(spec=spec, harness=self)
        return self._evaluations[spec.name]

    def evaluations(self, suite: str | None = None) -> list[WorkloadEvaluation]:
        return [self.evaluation(spec) for spec in iter_workloads(suite)]

    def completable_evaluations(self) -> list[WorkloadEvaluation]:
        """Workloads usable in the Figure-7/8 prior-work comparison.

        Excludes the paper's "*" rows: kernel-count mismatches and the
        cuDNN conv-training workloads whose simulation pairing breaks.
        """
        return [
            evaluation
            for evaluation in self.evaluations()
            if evaluation.spec.completable
            and not evaluation.spec.excluded
            and "sim_kernel_mismatch" not in evaluation.spec.quirks
        ]

    # -- cache identity --------------------------------------------------

    def context_fingerprint(self) -> str:
        """Digest of everything cell results depend on besides the cell.

        Changing any PKA/PKP/two-level knob, the model-error shape, the
        instruction budget or the package version changes this value and
        thereby invalidates every on-disk entry at once (conservative by
        design: correctness over reuse).
        """
        if self._context_fingerprint is None:
            self._context_fingerprint = fingerprint(
                {
                    "config": self.pka.config,
                    "model_error": self.model_error,
                    "instruction_budget": self.instruction_budget,
                    # Lenient sanitization can legitimately change what a
                    # poisoned workload computes, so the two modes must
                    # never share cache entries.
                    "validation_mode": self.validation_mode,
                }
            )
        return self._context_fingerprint

    def _cell_digest(
        self,
        evaluation: WorkloadEvaluation,
        key: RunKey,
        gpu: GPUConfig | None,
        generations: tuple[str, ...],
    ) -> str:
        """On-disk content address of one evaluation cell."""
        return run_digest(
            key,
            workload=evaluation.spec.name,
            launch_digests={
                generation: evaluation.launch_digest(generation)
                for generation in sorted(set(generations))
            },
            gpu=gpu,
            context=self.context_fingerprint(),
        )

    def cell_digest_for(
        self, workload: str, method: str, gpu: GPUConfig | str | None = None
    ) -> str:
        """The on-disk content address of one named evaluation cell.

        Produces exactly the digest the cell's accessor memoizes under,
        so external layers (the serving scheduler's submission-time
        cache probe, the dedup key for single-flight) address the
        :class:`~repro.analysis.persistence.RunCache` without recomputing
        anything — at most the workload's launch lists are built once to
        derive their digests, then memoized on the evaluation.
        """
        evaluation = self.evaluation(workload)
        if isinstance(gpu, str):
            gpu = get_gpu(gpu)
        key = evaluation.cell_key(method, gpu)  # validates the method
        gpu_cfg, generations = self._cell_geometry(method, gpu)
        return self._cell_digest(evaluation, key, gpu_cfg, generations)

    @staticmethod
    def _cell_geometry(
        method: str, gpu: GPUConfig | None
    ) -> tuple[GPUConfig | None, tuple[str, ...]]:
        """The (gpu config, launch generations) a named cell consumes.

        One mapping shared by :meth:`cell_digest_for` and the semantic
        cache's transfer probe, so an external digest and a transfer
        answer can never be derived from different geometry.
        """
        if method == "selection":
            return None, ("volta",)
        if method == "pka_sim_faithful":
            return VOLTA_V100, ("volta",)
        if method == "pks_silicon":
            gpu_cfg = GENERATIONS[(gpu or VOLTA_V100).generation]
            return gpu_cfg, ("volta", gpu_cfg.generation)
        if method in ("silicon", "full_sim", "first_1b"):
            gpu_cfg = gpu if gpu is not None else VOLTA_V100
            return gpu_cfg, (gpu_cfg.generation,)
        # pks_sim / pka_sim / tbpoint_sim: Volta selection + target GPU.
        gpu_cfg = gpu if gpu is not None else VOLTA_V100
        return gpu_cfg, ("volta", gpu_cfg.generation)

    # -- semantic cache (similarity transfer) -----------------------------

    def _transfer_viable(
        self, evaluation: WorkloadEvaluation, method: str, gpu: GPUConfig
    ) -> bool:
        """Whether this cell's compute() could return a real run at all.

        A cell whose DES path would return None (workload does not fit
        the GPU, non-completable full sim, known sim quirks) must not be
        answered by transfer either — the layers have to agree on what
        "cannot run" means.
        """
        spec = evaluation.spec
        if not evaluation.runs_on(gpu):
            return False
        if method in ("full_sim", "tbpoint_sim") and not spec.completable:
            return False
        if (
            method in ("pks_sim", "pka_sim", "pka_sim_faithful")
            and "sim_kernel_mismatch" in spec.quirks
        ):
            return False
        return True

    @property
    def approx_tiers(self) -> tuple[ApproxTier, ...]:
        """The enabled approximate tiers, in consult order."""
        tiers = (self.semcache, self.predict)
        return tuple(tier for tier in tiers if tier is not None)

    def _approx_consult(
        self,
        tier: ApproxTier,
        evaluation: WorkloadEvaluation,
        method: str,
        gpu: GPUConfig | None,
        digest: str,
    ) -> AppRunResult | None:
        """One tier's answer for a digest-missed cell, or None."""
        if gpu is None or method not in tier.config.methods:
            return None
        if not self._transfer_viable(evaluation, method, gpu):
            return None
        return tier.consult(
            workload=evaluation.spec.name,
            method=method,
            gpu=gpu,
            launches=evaluation.launches(gpu.generation),
            digest=digest,
            model_error=self.model_error,
        )

    def _approx_observe(
        self,
        evaluation: WorkloadEvaluation,
        method: str,
        gpu: GPUConfig | None,
        digest: str,
        result: object,
    ) -> None:
        """Feed one computed result to every tier that serves its method.

        Per-group DES ground truth is harvested lazily from the
        simulator's full-run memo the compute just populated; groups of
        other workloads are filtered out by key inside the tier.
        """
        if gpu is None or not isinstance(result, AppRunResult):
            return
        for tier in self.approx_tiers:
            if method not in tier.config.methods:
                continue
            tier.observe(
                workload=evaluation.spec.name,
                method=method,
                gpu=gpu,
                launches=evaluation.launches(gpu.generation),
                digest=digest,
                result=result,
                model_error=self.model_error,
                kernel_cycles=lambda: self.simulator(gpu).memoized_kernel_cycles(),
            )

    def _approx_probe(
        self,
        tier: ApproxTier | None,
        workload: str,
        method: str,
        gpu: GPUConfig | str | None,
    ) -> AppRunResult | None:
        """Submission-time answer of one tier for one cell, or None.

        The serving scheduler calls this after its digest-cache probe
        misses: an answer completes the job without queueing, None
        escalates to the next tier and then to the compute pipeline.
        Nothing is simulated either way — at most the workload's launch
        list is built once, memoized, and priced.
        """
        if tier is None or method not in tier.config.methods:
            return None
        evaluation = self.evaluation(workload)
        if isinstance(gpu, str):
            gpu = get_gpu(gpu)
        key = evaluation.cell_key(method, gpu)
        memoized = evaluation._cache.get(key)
        if memoized is not None:
            # This tier's earlier answer, or a real result other probes serve.
            return memoized if isinstance(memoized, tier.result_type) else None
        gpu_cfg, generations = self._cell_geometry(method, gpu)
        if gpu_cfg is None:
            return None
        digest = self._cell_digest(evaluation, key, gpu_cfg, generations)
        result = self._approx_consult(tier, evaluation, method, gpu_cfg, digest)
        if result is not None:
            evaluation._cache[key] = result
        return result

    def transfer_probe(
        self, workload: str, method: str, gpu: GPUConfig | str | None = None
    ) -> TransferResult | None:
        """The semantic cache's submission-time answer (see :meth:`_approx_probe`)."""
        return self._approx_probe(self.semcache, workload, method, gpu)

    def predict_probe(
        self, workload: str, method: str, gpu: GPUConfig | str | None = None
    ) -> PredictedResult | None:
        """The prediction tiers' submission-time answer (see :meth:`_approx_probe`)."""
        return self._approx_probe(self.predict, workload, method, gpu)

    # -- parallel cell dispatch ------------------------------------------

    def evaluate_cells(
        self,
        cells: Sequence[tuple[str, str, GPUConfig | str | None]],
        *,
        strict: bool = False,
        fault_policy: FaultPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        progress: Callable[[TaskOutcome], None] | None = None,
        crash_in_process: bool = False,
    ) -> list[AppRunResult | KernelSelection | CellFailure | None]:
        """Compute independent (workload, method, gpu) cells, in order.

        With a serial backend this is a plain loop.  With a process-pool
        backend each cell runs in a worker (which keeps one harness per
        configuration alive across cells) and the results come back in
        submission order; every computed result is also stored into this
        harness's in-memory memo tables, so subsequent accessor calls hit
        immediately.  When an on-disk cache is configured, workers share
        it, making the fan-out restartable and incremental: completed
        cells are checkpointed as they finish, and a killed or faulted
        sweep re-run against the same cache recomputes only what is
        missing.

        Execution is **fault-tolerant by default**: every cell runs
        under the harness's :class:`~repro.sim.parallel.FaultPolicy`
        (retries with deterministic backoff, optional timeout, dead
        workers isolated and their surviving cells recomputed), and a
        cell that still fails is returned as a :class:`CellFailure`
        in its slot instead of aborting the sweep.  ``strict=True``
        restores fail-fast: the first failure is raised as its typed
        :class:`~repro.errors.TaskFailureError` — after the sweep
        manifest has been recorded, so completed work is never lost.

        Every sweep writes a manifest (quarantined cells, failure causes,
        completed cells) to ``last_manifest`` and, when a cache is
        configured, to ``<cache>/manifests/<sweep_id>.json``.

        ``progress`` is a **job-granular** completion hook: it receives
        each cell's :class:`~repro.sim.parallel.TaskOutcome` as soon as
        the runtime decides it (per task inline, per round on the pool),
        before the sweep finishes.  The serving scheduler uses it to
        complete jobs without waiting for the whole batch.  It is called
        from the dispatching thread; callbacks must be fast and must not
        raise.

        ``crash_in_process=True`` makes an injected ``"crash"`` fault
        genuinely ``os._exit`` the calling process instead of simulating
        a :class:`~repro.errors.WorkerCrashError`.  Only the service's
        fleet worker processes set it — it is how a poison job actually
        kills its worker so the supervisor's re-dispatch and quarantine
        paths are exercised for real.  It applies to the in-process
        execution path only (serial backend / single job).
        """
        policy = fault_policy if fault_policy is not None else self.fault_policy
        plan = fault_plan if fault_plan is not None else self.fault_plan
        normalized: list[tuple[str, str, GPUConfig | None]] = []
        for workload, method, gpu in cells:
            if isinstance(gpu, str):
                gpu = get_gpu(gpu)
            name = workload if isinstance(workload, str) else workload.name
            normalized.append((name, method, gpu))
        labels = [cell_label(w, m, g) for w, m, g in normalized]
        with obs_span(
            "harness.evaluate_cells", cells=len(labels), jobs=self.backend.jobs
        ):
            if self.backend.jobs == 1:

                def compute(cell):
                    workload, method, gpu = cell
                    return self.evaluation(workload).compute_cell(method, gpu)

                outcomes = _run_tasks_inline(
                    compute, normalized, policy, labels, plan, False, progress,
                    in_worker=crash_in_process,
                )
            else:
                cache_root = (
                    self.run_cache.root
                    if isinstance(self.run_cache, RunCache)
                    else None
                )
                # Only portable intra specs (str/int) cross the process
                # boundary; a live backend object stays parent-side and
                # workers fall back to serial intra execution — the
                # results are bitwise identical either way.
                intra_spec = (
                    self.intra_jobs
                    if isinstance(self.intra_jobs, (str, int))
                    else None
                )
                payloads = [
                    (
                        self.pka.config,
                        self.model_error,
                        self.instruction_budget,
                        cache_root,
                        self.validation_mode,
                        intra_spec,
                        *(
                            tier.config if tier is not None else None
                            for tier in (self.semcache, self.predict)
                        ),
                        cell,
                    )
                    for cell in normalized
                ]
                run_tasks = getattr(self.backend, "run_tasks", None)
                if run_tasks is None:
                    outcomes = _run_tasks_inline(
                        _evaluate_cell_task,
                        payloads,
                        policy,
                        labels,
                        plan,
                        False,
                        progress,
                    )
                else:
                    outcomes = run_tasks(
                        _evaluate_cell_task,
                        payloads,
                        policy=policy,
                        labels=labels,
                        fault_plan=plan,
                        on_outcome=progress,
                    )
        results: list = []
        failures: list[CellFailure] = []
        first_failed = None
        # strict=True: a backend returning a truncated outcome list would
        # silently drop trailing cells from results and the manifest.
        for (workload, method, gpu), outcome in zip(normalized, outcomes, strict=True):
            if outcome.ok:
                evaluation = self.evaluation(workload)
                evaluation._cache.setdefault(
                    evaluation.cell_key(method, gpu), outcome.value
                )
                results.append(outcome.value)
                continue
            kind = outcome.failure.kind
            if kind == "exception" and outcome.failure.error_type in (
                "InputValidationError",
                "NonFiniteInputError",
            ):
                kind = "invalid_input"
            failure = CellFailure(
                workload=workload,
                method=method,
                gpu=gpu.name if gpu is not None else None,
                kind=kind,
                error_type=outcome.failure.error_type,
                message=outcome.failure.message,
                attempts=outcome.failure.attempts,
            )
            failures.append(failure)
            results.append(failure)
            if first_failed is None:
                first_failed = outcome
        obs_count("harness.cells", len(labels))
        if failures:
            obs_count("harness.cell_failures", len(failures))
        skipped = sum(1 for result in results if result is None)
        if skipped:
            obs_count("harness.cells_skipped", skipped)
        for label, answer_type in _APPROX_ANSWERS:
            answered = sum(1 for result in results if isinstance(result, answer_type))
            if answered:
                obs_count(f"harness.cells_{label}", answered)
        obs_count(
            "harness.cells_completed",
            len(results) - len(failures) - skipped,
        )
        self._record_manifest(labels, results, failures)
        if strict and first_failed is not None:
            if first_failed.exception is not None:
                raise first_failed.failure.to_error() from first_failed.exception
            raise first_failed.failure.to_error()
        return results

    def _record_manifest(
        self,
        labels: list[str],
        results: list,
        failures: list[CellFailure],
    ) -> None:
        """Persist which cells of a sweep completed and which were quarantined."""
        sweep_id = fingerprint(
            {"cells": labels, "context": self.context_fingerprint()}
        )
        failed_labels = {failure.label for failure in failures}
        manifest = {
            "sweep_id": sweep_id,
            "total_cells": len(labels),
            "cells": labels,
            "completed": [label for label in labels if label not in failed_labels],
            "quarantined": sorted(failed_labels),
            "failures": [failure.to_record() for failure in failures],
            # Cells answered by an approximate tier (no DES ran; the
            # result carries a modeled error bound).
            **{
                key: [
                    label
                    for label, result in zip(labels, results, strict=True)
                    if isinstance(result, answer_type)
                ]
                for key, answer_type in _APPROX_ANSWERS
            },
            # Cache-side integrity events observed by *this process* so
            # far: entries moved to <cache>/quarantine/ plus refused
            # schema stamps (workers record their own in their caches).
            "cache_quarantined": list(self.run_cache.quarantine_log),
            "cache_schema_mismatches": self.run_cache.schema_mismatches,
        }
        for tier in self.approx_tiers:
            manifest[tier.kind] = tier.snapshot()
        tracer = get_tracer()
        if tracer.enabled:
            # Snapshot the counters so the run summary written next to a
            # --trace-out file can be reconciled against the manifest.
            manifest["observability"] = {
                "counters": dict(sorted(tracer.counters.items()))
            }
        self.last_manifest = manifest
        self.run_cache.put_manifest(sweep_id, manifest)


# Per-process harness cache for cell workers: one harness per distinct
# configuration, reused across every cell the worker receives.
_WORKER_HARNESSES: dict[tuple, EvaluationHarness] = {}


def _evaluate_cell_task(payload: tuple):
    """Worker: compute one evaluation cell with a process-local harness."""
    (
        config,
        model_error,
        instruction_budget,
        cache_root,
        mode,
        intra_spec,
        semcache_config,
        predict_config,
        cell,
    ) = payload
    workload, method, gpu = cell
    key = (
        config,
        model_error,
        instruction_budget,
        cache_root,
        mode,
        intra_spec,
        semcache_config,
        predict_config,
    )
    harness = _WORKER_HARNESSES.get(key)
    if harness is None:
        harness = EvaluationHarness(
            config,
            model_error,
            instruction_budget,
            cache_dir=cache_root,
            validation_mode=mode,
            intra_jobs=intra_spec,
            semcache=semcache_config,
            predict=predict_config,
        )
        _WORKER_HARNESSES[key] = harness
    return harness.evaluation(workload).compute_cell(method, gpu)
