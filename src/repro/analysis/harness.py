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
import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.persistence import (
    NullRunCache,
    RunCache,
    RunKey,
    dump_run,
    dump_selection,
    fingerprint,
    launch_code_fingerprint,
    launches_digest,
    load_run,
    load_selection,
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
from repro.baselines.tbpoint import (
    TBPOINT_CAPACITY,
    TBPointSelection,
    select_tbpoint,
    simulate_tbpoint,
)
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
from repro.workloads.spec import (
    WorkloadSpec,
    get_workload,
    is_builtin,
    iter_workloads,
)
from repro.workloads.table import LaunchTable

__all__ = ["CellFailure", "CellOutcome", "WorkloadEvaluation", "EvaluationHarness"]

#: Sweep-manifest key (and ``harness.cells_<key>`` counter) of the cells
#: each approximate answer source answered.
_APPROX_KEYS = {"transfer": "transferred", "predicted": "predicted"}

#: Run-cache state kind of the launch memo: per built-in workload, each
#: builder's launch digest and launch count, so a process that finds it
#: keys the workload's cells without building a launch table.
LAUNCH_MEMO = "launches"


@functools.cache
def _launch_code() -> str | None:
    """This package's :func:`launch_code_fingerprint`, once per process."""
    return launch_code_fingerprint(Path(__file__).resolve().parents[1])


def _is_launch_facts(facts) -> bool:
    return (
        isinstance(facts, dict)
        and isinstance(facts.get("digest"), str)
        and type(facts.get("launches")) is int
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


@dataclass(frozen=True, slots=True)
class CellOutcome:
    """One cell's answer and where it came from, decided once by the cell
    path (:meth:`WorkloadEvaluation._memoized_run`) for every reader above.

    ``source`` is ``"cache"`` (the run cache), ``"computed"`` (run here,
    or found not to apply: ``value`` None), or the answering tier's
    :attr:`~repro.approx.ApproxTier.source` (``"transfer"`` or
    ``"predicted"``), which also sets the modeled relative error
    ``bound`` and what ``answered_by`` it: the donor workloads of a
    transfer, the tier of a prediction.
    """

    value: object
    source: str
    bound: float | None = None
    answered_by: object = None

    def dump(self) -> dict:
        """Queue- and wire-safe rendering: the provenance fields, plus
        the value's ``kind`` (``app_run``/``selection``/``none``) and
        JSON ``text``."""
        kind, text = "none", None
        if isinstance(self.value, AppRunResult):
            kind, text = "app_run", dump_run(self.value)
        elif isinstance(self.value, KernelSelection):
            kind, text = "selection", dump_selection(self.value)
        return {
            "source": self.source,
            "bound": self.bound,
            "answered_by": self.answered_by,
            "kind": kind,
            "text": text,
        }

    @classmethod
    def load(cls, document: dict) -> "CellOutcome":
        """The outcome :meth:`dump` rendered."""
        load = {"app_run": load_run, "selection": load_selection}.get(document["kind"])
        value = load(document["text"]) if load is not None else None
        return cls(value, document["source"], document["bound"], document["answered_by"])


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
    # Launch tables and their facts ({"digest", "launches"}: digest and
    # length), keyed by the builder that makes them
    # (WorkloadSpec.builder_key), so generations that share a builder
    # build and hash one table.
    _launches: dict[str, LaunchTable] = field(default_factory=dict)
    _launch_facts: dict[str, dict] = field(default_factory=dict)
    # The persisted launch memo once read: (state context, payload); the
    # context is None when the memo is off for this workload.
    _memo: tuple[str | None, dict] | None = None
    _cache: dict[RunKey, CellOutcome] = field(default_factory=dict)

    # -- building blocks ------------------------------------------------

    def launches(self, generation: str = "volta") -> LaunchTable:
        """The launch table the workload runs on one GPU generation.

        Built once per distinct builder: every generation without a
        variant builder gets the *same* table.  The table is shared
        read-only by every cell of the workload.  Digesting it builds no
        launch object; the first cell that iterates it materialises the
        launches once, for every later cell.
        """
        key = self.spec.builder_key(generation)
        if key not in self._launches:
            self._launches[key] = self.spec.build(generation)
        return self._launches[key]

    def launch_digest(self, generation: str = "volta") -> str:
        """Memoized content digest of one generation's launch list."""
        return self._facts(generation)["digest"]

    def launch_count(self, generation: str = "volta") -> int:
        """Memoized length of one generation's launch list."""
        return self._facts(generation)["launches"]

    def _facts(self, generation: str) -> dict:
        """One builder's ``{"digest", "launches"}``: memory, then the
        persisted launch memo, then a build whose facts join the memo.

        The memo lives in the run cache's state store under
        ``<cache>/launches/``, keyed by the workload and the fingerprint
        of the code that builds and digests it, so a warm process keys
        every cell of a built-in workload without building anything.
        """
        key = self.spec.builder_key(generation)
        facts = self._launch_facts.get(key)
        if facts is None:
            if self._memo is None:
                context = self.harness._launch_memo_context(self.spec)
                stored = context and self.harness.run_cache.get_state(
                    LAUNCH_MEMO, context
                )
                self._memo = (context, stored if isinstance(stored, dict) else {})
            context, payload = self._memo
            facts = payload.get(key)
            if not _is_launch_facts(facts):
                table = self.launches(generation)
                facts = {"digest": launches_digest(table), "launches": len(table)}
                if context is not None:
                    # A new dict: a concurrent writer never dumps one in flux.
                    payload = {**payload, key: facts}
                    self._memo = (context, payload)
                    self.harness.run_cache.put_state(LAUNCH_MEMO, context, payload)
            self._launch_facts[key] = facts
        return facts

    def runs_on(self, gpu: GPUConfig) -> bool:
        if not self.spec.fits_on(gpu):
            return False
        return f"no_{gpu.generation}" not in self.spec.quirks

    def _memoized_run(
        self, key: RunKey, gpu: GPUConfig | None, entry: _CellMethod
    ) -> CellOutcome:
        """Memory -> disk -> tiers -> compute, storing the result in both layers.

        The one place that decides where an answer came from: the memo
        holds each cell's :class:`CellOutcome`.  ``None`` results (the
        cell does not apply) are memoized in memory only: they are
        trivial to re-derive and must not occupy the persistent store.

        A digest miss consults the enabled approximate tiers in order
        (semantic cache, then prediction) before computing.  An
        approximate answer is memoized **in memory only** — never
        written to the run cache — so the exact digest cache can never
        be poisoned by it; a computed result is additionally *observed*
        by every tier so it can price future answers.
        """
        outcome = self._cache.get(key)
        if outcome is not None:
            obs_count("harness.memo_hits")
            return outcome
        harness = self.harness
        with obs_span(
            "harness.cell", cell=cell_label(self.spec.name, key.method, key.gpu)
        ) as span:
            digest = harness._cell_digest(self, key, entry, gpu)
            get, put = harness.cell_store(key.method)
            result = get(digest)
            if result is not None:
                outcome = CellOutcome(result, "cache")
            else:
                for tier in harness.approx_tiers:
                    outcome = harness._approx_consult(
                        tier, self, key.method, gpu, digest
                    )
                    if outcome is not None:
                        break
                else:
                    if entry.applies(self, gpu):
                        result = entry.compute(self, gpu)
                    if result is not None:
                        put(digest, result)
                        harness._approx_observe(
                            self, key.method, gpu, digest, result
                        )
                    outcome = CellOutcome(result, "computed")
            span.set(source=outcome.source)
        self._cache[key] = outcome
        return outcome

    def cell(self, method: str, gpu: GPUConfig | None = None):
        """One named cell (see :data:`_CELL_TABLE`), memoized."""
        entry, target, key = _resolve_cell(method, gpu)
        return self._memoized_run(key, target, entry).value

    # -- named cells ------------------------------------------------------

    def silicon(self, generation: str = "volta") -> AppRunResult | None:
        """Full-application silicon truth on one GPU generation."""
        return self.silicon_on(GENERATIONS[generation])

    def silicon_on(self, gpu: GPUConfig) -> AppRunResult | None:
        """Silicon truth on an arbitrary GPU config (e.g. half-SM V100)."""
        return self.cell("silicon", gpu)

    def selection(self) -> KernelSelection:
        return self.cell("selection")

    def pks_silicon(self, generation: str = "volta") -> AppRunResult | None:
        return self.cell("pks_silicon", GENERATIONS[generation])

    def full_sim(self, gpu: GPUConfig | None = None) -> AppRunResult | None:
        return self.cell("full_sim", gpu)

    def pks_sim(self, gpu: GPUConfig | None = None) -> AppRunResult | None:
        return self.cell("pks_sim", gpu)

    def pka_sim(self, gpu: GPUConfig | None = None) -> AppRunResult | None:
        return self.cell("pka_sim", gpu)

    def pka_sim_faithful(self) -> AppRunResult | None:
        return self.cell("pka_sim_faithful")

    def first_1b(self, gpu: GPUConfig | None = None) -> AppRunResult | None:
        return self.cell("first_1b", gpu)

    def tbpoint_sim(self, gpu: GPUConfig | None = None) -> AppRunResult | None:
        return self.cell("tbpoint_sim", gpu)

    def tbpoint_selection(self) -> TBPointSelection | None:
        key = RunKey("tbpoint_selection")
        if key not in self._cache:
            selection = None
            if self.spec.completable:
                launches = self.launches("volta")
                profiler = DetailedProfiler(self.harness.silicon(VOLTA_V100))
                try:
                    selection = select_tbpoint(
                        self.spec.name, profiler.profile(launches)
                    )
                except ClusteringCapacityError:
                    pass
            self._cache[key] = CellOutcome(selection, "computed")
        return self._cache[key].value  # type: ignore[return-value]

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
        entry, target, key = _resolve_cell(method, gpu)
        if strict:
            return self._memoized_run(key, target, entry).value
        try:
            return self._memoized_run(key, target, entry).value
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

    def cell_key(self, method: str, gpu: GPUConfig | str | None = None) -> RunKey:
        """The typed key under which :meth:`compute_cell` memoizes."""
        return _resolve_cell(method, gpu)[2]


def _on_target(gpu: GPUConfig | None) -> GPUConfig:
    return gpu if gpu is not None else VOLTA_V100


def _completes(evaluation: WorkloadEvaluation, gpu: GPUConfig) -> bool:
    return evaluation.spec.completable and evaluation.runs_on(gpu)


def _pairs_kernels(evaluation: WorkloadEvaluation, gpu: GPUConfig) -> bool:
    return "sim_kernel_mismatch" not in evaluation.spec.quirks


def _samples(evaluation: WorkloadEvaluation, gpu: GPUConfig) -> bool:
    return _pairs_kernels(evaluation, gpu) and evaluation.runs_on(gpu)


def _tbpoint_fits(evaluation: WorkloadEvaluation, gpu: GPUConfig) -> bool:
    # The Volta launch count, memoized: no build, profiling or clustering.
    return (
        _completes(evaluation, gpu)
        and evaluation.launch_count("volta") <= TBPOINT_CAPACITY
    )


def _tbpoint_sim(evaluation: WorkloadEvaluation, gpu: GPUConfig):
    selection = evaluation.tbpoint_selection()
    if selection is None:
        return None
    return simulate_tbpoint(
        selection,
        evaluation.launches(gpu.generation),
        evaluation.harness.simulator(gpu),
    )


@dataclass(frozen=True)
class _CellMethod:
    """How one cell method is keyed, gated and computed.

    ``gpu`` maps the requested GPU (None: the default) to the one the
    cell runs on, None for a GPU-independent cell.  A cell that
    ``reads_selection`` consumes a selection made on Volta, so the
    Volta launch list joins its digest.  ``applies`` is the cheap gate
    the compute path and the approximate tiers share: a cell that does
    not apply is None.  ``compute`` runs an applicable cell.
    """

    gpu: Callable[[GPUConfig | None], GPUConfig | None]
    reads_selection: bool
    applies: Callable[[WorkloadEvaluation, GPUConfig | None], bool]
    compute: Callable[[WorkloadEvaluation, GPUConfig | None], object]

    def generations(self, gpu: GPUConfig | None) -> tuple[str, ...]:
        """The GPU generations whose launch lists the cell consumes."""
        volta = ("volta",) if self.reads_selection else ()
        return volta + ((gpu.generation,) if gpu is not None else ())


#: Every cell method: the one place that names a method's GPU, launch
#: generations, applicability and computation.  Adding a method is one
#: entry here.
_CELL_TABLE: dict[str, _CellMethod] = {
    # Full-application silicon truth.
    "silicon": _CellMethod(
        _on_target, False, WorkloadEvaluation.runs_on,
        lambda ev, gpu: ev.harness.silicon(gpu).run(
            ev.spec.name, ev.launches(gpu.generation)
        ),
    ),
    # PKS priced on one generation's silicon (Volta-selected kernels).
    "pks_silicon": _CellMethod(
        lambda gpu: GENERATIONS[_on_target(gpu).generation],
        True,
        WorkloadEvaluation.runs_on,
        lambda ev, gpu: ev.harness.pka.project_silicon(
            ev.selection(), ev.harness.silicon(gpu)
        ),
    ),
    # The PKA characterization: always on Volta, per the paper.
    "selection": _CellMethod(
        lambda gpu: None, True, lambda ev, gpu: True,
        lambda ev, gpu: ev.harness.pka.characterize(
            ev.spec.name,
            ev.launches("volta"),
            ev.harness.silicon(VOLTA_V100),
            scale=ev.spec.scale,
        ),
    ),
    "full_sim": _CellMethod(
        _on_target, False, _completes,
        lambda ev, gpu: ev.harness.simulator(gpu).run_full(
            ev.spec.name, ev.launches(gpu.generation)
        ),
    ),
    "pks_sim": _CellMethod(
        _on_target, True, _samples,
        lambda ev, gpu: ev.harness.pka.simulate(
            ev.selection(), ev.harness.simulator(gpu), use_pkp=False
        ),
    ),
    "pka_sim": _CellMethod(
        _on_target, True, _samples,
        lambda ev, gpu: ev.harness.pka.simulate(
            ev.selection(), ev.harness.simulator(gpu), use_pkp=True
        ),
    ),
    # PKA on a silicon-faithful simulator (modeling error disabled): its
    # error versus silicon isolates the methodology's own sampling error.
    "pka_sim_faithful": _CellMethod(
        lambda gpu: VOLTA_V100, True, _pairs_kernels,
        lambda ev, gpu: ev.harness.pka.simulate(
            ev.selection(), ev.harness.faithful_simulator(gpu), use_pkp=True
        ),
    ),
    "first_1b": _CellMethod(
        _on_target, False, WorkloadEvaluation.runs_on,
        lambda ev, gpu: run_first_n_instructions(
            ev.spec.name,
            ev.launches(gpu.generation),
            ev.harness.simulator(gpu),
            instruction_budget=ev.harness.instruction_budget,
        ),
    ),
    "tbpoint_sim": _CellMethod(_on_target, True, _tbpoint_fits, _tbpoint_sim),
}


def _cell_method(method: str) -> _CellMethod:
    entry = _CELL_TABLE.get(method)
    if entry is None:
        raise ReproError(
            f"unknown cell method {method!r}; choose one of {tuple(_CELL_TABLE)}"
        )
    return entry


def _resolve_cell(
    method: str, gpu: GPUConfig | str | None
) -> tuple[_CellMethod, GPUConfig | None, RunKey]:
    """A named cell's table entry, target GPU and memo key."""
    entry = _cell_method(method)
    if isinstance(gpu, str):
        gpu = get_gpu(gpu)
    target = entry.gpu(gpu)
    return entry, target, RunKey(method, None if target is None else target.name)


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
            self._silicon[gpu.name] = SiliconExecutor(gpu)
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

    def worker_spec(self) -> dict:
        """Constructor keywords that rebuild this harness in a worker process.

        Only portable values cross the process boundary: the cache by
        its root and the intra-run backend by its str/int spec (a live
        backend object stays here and workers run intra work serially —
        the results are bitwise identical either way).  The approximate
        tiers are the caller's to add: pool workers get their configs,
        fleet workers run without them.
        """
        return {
            "config": self.pka.config,
            "model_error": self.model_error,
            "instruction_budget": self.instruction_budget,
            "cache_dir": (
                self.run_cache.root if isinstance(self.run_cache, RunCache) else None
            ),
            "validation_mode": self.validation_mode,
            "intra_jobs": (
                self.intra_jobs if isinstance(self.intra_jobs, (str, int)) else None
            ),
            "fault_policy": self.fault_policy,
        }

    def _cell_digest(
        self,
        evaluation: WorkloadEvaluation,
        key: RunKey,
        entry: _CellMethod,
        gpu: GPUConfig | None,
    ) -> str:
        """On-disk content address of one evaluation cell."""
        return run_digest(
            key,
            workload=evaluation.spec.name,
            launch_digests={
                generation: evaluation.launch_digest(generation)
                for generation in sorted(set(entry.generations(gpu)))
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
        anything.  A built-in workload's launch digests come from the
        run cache's launch memo when a process has recorded them; only
        on a memo miss (or with no run cache, or for a workload
        registered at runtime) are its launch lists built once, digested
        and memoized.
        """
        entry, target, key = _resolve_cell(method, gpu)
        return self._cell_digest(self.evaluation(workload), key, entry, target)

    def cell_applies(
        self, workload: str, method: str, gpu: GPUConfig | str | None = None
    ) -> bool:
        """Whether a named cell applies: the one gate under which the
        compute path and the approximate tiers run it.  A cell that does
        not apply is None.  Answering builds no launch table when the
        launch memo holds the workload."""
        entry, target, _ = _resolve_cell(method, gpu)
        return entry.applies(self.evaluation(workload), target)

    def _launch_memo_context(self, spec: WorkloadSpec) -> str | None:
        """The launch memo's state context for one workload, or None when
        the memo is off: no run cache, a spec that is not the built-in
        corpus's own, or sources that cannot be read."""
        if not self.run_cache.enabled or not is_builtin(spec):
            return None
        code = _launch_code()
        if code is None:
            return None
        return fingerprint({"code": code, "workload": spec.name})

    def cell_store(self, method: str) -> tuple[Callable, Callable]:
        """The run cache's ``(get, put)`` for one method's results: the
        characterization is stored as a selection, every other cell as
        a run."""
        cache = self.run_cache
        if method == "selection":
            return cache.get_selection, cache.put_selection
        return cache.get_run, cache.put_run

    # -- approximate tiers -------------------------------------------------

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
    ) -> CellOutcome | None:
        """One tier's answer for a digest-missed cell, or None.

        A cell that does not apply is never answered: the tiers and the
        compute path share the table's applicability gate.
        """
        if gpu is None or method not in tier.config.methods:
            return None
        if not _cell_method(method).applies(evaluation, gpu):
            return None
        answer = tier.consult(
            workload=evaluation.spec.name,
            method=method,
            gpu=gpu,
            launches=evaluation.launches(gpu.generation),
            digest=digest,
            model_error=self.model_error,
        )
        if answer is None:
            return None
        provenance = (getattr(answer, tier.bound_field), getattr(answer, tier.by_field))
        return CellOutcome(answer, tier.source, *provenance)

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
        """One tier's answer for one cell (see :meth:`probe_cell`), or None."""
        if tier is None or method not in tier.config.methods:
            return None
        evaluation = self.evaluation(workload)
        entry, target, key = _resolve_cell(method, gpu)
        outcome = evaluation._cache.get(key)
        if outcome is None:
            digest = self._cell_digest(evaluation, key, entry, target)
            outcome = self._approx_consult(tier, evaluation, method, target, digest)
            if outcome is None:
                return None
            evaluation._cache[key] = outcome
        # This tier's answer; another source's is for other probes to serve.
        return outcome.value if outcome.source == tier.source else None

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

    def probe_cell(
        self, workload: str, method: str, gpu: GPUConfig | str | None, digest: str
    ) -> CellOutcome | None:
        """A cell's answer from the run cache or, in consult order, an
        approximate tier's named probe; None when all escalate.  Nothing
        is simulated: at most the workload's launch list is built once,
        memoized, and priced.  ``digest`` is the cell's
        :meth:`cell_digest_for`."""
        get, _ = self.cell_store(method)
        value = get(digest)
        if value is not None:
            return CellOutcome(value, "cache")
        for probe in (self.transfer_probe, self.predict_probe):
            if probe(workload, method, gpu) is not None:
                evaluation = self.evaluation(workload)
                return evaluation._cache[evaluation.cell_key(method, gpu)]
        return None

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
        manifest: bool = True,
    ) -> list[AppRunResult | KernelSelection | CellFailure | None]:
        """Compute independent (workload, method, gpu) cells, in order.

        With a serial backend, or for one cell, this is a plain loop on
        this harness.  Otherwise each cell runs in a pool worker (which
        keeps one harness per configuration alive across cells) and the
        results come back in
        submission order; every computed result is also stored into this
        harness's in-memory memo tables, so subsequent accessor calls hit
        immediately.  When an on-disk cache is configured, workers share
        it, making the fan-out restartable and incremental: completed
        cells are checkpointed as they finish, and a killed or faulted
        sweep re-run against the same cache recomputes only what is
        missing.

        Execution is **fault-tolerant by default**: every cell runs
        under the harness's :class:`~repro.sim.parallel.FaultPolicy`
        (retries with deterministic backoff, optional timeout; each pool
        worker holds one cell, so a dead or overdue worker is charged to
        exactly that cell and no other cell reruns), and a cell that
        still fails is returned as a :class:`CellFailure` in its slot
        instead of aborting the sweep.  ``strict=True``
        restores fail-fast: the first failure is raised as its typed
        :class:`~repro.errors.TaskFailureError` — after the sweep
        manifest has been recorded, so completed work is never lost.

        Every sweep writes a manifest (quarantined cells, failure causes,
        completed cells) to ``last_manifest`` and, when a cache is
        configured, to ``<cache>/manifests/<sweep_id>.json``.
        ``manifest=False`` skips it: the serving layer runs one job per
        call and accounts for its jobs in its own drain manifest.

        ``progress`` is a **job-granular** completion hook: it receives
        each cell's :class:`~repro.sim.parallel.TaskOutcome` as soon as
        the runtime decides it, inline or on the pool, before the sweep
        finishes (a completed cell's ``value`` is its
        :class:`CellOutcome`).  The serving layer reads a job's attempts
        from it.  It is called from the dispatching thread; callbacks
        must be fast and must not raise.

        ``crash_in_process=True`` makes an injected ``"crash"`` fault
        genuinely ``os._exit`` the calling process instead of simulating
        a :class:`~repro.errors.WorkerCrashError`.  Only the service's
        fleet worker processes set it — it is how a poison job actually
        kills its worker so the supervisor's re-dispatch and quarantine
        paths are exercised for real.  It applies to the in-process
        execution path only (serial backend / single cell).
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
        # One cell gains nothing from a pool: it runs here, on this
        # harness, rather than inline on a second, process-local one.
        inline = self.backend.jobs == 1 or len(normalized) == 1
        with obs_span(
            "harness.evaluate_cells", cells=len(labels), jobs=self.backend.jobs
        ):
            if inline:

                def compute(cell):
                    workload, method, gpu = cell
                    return _cell_outcome(self.evaluation(workload), method, gpu)

                outcomes = _run_tasks_inline(
                    compute, normalized, policy, labels, plan, False, progress,
                    in_worker=crash_in_process,
                )
            else:
                # Pool workers run this process's tiers from the shared cache.
                spec = self.worker_spec()
                for name in ("semcache", "predict"):
                    tier = getattr(self, name)
                    spec[name] = tier.config if tier is not None else None
                payloads = [(spec, cell) for cell in normalized]
                outcomes = self.backend.run_tasks(
                    _evaluate_cell_task,
                    payloads,
                    policy=policy,
                    labels=labels,
                    fault_plan=plan,
                    on_outcome=progress,
                )
        results: list = []
        failures: list[CellFailure] = []
        approx: dict[str, list[str]] = {key: [] for key in _APPROX_KEYS.values()}
        first_failed = None
        # strict=True: a backend returning a truncated outcome list would
        # silently drop trailing cells from results and the manifest.
        for index, ((workload, method, gpu), outcome) in enumerate(
            zip(normalized, outcomes, strict=True)
        ):
            if outcome.ok:
                cell: CellOutcome = outcome.value
                if not inline:  # inline cells are memoized already
                    evaluation = self.evaluation(workload)
                    evaluation._cache.setdefault(evaluation.cell_key(method, gpu), cell)
                results.append(cell.value)
                if cell.source in _APPROX_KEYS:
                    approx[_APPROX_KEYS[cell.source]].append(labels[index])
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
        for key, answered in approx.items():
            if answered:
                obs_count(f"harness.cells_{key}", len(answered))
        obs_count(
            "harness.cells_completed",
            len(results) - len(failures) - skipped,
        )
        if manifest:
            self._record_manifest(labels, failures, approx)
        if strict and first_failed is not None:
            if first_failed.exception is not None:
                raise first_failed.failure.to_error() from first_failed.exception
            raise first_failed.failure.to_error()
        return results

    def _record_manifest(
        self,
        labels: list[str],
        failures: list[CellFailure],
        approx: dict[str, list[str]],
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
            # answer carries a modeled error bound).
            **approx,
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


def _cell_outcome(
    evaluation: WorkloadEvaluation, method: str, gpu: GPUConfig | None
) -> CellOutcome:
    """:meth:`WorkloadEvaluation.compute_cell` (traced), then its outcome."""
    evaluation.compute_cell(method, gpu)
    return evaluation._cache[evaluation.cell_key(method, gpu)]


def _evaluate_cell_task(payload: tuple) -> CellOutcome:
    """Worker: compute one evaluation cell with a process-local harness."""
    spec, (workload, method, gpu) = payload
    key = tuple(spec.items())
    harness = _WORKER_HARNESSES.get(key)
    if harness is None:
        harness = _WORKER_HARNESSES[key] = EvaluationHarness(**spec)
    return _cell_outcome(harness.evaluation(workload), method, gpu)
