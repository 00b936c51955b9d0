"""Series builders for every figure in the paper's evaluation.

Each function consumes a shared :class:`EvaluationHarness` and returns the
plain-data series the corresponding figure plots; the benchmark harness
prints them and asserts their shape.  Nothing here touches matplotlib —
the reproduction reports numbers, not pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.harness import EvaluationHarness, WorkloadEvaluation
from repro.analysis.metrics import abs_pct_error, geomean, mape, speedup
from repro.core.config import PKPConfig
from repro.core.pkp import make_monitor
from repro.gpu.architectures import TURING_RTX2060, VOLTA_V100, volta_v100_half_sms
from repro.predict import price_app
from repro.profiling.cost import TimeLandscape, compute_time_landscape

__all__ = [
    "figure1_time_landscape",
    "figure4_group_composition",
    "figure5_ipc_series",
    "figure6_simtime_reduction",
    "figure7_speedups",
    "figure8_errors",
    "figure9_volta_over_turing",
    "figure10_half_sms",
    "figure_predict_tiers",
    "MethodAggregate",
    "PredictTierAccuracy",
    "RelativeAccuracy",
]


# ---------------------------------------------------------------------------
# Figure 1 — execution/profiling/simulation time landscape.
# ---------------------------------------------------------------------------


def figure1_time_landscape(harness: EvaluationHarness) -> list[TimeLandscape]:
    """Silicon / profiler / simulation seconds per workload, sorted."""
    landscapes = []
    for evaluation in harness.evaluations():
        silicon = harness.silicon(VOLTA_V100)
        landscapes.append(
            compute_time_landscape(
                evaluation.spec.name,
                evaluation.launches("volta"),
                silicon,
                scale=evaluation.spec.scale,
            )
        )
    landscapes.sort(key=lambda landscape: landscape.silicon_seconds)
    return landscapes


# ---------------------------------------------------------------------------
# Figure 4 — per-group kernel composition for ResNet.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupComposition:
    """Kernel-name histogram of one PKS group."""

    group_id: int
    total_kernels: int
    name_counts: dict[str, int]


def figure4_group_composition(
    harness: EvaluationHarness, workload: str = "mlperf_resnet50_64b"
) -> list[GroupComposition]:
    """Which kernel names landed in which PKS group (ResNet by default)."""
    evaluation = harness.evaluation(workload)
    selection = evaluation.selection()
    launches = {
        launch.launch_id: launch for launch in evaluation.launches("volta")
    }
    compositions = []
    for pks_group in selection.pks.groups:
        name_counts: dict[str, int] = {}
        for launch_id in pks_group.member_launch_ids:
            name = launches[launch_id].spec.name
            name_counts[name] = name_counts.get(name, 0) + 1
        compositions.append(
            GroupComposition(
                group_id=pks_group.group_id,
                total_kernels=pks_group.weight,
                name_counts=name_counts,
            )
        )
    return compositions


# ---------------------------------------------------------------------------
# Figure 5 — IPC/L2/DRAM time series with PKP stop points.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IPCSeries:
    """One kernel's windowed time series plus PKP stop points per s."""

    workload: str
    kernel_name: str
    cycles: tuple[float, ...]
    ipc: tuple[float, ...]
    l2_miss_rate: tuple[float, ...]
    dram_util: tuple[float, ...]
    stop_points: dict[float, float | None]  # s value -> stop cycle


def figure5_ipc_series(
    harness: EvaluationHarness,
    workload: str,
    *,
    launch_index: int = 0,
    thresholds: tuple[float, ...] = (2.5, 0.25, 0.025),
) -> IPCSeries:
    """Windowed IPC/L2/DRAM series for one kernel plus PKP stop sweeps.

    The paper's Figure 5 uses atax (regular) and a Rodinia BFS
    (irregular); any workload/launch works here.
    """
    evaluation = harness.evaluation(workload)
    launch = evaluation.launches("volta")[launch_index]
    simulator = harness.simulator(VOLTA_V100)
    full = simulator.run_kernel(launch, collect_series=True)

    cycles = [sample.cycle for sample in full.samples]
    ipc = [sample.ipc for sample in full.samples]
    finished = [sample.blocks_finished for sample in full.samples]
    stop_points: dict[float, float | None] = {}
    for threshold in thresholds:
        config = PKPConfig(stability_threshold=threshold)
        monitor = make_monitor(launch, simulator.gpu, config)
        monitor.observe_windows(cycles, ipc, finished)
        stop_points[threshold] = monitor.stop_cycle

    return IPCSeries(
        workload=workload,
        kernel_name=launch.spec.name,
        cycles=tuple(cycles),
        ipc=tuple(ipc),
        l2_miss_rate=tuple(sample.l2_miss_rate for sample in full.samples),
        dram_util=tuple(sample.dram_util for sample in full.samples),
        stop_points=stop_points,
    )


# ---------------------------------------------------------------------------
# Figure 6 — simulation time: full vs PKS vs PKA.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimTimeRow:
    """Projected simulation hours for one workload under three regimes."""

    workload: str
    full_hours: float
    pks_hours: float | None
    pka_hours: float | None


def figure6_simtime_reduction(harness: EvaluationHarness) -> list[SimTimeRow]:
    """Per-workload projected simulation hours, sorted by full-sim time.

    Full-simulation hours scale with the workload's launch-count factor
    (the paper-sized app simulates every kernel); PKS/PKA hours do not
    (only the representatives are simulated, however long the app is).
    """
    rows = []
    for evaluation in harness.evaluations():
        spec = evaluation.spec
        landscape = compute_time_landscape(
            spec.name,
            evaluation.launches("volta"),
            harness.silicon(VOLTA_V100),
            scale=spec.scale,
        )
        if "sim_kernel_mismatch" in spec.quirks:
            pks_hours = pka_hours = None
        else:
            pks = evaluation.pks_sim()
            pka = evaluation.pka_sim()
            pks_hours = pks.sim_wall_hours if pks else None
            pka_hours = pka.sim_wall_hours if pka else None
        rows.append(
            SimTimeRow(
                workload=spec.name,
                full_hours=landscape.simulation_hours,
                pks_hours=pks_hours,
                pka_hours=pka_hours,
            )
        )
    rows.sort(key=lambda row: row.full_hours)
    return rows


# ---------------------------------------------------------------------------
# Figures 7 and 8 — speedup and error versus prior work.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodAggregate:
    """Per-method speedups/errors over the completable workloads."""

    workloads: tuple[str, ...]
    full_errors: tuple[float, ...]
    pka_speedups: tuple[float, ...]
    pka_errors: tuple[float, ...]
    tbpoint_speedups: tuple[float, ...]
    tbpoint_errors: tuple[float, ...]
    first1b_speedups: tuple[float, ...]
    first1b_errors: tuple[float, ...]

    @property
    def pka_speedup_geomean(self) -> float:
        return geomean(self.pka_speedups)

    @property
    def tbpoint_speedup_geomean(self) -> float:
        return geomean(self.tbpoint_speedups)

    @property
    def first1b_speedup_geomean(self) -> float:
        return geomean(self.first1b_speedups)

    def mean_error(self, method: str) -> float:
        errors = {
            "full": self.full_errors,
            "pka": self.pka_errors,
            "tbpoint": self.tbpoint_errors,
            "first1b": self.first1b_errors,
        }[method]
        return sum(errors) / len(errors) if errors else 0.0


def _prior_work_rows(harness: EvaluationHarness) -> MethodAggregate:
    names, full_e, pka_s, pka_e = [], [], [], []
    tb_s, tb_e, ob_s, ob_e = [], [], [], []
    for evaluation in harness.completable_evaluations():
        silicon = evaluation.silicon("volta")
        full = evaluation.full_sim()
        pka = evaluation.pka_sim()
        oneb = evaluation.first_1b()
        tbp = evaluation.tbpoint_sim()
        if silicon is None or full is None or pka is None or oneb is None:
            continue
        if tbp is None:
            continue
        names.append(evaluation.spec.name)
        full_e.append(abs_pct_error(full.total_cycles, silicon.total_cycles))
        pka_s.append(speedup(full.simulated_cycles, pka.simulated_cycles))
        pka_e.append(abs_pct_error(pka.total_cycles, silicon.total_cycles))
        tb_s.append(speedup(full.simulated_cycles, tbp.simulated_cycles))
        tb_e.append(abs_pct_error(tbp.total_cycles, silicon.total_cycles))
        ob_s.append(speedup(full.simulated_cycles, oneb.simulated_cycles))
        ob_e.append(abs_pct_error(oneb.total_cycles, silicon.total_cycles))
    return MethodAggregate(
        workloads=tuple(names),
        full_errors=tuple(full_e),
        pka_speedups=tuple(pka_s),
        pka_errors=tuple(pka_e),
        tbpoint_speedups=tuple(tb_s),
        tbpoint_errors=tuple(tb_e),
        first1b_speedups=tuple(ob_s),
        first1b_errors=tuple(ob_e),
    )


def figure7_speedups(harness: EvaluationHarness) -> MethodAggregate:
    """Speedup of PKA / TBPoint / 1B over full simulation (Figure 7)."""
    return _prior_work_rows(harness)


def figure8_errors(harness: EvaluationHarness) -> MethodAggregate:
    """Cycle error of full sim / 1B / PKA / TBPoint vs silicon (Figure 8)."""
    return _prior_work_rows(harness)


# ---------------------------------------------------------------------------
# Prediction-tier accuracy — both tiers versus the simulated methods.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictTierAccuracy:
    """One workload's cycle error versus silicon, per answering method.

    Puts the two prediction tiers (which run no event loop at all) on
    the same axis as full simulation, 1B, TBPoint and PKA.  Bounds are
    the tiers' *advertised* relative error versus the DES (None when
    uncalibrated); errors are realized versus silicon.
    """

    workload: str
    full_error: float
    first1b_error: float
    tbpoint_error: float
    pka_error: float
    analytical_error: float
    analytical_bound: float | None
    surrogate_error: float | None
    surrogate_bound: float | None


def figure_predict_tiers(
    harness: EvaluationHarness,
) -> list[PredictTierAccuracy]:
    """Prediction-tier accuracy over the completable workloads (Volta).

    The analytical column is always available (it is pure arithmetic);
    the surrogate column appears once the harness's prediction tiers
    have trained and the workload is inside coverage.  With prediction
    disabled on the harness the analytical estimate is still priced
    directly — the figure then simply has no surrogate column.
    """
    rows: list[PredictTierAccuracy] = []
    for evaluation in harness.completable_evaluations():
        silicon = evaluation.silicon("volta")
        full = evaluation.full_sim()
        pka = evaluation.pka_sim()
        oneb = evaluation.first_1b()
        tbp = evaluation.tbpoint_sim()
        if any(run is None for run in (silicon, full, pka, oneb, tbp)):
            continue
        launches = evaluation.launches("volta")
        if harness.predict is not None:
            tiers = harness.predict.tier_estimates(
                method="full_sim",
                gpu=VOLTA_V100,
                launches=launches,
                model_error=harness.model_error,
            )
        else:
            estimate = price_app(launches, VOLTA_V100, harness.model_error)
            tiers = (
                {"analytical": (estimate.total_cycles, None)}
                if estimate.groups and estimate.total_cycles > 0
                else {}
            )
        if "analytical" not in tiers:
            continue
        analytical_cycles, analytical_bound = tiers["analytical"]
        surrogate = tiers.get("surrogate")
        rows.append(
            PredictTierAccuracy(
                workload=evaluation.spec.name,
                full_error=abs_pct_error(
                    full.total_cycles, silicon.total_cycles
                ),
                first1b_error=abs_pct_error(
                    oneb.total_cycles, silicon.total_cycles
                ),
                tbpoint_error=abs_pct_error(
                    tbp.total_cycles, silicon.total_cycles
                ),
                pka_error=abs_pct_error(
                    pka.total_cycles, silicon.total_cycles
                ),
                analytical_error=abs_pct_error(
                    analytical_cycles, silicon.total_cycles
                ),
                analytical_bound=analytical_bound,
                surrogate_error=(
                    abs_pct_error(surrogate[0], silicon.total_cycles)
                    if surrogate is not None
                    else None
                ),
                surrogate_bound=(
                    surrogate[1] if surrogate is not None else None
                ),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Figures 9 and 10 — relative-accuracy case studies.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelativeAccuracy:
    """Per-workload speedups of one architectural change, per method.

    Workloads with no full-simulation reference (MLPerf) participate via
    the ``pka_only_*`` series: silicon truth versus PKA's prediction,
    the way the paper covers them in Figure 10.
    """

    workloads: tuple[str, ...]
    silicon: tuple[float, ...]
    full_sim: tuple[float, ...]
    first1b: tuple[float, ...]
    pka: tuple[float, ...]
    pka_only_workloads: tuple[str, ...] = ()
    pka_only_silicon: tuple[float, ...] = ()
    pka_only_pka: tuple[float, ...] = ()

    @property
    def pka_only_mae(self) -> float:
        """Mean absolute percentage error of PKA's speedup prediction on
        the PKA-only workloads (the quantity the paper's figures label
        "MAE")."""
        return mape(self.pka_only_pka, self.pka_only_silicon)

    @property
    def geomeans(self) -> dict[str, float]:
        return {
            "silicon": geomean(self.silicon),
            "full_sim": geomean(self.full_sim),
            "first1b": geomean(self.first1b),
            "pka": geomean(self.pka),
        }

    @property
    def mae_wrt_silicon(self) -> dict[str, float]:
        return {
            "full_sim": mape(self.full_sim, self.silicon),
            "first1b": mape(self.first1b, self.silicon),
            "pka": mape(self.pka, self.silicon),
        }


def figure9_volta_over_turing(harness: EvaluationHarness) -> RelativeAccuracy:
    """V100-over-RTX2060 speedup per method (Figure 9).

    MLPerf does not fit on the RTX 2060, so only the workloads runnable
    on both cards participate — exactly the paper's situation.
    """
    names, sil, full, oneb, pka = [], [], [], [], []
    for evaluation in harness.completable_evaluations():
        if not evaluation.runs_on(TURING_RTX2060):
            continue
        ratios = _method_ratios(
            evaluation,
            gpu_a=VOLTA_V100,
            gpu_b=TURING_RTX2060,
            use_seconds=True,
        )
        if ratios is None:
            continue
        names.append(evaluation.spec.name)
        for store, value in zip((sil, full, oneb, pka), ratios, strict=True):
            store.append(value)
    return RelativeAccuracy(
        workloads=tuple(names),
        silicon=tuple(sil),
        full_sim=tuple(full),
        first1b=tuple(oneb),
        pka=tuple(pka),
    )


def figure10_half_sms(harness: EvaluationHarness) -> RelativeAccuracy:
    """80-SM-over-40-SM V100 speedup per method (Figure 10).

    Covers *all* workloads, as the paper stresses: completable ones get
    the four-method comparison; MLPerf (no full-simulation reference)
    contributes silicon-versus-PKA speedups only.
    """
    half = volta_v100_half_sms()
    names, sil, full, oneb, pka = [], [], [], [], []
    for evaluation in harness.completable_evaluations():
        ratios = _method_ratios(
            evaluation, gpu_a=VOLTA_V100, gpu_b=half, use_seconds=False
        )
        if ratios is None:
            continue
        names.append(evaluation.spec.name)
        for store, value in zip((sil, full, oneb, pka), ratios, strict=True):
            store.append(value)

    only_names, only_sil, only_pka = [], [], []
    for evaluation in harness.evaluations("mlperf"):
        silicon_80 = evaluation.silicon_on(VOLTA_V100)
        silicon_40 = evaluation.silicon_on(half)
        pka_80 = evaluation.pka_sim(VOLTA_V100)
        pka_40 = evaluation.pka_sim(half)
        if any(run is None for run in (silicon_80, silicon_40, pka_80, pka_40)):
            continue
        only_names.append(evaluation.spec.name)
        only_sil.append(silicon_40.total_cycles / silicon_80.total_cycles)
        only_pka.append(pka_40.total_cycles / pka_80.total_cycles)

    return RelativeAccuracy(
        workloads=tuple(names),
        silicon=tuple(sil),
        full_sim=tuple(full),
        first1b=tuple(oneb),
        pka=tuple(pka),
        pka_only_workloads=tuple(only_names),
        pka_only_silicon=tuple(only_sil),
        pka_only_pka=tuple(only_pka),
    )


def _method_ratios(
    evaluation: WorkloadEvaluation,
    *,
    gpu_a,
    gpu_b,
    use_seconds: bool,
) -> tuple[float, float, float, float] | None:
    """(silicon, full, 1B, PKA) speedups of gpu_a over gpu_b, or None."""

    def cost(result) -> float:
        return result.silicon_seconds if use_seconds else result.total_cycles

    silicon_a = evaluation.silicon_on(gpu_a)
    silicon_b = evaluation.silicon_on(gpu_b)
    full_a, full_b = evaluation.full_sim(gpu_a), evaluation.full_sim(gpu_b)
    oneb_a, oneb_b = evaluation.first_1b(gpu_a), evaluation.first_1b(gpu_b)
    pka_a, pka_b = evaluation.pka_sim(gpu_a), evaluation.pka_sim(gpu_b)
    runs = (silicon_a, silicon_b, full_a, full_b, oneb_a, oneb_b, pka_a, pka_b)
    if any(run is None for run in runs):
        return None
    return (
        cost(silicon_b) / cost(silicon_a),
        cost(full_b) / cost(full_a),
        cost(oneb_b) / cost(oneb_a),
        cost(pka_b) / cost(pka_a),
    )
