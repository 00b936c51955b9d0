"""Tests for the evaluation harness (memoization and applicability rules).

Uses the session-scoped ``harness`` fixture so repeated accesses across the
analysis tests share one set of runs.
"""

from __future__ import annotations

import pytest

from repro.analysis import EvaluationHarness
from repro.analysis.harness import _CELL_TABLE
from repro.analysis.persistence import RunKey
from repro.baselines.tbpoint import TBPOINT_CAPACITY
from repro.gpu import (
    GENERATIONS,
    KernelLaunch,
    TURING_RTX2060,
    VOLTA_V100,
    volta_v100_half_sms,
)
from repro.workloads import WorkloadSpec, get_workload, register
from repro.workloads.generator import MIB, LaunchBuilder, compute_spec
from repro.workloads.spec import _REGISTRY


class TestMemoization:
    def test_silicon_executor_shared(self, harness):
        assert harness.silicon(VOLTA_V100) is harness.silicon(VOLTA_V100)

    def test_simulator_shared(self, harness):
        assert harness.simulator(VOLTA_V100) is harness.simulator(VOLTA_V100)

    def test_evaluation_shared(self, harness):
        assert harness.evaluation("histo") is harness.evaluation("histo")

    def test_runs_memoized(self, harness):
        evaluation = harness.evaluation("histo")
        assert evaluation.silicon("volta") is evaluation.silicon("volta")
        assert evaluation.selection() is evaluation.selection()
        assert evaluation.full_sim() is evaluation.full_sim()


class TestBuildOnce:
    """One launch list (and digest) per distinct builder, not per GPU."""

    @staticmethod
    def _counting(compute_spec, grids, calls):
        def build():
            calls.append(grids)
            return [
                KernelLaunch(spec=compute_spec, grid_blocks=grid, launch_id=index)
                for index, grid in enumerate(grids)
            ]

        return build

    def test_shared_builder_builds_once(self, compute_spec):
        calls = []
        spec = WorkloadSpec(
            "build_once_app", "synthetic", self._counting(compute_spec, (64, 96), calls)
        )
        evaluation = EvaluationHarness().evaluation(spec)
        lists = [evaluation.launches(generation) for generation in GENERATIONS]
        digests = {evaluation.launch_digest(generation) for generation in GENERATIONS}
        assert len(calls) == 1
        assert all(launches is lists[0] for launches in lists)
        assert len(digests) == 1

    def test_variant_builder_builds_twice(self, compute_spec):
        calls = []
        spec = WorkloadSpec(
            "build_variant_app",
            "synthetic",
            self._counting(compute_spec, (64, 96), calls),
            variant_builders={"turing": self._counting(compute_spec, (128,), calls)},
        )
        evaluation = EvaluationHarness().evaluation(spec)
        for generation in GENERATIONS:
            evaluation.launch_digest(generation)
        assert sorted(calls) == [(64, 96), (128,)]
        assert evaluation.launch_digest("turing") != evaluation.launch_digest("volta")
        assert evaluation.launch_digest("ampere") == evaluation.launch_digest("volta")
        assert evaluation.launches("turing") is not evaluation.launches("volta")


class TestApplicabilityRules:
    def test_mlperf_no_full_sim(self, harness):
        evaluation = harness.evaluation("mlperf_3dunet_inference")
        assert evaluation.full_sim() is None
        assert evaluation.pka_sim() is not None

    def test_mlperf_not_on_turing(self, harness):
        evaluation = harness.evaluation("mlperf_3dunet_inference")
        assert not evaluation.runs_on(TURING_RTX2060)
        assert evaluation.silicon("turing") is None

    def test_sim_mismatch_quirk_blocks_sampled_sim(self, harness):
        evaluation = harness.evaluation("db_conv_train_fp32_0")
        assert evaluation.pks_sim() is None
        assert evaluation.pka_sim() is None
        # Silicon-side PKS still works on Volta (the paper reports it).
        assert evaluation.pks_silicon("volta") is not None

    def test_tensor_conv_training_missing_on_other_generations(self, harness):
        evaluation = harness.evaluation("db_conv_train_tc_0")
        assert evaluation.silicon("volta") is not None
        assert evaluation.silicon("turing") is None
        assert evaluation.silicon("ampere") is None

    def test_tbpoint_refuses_mlperf(self, harness):
        evaluation = harness.evaluation("mlperf_ssd_training")
        assert evaluation.tbpoint_selection() is None

    def test_completable_excludes_starred_rows(self, harness):
        names = {e.spec.name for e in harness.completable_evaluations()}
        assert "myocyte" not in names
        assert "db_conv_train_fp32_0" not in names
        assert "mlperf_ssd_training" not in names
        assert "histo" in names



def _registered(name: str, launches: int, **spec_fields):
    """Register a one-kernel synthetic workload; yield its name, then unregister."""

    def build():
        builder = LaunchBuilder()
        spec = compute_spec(f"{name}_k", flops=200.0, loads=8.0, working_set=4 * MIB)
        builder.add(spec, grid_blocks=640, repeat=launches)
        return builder.table()

    get_workload("fdtd2d")  # force the registry load before registering
    register(WorkloadSpec(name=name, suite="applicability", builder=build, **spec_fields))
    try:
        yield name
    finally:
        _REGISTRY.pop(name, None)


@pytest.fixture
def over_tbpoint_capacity():
    yield from _registered("tbpoint_overfull", TBPOINT_CAPACITY + 1)


@pytest.fixture
def not_on_volta():
    yield from _registered("not_on_volta", 12, quirks=("no_volta",))


def _consults(harness) -> list[str]:
    """Record the methods the semantic cache is consulted for."""
    seen: list[str] = []
    original = harness.semcache.consult

    def consult(**kwargs):
        seen.append(kwargs["method"])
        return original(**kwargs)

    harness.semcache.consult = consult
    return seen


class TestOneApplicabilityGate:
    """The approximate tiers and the compute path share one gate per method."""

    def test_tbpoint_over_capacity_gets_no_tier_answer(self, over_tbpoint_capacity):
        harness = EvaluationHarness(semcache=True)
        evaluation = harness.evaluation(over_tbpoint_capacity)
        assert evaluation.spec.completable
        consults = _consults(harness)
        assert harness.transfer_probe(over_tbpoint_capacity, "tbpoint_sim") is None
        assert evaluation.compute_cell("tbpoint_sim") is None
        assert consults == []
        # Refused by a launch count: nothing was profiled or clustered.
        assert RunKey("tbpoint_selection") not in evaluation._cache

    def test_faithful_pka_gate_ignores_volta_fit(self, not_on_volta):
        """The silicon-faithful cell runs on the Volta selection whatever
        the workload's own Volta fit, so the tiers may answer it too."""
        harness = EvaluationHarness(semcache=True)
        evaluation = harness.evaluation(not_on_volta)
        assert not evaluation.runs_on(VOLTA_V100)
        consults = _consults(harness)
        assert evaluation.silicon("volta") is None
        assert evaluation.compute_cell("pka_sim_faithful") is not None
        assert consults == ["pka_sim_faithful"]


#: One workload per gate: every method applies; MLPerf (not completable,
#: too big for Turing); a ``sim_kernel_mismatch`` one; a ``no_turing`` one.
GATED_WORKLOADS = (
    "histo",
    "mlperf_3dunet_inference",
    "db_conv_train_fp32_0",
    "db_conv_train_tc_0",
)


class TestCellApplies:
    """``cell_applies`` is the gate: a cell is None exactly when it is False."""

    @pytest.mark.parametrize("workload", GATED_WORKLOADS)
    @pytest.mark.parametrize("gpu", [None, "turing"])
    def test_none_exactly_when_the_gate_is_false(self, harness, workload, gpu):
        evaluation = harness.evaluation(workload)
        gates = {}
        for method in _CELL_TABLE:
            applies = harness.cell_applies(workload, method, gpu)
            result = evaluation.compute_cell(method, gpu)
            assert (result is None) == (not applies), (workload, method, gpu)
            gates[method] = applies
        if workload == "histo" and gpu is None:
            assert all(gates.values())

    def test_tbpoint_capacity(self, over_tbpoint_capacity):
        harness = EvaluationHarness()
        assert harness.cell_applies(over_tbpoint_capacity, "full_sim")
        assert not harness.cell_applies(over_tbpoint_capacity, "tbpoint_sim")
        assert harness.evaluation(over_tbpoint_capacity).compute_cell(
            "tbpoint_sim"
        ) is None

    def test_gate_reads_the_launch_count_from_the_memo(self, tmp_path, builder_calls):
        assert EvaluationHarness(cache_dir=tmp_path).cell_applies(
            "gramschmidt", "tbpoint_sim"
        )
        builder_calls.clear()
        assert EvaluationHarness(cache_dir=tmp_path).cell_applies(
            "gramschmidt", "tbpoint_sim"
        )
        assert not builder_calls


class TestCustomGPUs:
    def test_half_sm_slows_regular_workloads(self, harness):
        """Halving SMs never speeds a regular workload up.  (Irregular
        sub-wave kernels can get *faster* under the block-contention
        model: fewer resident blocks -> less per-block contention -> the
        straggler that dominates the makespan finishes sooner.)"""
        half = volta_v100_half_sms()
        for name in ("fdtd2d", "lavaMD", "parboil_sgemm"):
            evaluation = harness.evaluation(name)
            full80 = evaluation.full_sim(VOLTA_V100)
            full40 = evaluation.full_sim(half)
            assert full40.total_cycles >= full80.total_cycles * 0.999, name

    def test_turing_variant_workload_differs(self, harness):
        evaluation = harness.evaluation("db_conv_train_fp32_0")
        assert len(evaluation.launches("turing")) != len(evaluation.launches("volta"))


class TestMethodOrderings:
    """The paper's qualitative orderings, on a handful of workloads."""

    @pytest.mark.parametrize("name", ["gramschmidt", "fdtd2d", "gauss_208"])
    def test_pka_cheaper_than_full(self, harness, name):
        evaluation = harness.evaluation(name)
        full = evaluation.full_sim()
        pka = evaluation.pka_sim()
        assert pka.simulated_cycles < full.simulated_cycles

    @pytest.mark.parametrize("name", ["gramschmidt", "histo", "fdtd2d"])
    def test_pks_error_tracks_full_error(self, harness, name):
        from repro.analysis import abs_pct_error

        evaluation = harness.evaluation(name)
        silicon = evaluation.silicon("volta")
        full = evaluation.full_sim()
        pks = evaluation.pks_sim()
        full_error = abs_pct_error(full.total_cycles, silicon.total_cycles)
        pks_error = abs_pct_error(pks.total_cycles, silicon.total_cycles)
        assert abs(pks_error - full_error) < 25.0

    def test_pks_silicon_error_small(self, harness):
        from repro.analysis import abs_pct_error

        for name in ("gauss_208", "histo", "cutcp", "fdtd2d"):
            evaluation = harness.evaluation(name)
            truth = evaluation.silicon("volta")
            projected = evaluation.pks_silicon("volta")
            assert (
                abs_pct_error(projected.total_cycles, truth.total_cycles) < 6.0
            ), name


class TestTruncatedBackendRejected:
    def test_truncated_outcome_list_raises(self):
        """A backend returning fewer outcomes than cells must raise, not
        silently drop trailing cells from results and the manifest."""
        from repro.analysis import EvaluationHarness
        from repro.sim.parallel import TaskOutcome

        class TruncatingBackend:
            jobs = 2

            def run_tasks(self, fn, payloads, **kwargs):
                return [
                    TaskOutcome(index=0, label="only", value=fn(payloads[0]))
                ]

        harness = EvaluationHarness()
        harness.backend = TruncatingBackend()
        with pytest.raises(ValueError, match="argument 2 is shorter"):
            harness.evaluate_cells(
                [("fdtd2d", "silicon", None), ("cutcp", "silicon", None)]
            )
