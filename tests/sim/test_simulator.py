"""Tests for repro.sim.simulator (the Accel-Sim stand-in)."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.gpu import KernelLaunch, TURING_RTX2060, VOLTA_V100
from repro.sim import ModelErrorConfig, Simulator
from repro.sim.perfmodel import KERNEL_LAUNCH_OVERHEAD


class TestKernelBias:
    def test_deterministic_per_spec(self, compute_launch):
        sim_a = Simulator(VOLTA_V100)
        sim_b = Simulator(VOLTA_V100)
        assert sim_a.kernel_bias(compute_launch) == sim_b.kernel_bias(compute_launch)

    def test_independent_of_gpu(self, compute_launch):
        volta = Simulator(VOLTA_V100).kernel_bias(compute_launch)
        turing = Simulator(TURING_RTX2060).kernel_bias(compute_launch)
        assert volta == turing

    def test_disabled_is_exact(self, faithful_simulator, compute_launch):
        assert faithful_simulator.kernel_bias(compute_launch) == 1.0

    def test_behaviourally_similar_specs_share_bias(self, compute_spec):
        """Same bucket (nearly identical behaviour) => nearly equal bias."""
        sim = Simulator(VOLTA_V100)
        sibling = dataclasses.replace(compute_spec, name="renamed_sibling")
        launch_a = KernelLaunch(spec=compute_spec, grid_blocks=10, launch_id=0)
        launch_b = KernelLaunch(spec=sibling, grid_blocks=10, launch_id=1)
        bias_a = sim.kernel_bias(launch_a)
        bias_b = sim.kernel_bias(launch_b)
        assert bias_b / bias_a == pytest.approx(1.0, rel=0.25)

    def test_different_behaviours_usually_differ(
        self, compute_launch, memory_launch
    ):
        sim = Simulator(VOLTA_V100)
        assert sim.kernel_bias(compute_launch) != sim.kernel_bias(memory_launch)

    def test_biases_centered_near_one(self, harness):
        """Across the corpus, the bias distribution stays loosely centred."""
        import numpy as np

        sim = Simulator(VOLTA_V100)
        biases = []
        seen = set()
        from repro.workloads import iter_workloads

        for spec in list(iter_workloads())[:40]:
            for launch in spec.build()[:5]:
                sig = launch.spec.signature()
                if sig in seen:
                    continue
                seen.add(sig)
                biases.append(sim.kernel_bias(launch))
        log_mean = float(np.mean(np.log(biases)))
        assert abs(log_mean) < 0.5

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            ModelErrorConfig(sigma_min=-0.1)
        with pytest.raises(ConfigurationError):
            ModelErrorConfig(sigma_min=0.5, sigma_max=0.1)
        with pytest.raises(ConfigurationError):
            ModelErrorConfig(spec_sigma=-1.0)


class TestRunKernel:
    def test_full_runs_memoized(self, volta_simulator, compute_launch):
        first = volta_simulator.run_kernel(compute_launch)
        second = volta_simulator.run_kernel(compute_launch)
        assert first is second

    def test_monitored_runs_not_memoized(self, volta_simulator, compute_launch):
        def never_stop(_sample):
            return False

        first = volta_simulator.run_kernel(compute_launch, monitor=never_stop)
        second = volta_simulator.run_kernel(compute_launch, monitor=never_stop)
        assert first is not second

    def test_zero_window_is_not_the_default(self, volta_simulator, compute_launch):
        """An explicit ``window_cycles=0.0`` is rejected, not silently
        replaced by the simulator's 500-cycle default."""
        with pytest.raises(SimulationError):
            volta_simulator.run_kernel(
                compute_launch, collect_series=True, window_cycles=0.0
            )

    @pytest.mark.parametrize("width", [0.0, -5.0, math.nan, math.inf])
    def test_invalid_window_width_rejected_at_construction(self, width):
        with pytest.raises(ConfigurationError):
            Simulator(VOLTA_V100, window_cycles=width)

    def test_bias_applied(self, compute_launch):
        biased = Simulator(VOLTA_V100)
        faithful = Simulator(VOLTA_V100, model_error=ModelErrorConfig(enabled=False))
        ratio = (
            biased.run_kernel(compute_launch).cycles
            / faithful.run_kernel(compute_launch).cycles
        )
        assert ratio == pytest.approx(biased.kernel_bias(compute_launch), rel=1e-9)


class TestRunFull:
    def test_faithful_full_sim_matches_silicon(
        self, faithful_simulator, volta_silicon, compute_launch, memory_launch
    ):
        launches = [compute_launch, memory_launch]
        sim = faithful_simulator.run_full("app", launches)
        silicon = volta_silicon.run("app", launches)
        # Silicon prices kernels with the linear analytic model; the
        # engine's static interleaved schedule additionally pays the
        # tail-wave quantization (worst near small partial waves, ~+11%
        # on these grid-2000 fixtures), so faithful agreement is bounded
        # a little looser than the pure throughput comparison.
        assert sim.total_cycles == pytest.approx(silicon.total_cycles, rel=0.15)

    def test_simulated_cycles_exclude_overheads(
        self, faithful_simulator, compute_launch
    ):
        result = faithful_simulator.run_full("app", [compute_launch])
        assert result.total_cycles == pytest.approx(
            result.simulated_cycles + KERNEL_LAUNCH_OVERHEAD
        )

    def test_budget_truncates(self, volta_simulator, compute_launch, memory_launch):
        launches = [compute_launch, memory_launch]
        complete = volta_simulator.run_full("app", launches)
        truncated = volta_simulator.run_full(
            "app", launches, max_simulated_cycles=1.0
        )
        assert truncated.simulated_cycles < complete.simulated_cycles
        assert truncated.total_cycles < complete.total_cycles

    def test_a_one_shot_iterator_runs_like_its_list(
        self, compute_launch, memory_launch
    ):
        launches = [compute_launch, memory_launch, compute_launch]
        listed = Simulator(VOLTA_V100).run_full("app", launches, keep_records=True)
        streamed = Simulator(VOLTA_V100).run_full(
            "app", iter(launches), keep_records=True
        )
        assert streamed == listed
        assert len(streamed.kernel_records) == 3

    def test_keep_records(self, volta_simulator, compute_launch):
        result = volta_simulator.run_full(
            "app", [compute_launch], keep_records=True
        )
        (record,) = result.kernel_records
        assert record.simulated_cycles == record.cycles
        assert not record.projected
