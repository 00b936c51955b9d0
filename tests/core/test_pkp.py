"""Tests for repro.core.pkp (Principal Kernel Projection)."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IPCStabilityMonitor, PKPConfig, make_monitor, run_pkp
from repro.core.pkp import _rolling_spreads, project_result
from repro.errors import SimulationError
from repro.gpu import KernelLaunch, VOLTA_V100, compute_occupancy
from repro.sim.engine import WindowSample


def _sample(cycle, ipc, finished=0):
    return WindowSample(
        cycle=cycle, ipc=ipc, l2_miss_rate=0.0, dram_util=0.0,
        blocks_finished=finished,
    )


class TestIPCStabilityMonitor:
    def test_waits_for_window_fill(self):
        monitor = IPCStabilityMonitor(wave_size=1, grid_blocks=1)
        for step in range(5):
            assert not monitor.observe(_sample(500.0 * (step + 1), 10.0))
        assert monitor.relative_std() is None

    def test_flat_signal_stabilizes(self):
        config = PKPConfig(consecutive_windows=1)
        monitor = IPCStabilityMonitor(wave_size=1, grid_blocks=1, config=config)
        stopped = False
        for step in range(10):
            stopped = monitor.observe(_sample(500.0 * (step + 1), 50.0, finished=1))
            if stopped:
                break
        assert stopped
        assert monitor.stable_at_cycle is not None

    def test_noisy_signal_never_stabilizes(self):
        monitor = IPCStabilityMonitor(wave_size=1, grid_blocks=1)
        values = [50.0, 80.0, 20.0, 90.0, 10.0, 70.0] * 10
        assert not any(
            monitor.observe(_sample(500.0 * (i + 1), v, finished=1))
            for i, v in enumerate(values)
        )

    def test_consecutive_windows_required(self):
        config = PKPConfig(consecutive_windows=3)
        monitor = IPCStabilityMonitor(wave_size=1, grid_blocks=1, config=config)
        # Fill window with flat values, then inject a spike that resets
        # the quiet streak.
        flat = [50.0] * 6
        for i, v in enumerate(flat):
            monitor.observe(_sample(500.0 * (i + 1), v, finished=1))
        assert monitor._quiet_streak >= 1
        monitor.observe(_sample(4_000.0, 500.0, finished=1))
        assert monitor._quiet_streak == 0

    def test_wave_rule_defers_stop(self):
        config = PKPConfig(consecutive_windows=1)
        monitor = IPCStabilityMonitor(wave_size=100, grid_blocks=1_000, config=config)
        assert monitor.wave_rule_active
        for step in range(10):
            stopped = monitor.observe(
                _sample(500.0 * (step + 1), 50.0, finished=10)
            )
            assert not stopped  # quasi-stable but the wave has not retired
        assert monitor.stable_at_cycle is not None
        assert monitor.observe(_sample(6_000.0, 50.0, finished=150))

    def test_sub_wave_grid_skips_wave_rule(self):
        config = PKPConfig(consecutive_windows=1)
        monitor = IPCStabilityMonitor(wave_size=100, grid_blocks=50, config=config)
        assert not monitor.wave_rule_active
        stopped = False
        for step in range(10):
            stopped = monitor.observe(_sample(500.0 * (step + 1), 50.0, finished=0))
            if stopped:
                break
        assert stopped

    def test_invalid_wave_size(self):
        with pytest.raises(SimulationError):
            IPCStabilityMonitor(wave_size=0, grid_blocks=10)

    def test_make_monitor_uses_occupancy(self, compute_launch):
        monitor = make_monitor(compute_launch, VOLTA_V100)
        occupancy = compute_occupancy(compute_launch.spec, VOLTA_V100)
        assert monitor.wave_size == occupancy.wave_size
        assert monitor.grid_blocks == compute_launch.grid_blocks


def _filled_monitor(values):
    """A monitor whose rolling window is exactly ``values``."""
    config = PKPConfig(rolling_window_cycles=500.0 * len(values))
    assert config.rolling_samples == len(values)
    monitor = IPCStabilityMonitor(wave_size=1, grid_blocks=1, config=config)
    for step, value in enumerate(values):
        monitor.observe(_sample(500.0 * (step + 1), value))
    return monitor


def _numpy_relative_std(values):
    window = np.asarray(values)
    return float(window.std() / window.mean())


class TestRelativeStdMatchesNumpy:
    """``relative_std`` is pure Python on the per-window hot path but must
    stay the bitwise value of numpy's ``std / mean``: it mirrors numpy's
    pairwise summation, so every window length — left fold (< 8),
    eight-accumulator block (8..128) and recursive halving (> 128) — and
    every magnitude mix has to round exactly as numpy does."""

    @given(
        values=st.lists(
            st.one_of(
                st.floats(min_value=1e-3, max_value=1e3),
                # Log-uniform too, so windows mix magnitudes across decades.
                st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
            ),
            min_size=2,
            max_size=300,
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_bitwise_equal_to_numpy(self, values):
        spread = _filled_monitor(values).relative_std()
        assert spread is not None
        assert spread.hex() == _numpy_relative_std(values).hex()

    @pytest.mark.parametrize("length", [2, 6, 7, 8, 9, 16, 127, 128, 129, 130, 300])
    def test_block_boundaries(self, length):
        values = np.random.default_rng(length).uniform(1e-3, 1e3, length).tolist()
        spread = _filled_monitor(values).relative_std()
        assert spread.hex() == _numpy_relative_std(values).hex()

    @pytest.mark.parametrize(
        "values",
        [
            [0.0] * 6,  # zero mean
            [0.0] * 9,
            [-1.0, -2.0, -3.0, -1.0, -2.0, -3.0],  # negative mean
            [1e308] * 6,  # sum overflows: infinite mean
            [1e308] * 130,
        ],
        ids=["zero", "zero-block", "negative", "overflow", "overflow-halving"],
    )
    def test_non_positive_or_non_finite_mean_is_none(self, values):
        assert _filled_monitor(values).relative_std() is None

    @given(
        values=st.lists(
            st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
            min_size=2,
            max_size=300,
        ),
        width=st.sampled_from([2, 6, 7, 8, 9, 16, 129, 130]),
    )
    @settings(max_examples=200, deadline=None)
    def test_block_spreads_bitwise_equal_to_numpy(self, values, width):
        """The column-wise spreads of a block of windows: every window's
        value is numpy's ``std / mean`` of that window."""
        if len(values) < width:
            values = values * (width // len(values) + 1)
        spreads = _rolling_spreads(values, width)
        assert len(spreads) == len(values) - width + 1
        for start, spread in enumerate(spreads):
            expected = _numpy_relative_std(values[start : start + width])
            assert spread.hex() == expected.hex()

    def test_window_restarts_after_nan(self):
        monitor = _filled_monitor([40.0, 41.0, 39.0, 40.5, 39.5, 40.0])
        assert monitor.relative_std() is not None
        assert not monitor.observe(_sample(3_500.0, math.nan))
        assert monitor.relative_std() is None
        fresh = [50.0, 52.0, 48.0, 51.0, 49.0]
        for step, value in enumerate(fresh):
            monitor.observe(_sample(4_000.0 + 500.0 * step, value))
        # Five post-NaN samples do not refill a six-sample window...
        assert monitor.relative_std() is None
        monitor.observe(_sample(6_500.0, 50.5))
        # ...the sixth does, and only post-NaN samples count.
        spread = monitor.relative_std()
        assert spread.hex() == _numpy_relative_std([*fresh, 50.5]).hex()


class TestProjection:
    def test_completed_run_unchanged(self, faithful_simulator, compute_launch):
        result = faithful_simulator.run_kernel(compute_launch)
        projection = project_result(result)
        assert not projection.stopped_early
        assert projection.projected_cycles == result.cycles
        assert projection.speedup == pytest.approx(1.0)

    def test_multi_wave_linear_block_projection(
        self, faithful_simulator, compute_launch
    ):
        projection = run_pkp(faithful_simulator, compute_launch)
        result = projection.result
        if projection.stopped_early:
            expected = result.cycles * compute_launch.grid_blocks / (
                result.blocks_finished
            )
            assert projection.projected_cycles == pytest.approx(expected)

    def test_pkp_projection_close_to_full_run(
        self, faithful_simulator, compute_launch
    ):
        """On a regular kernel PKP's projection lands near the full run."""
        full = faithful_simulator.run_kernel(compute_launch)
        projection = run_pkp(faithful_simulator, compute_launch)
        assert projection.stopped_early
        assert projection.projected_cycles == pytest.approx(full.cycles, rel=0.30)

    def test_pkp_saves_simulation(self, faithful_simulator, compute_launch):
        full = faithful_simulator.run_kernel(compute_launch)
        projection = run_pkp(faithful_simulator, compute_launch)
        assert projection.simulated_cycles < full.cycles

    def test_tiny_kernel_cannot_stop(self, faithful_simulator, compute_spec):
        """Kernels shorter than the rolling window run to completion."""
        launch = KernelLaunch(spec=compute_spec, grid_blocks=2, launch_id=0)
        projection = run_pkp(faithful_simulator, launch)
        assert not projection.stopped_early
        assert projection.projected_cycles == projection.result.cycles

    def test_sub_wave_instruction_projection(self, faithful_simulator, compute_spec):
        """A long sub-wave kernel stops with zero finished blocks and is
        projected by instructions, not blocks."""
        heavy = dataclasses.replace(
            compute_spec,
            mix=compute_spec.mix.scaled(60.0),
            name="subwave_heavy",
        )
        launch = KernelLaunch(spec=heavy, grid_blocks=100, launch_id=0)
        full = faithful_simulator.run_kernel(launch)
        projection = run_pkp(faithful_simulator, launch)
        assert projection.stopped_early
        assert projection.result.blocks_finished == 0
        assert projection.projected_cycles == pytest.approx(full.cycles, rel=0.5)

    def test_irregular_sub_wave_underestimates_stragglers(
        self, faithful_simulator, irregular_spec
    ):
        """PKP's projection misses straggler blocks on sub-wave irregular
        kernels whose makespan is the max block duration — the source of
        its error on irregular apps (paper Fig. 5b)."""
        launch = KernelLaunch(spec=irregular_spec, grid_blocks=400, launch_id=0)
        full = faithful_simulator.run_kernel(launch)
        projection = run_pkp(
            faithful_simulator,
            launch,
            PKPConfig(stability_threshold=25.0, consecutive_windows=1),
        )
        assert projection.stopped_early
        assert projection.projected_cycles < full.cycles

    def test_threshold_sweep_monotone_cost(self, faithful_simulator, compute_launch):
        """Smaller s -> more confidence required -> no less simulation."""
        costs = []
        for s in (2.5, 0.25, 0.025):
            projection = run_pkp(
                faithful_simulator,
                compute_launch,
                PKPConfig(stability_threshold=s),
            )
            costs.append(projection.simulated_cycles)
        assert costs[0] <= costs[1] <= costs[2]

    def test_projected_dram_util(self, faithful_simulator, memory_launch):
        projection = run_pkp(faithful_simulator, memory_launch)
        assert projection.projected_dram_util_fraction > 0
