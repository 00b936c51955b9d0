"""Tests for repro.sim.silicon."""

from __future__ import annotations

import pytest

from repro.gpu import KernelLaunch, TURING_RTX2060, VOLTA_V100
from repro.sim import SiliconExecutor, analytic_kernel_cycles
from repro.sim.perfmodel import KERNEL_LAUNCH_OVERHEAD


class TestSiliconExecutor:
    def test_kernel_cycles_match_analytic(self, volta_silicon, compute_launch):
        assert volta_silicon.kernel_cycles(compute_launch) == pytest.approx(
            analytic_kernel_cycles(compute_launch, VOLTA_V100)
        )

    def test_deterministic(self, compute_launch):
        a = SiliconExecutor(VOLTA_V100).kernel_cycles(compute_launch)
        b = SiliconExecutor(VOLTA_V100).kernel_cycles(compute_launch)
        assert a == b

    def test_memoization_keyed_on_spec_and_grid(
        self, volta_silicon, compute_spec
    ):
        launch_a = KernelLaunch(spec=compute_spec, grid_blocks=100, launch_id=0)
        launch_b = KernelLaunch(spec=compute_spec, grid_blocks=100, launch_id=99)
        launch_c = KernelLaunch(spec=compute_spec, grid_blocks=200, launch_id=1)
        assert volta_silicon.kernel_cycles(launch_a) == volta_silicon.kernel_cycles(
            launch_b
        )
        assert volta_silicon.kernel_cycles(launch_c) != volta_silicon.kernel_cycles(
            launch_a
        )

    def test_app_run_sums_kernels_and_overheads(
        self, volta_silicon, compute_launch, memory_launch
    ):
        launches = [compute_launch, memory_launch]
        result = volta_silicon.run("two_kernels", launches)
        expected = sum(
            volta_silicon.kernel_cycles(launch) for launch in launches
        ) + 2 * KERNEL_LAUNCH_OVERHEAD
        assert result.total_cycles == pytest.approx(expected)
        assert result.method == "silicon"
        assert result.simulated_cycles == 0.0

    def test_a_one_shot_iterator_runs_like_its_list(
        self, compute_launch, memory_launch
    ):
        launches = [compute_launch, memory_launch, compute_launch]
        listed = SiliconExecutor(VOLTA_V100).run("app", launches, keep_records=True)
        streamed = SiliconExecutor(VOLTA_V100).run(
            "app", iter(launches), keep_records=True
        )
        assert streamed == listed
        assert len(streamed.kernel_records) == 3

    def test_records_optional(self, volta_silicon, compute_launch):
        without = volta_silicon.run("app", [compute_launch])
        with_records = volta_silicon.run(
            "app", [compute_launch], keep_records=True
        )
        assert without.kernel_records == ()
        assert len(with_records.kernel_records) == 1
        assert with_records.kernel_records[0].name == compute_launch.spec.name

    def test_dram_bytes_scale_with_grid(self, volta_silicon, memory_spec):
        small = KernelLaunch(spec=memory_spec, grid_blocks=10, launch_id=0)
        large = KernelLaunch(spec=memory_spec, grid_blocks=100, launch_id=1)
        assert volta_silicon.kernel_dram_bytes(large) == pytest.approx(
            10.0 * volta_silicon.kernel_dram_bytes(small)
        )

    def test_turing_slower_than_volta(self, compute_launch):
        volta = SiliconExecutor(VOLTA_V100).kernel_cycles(compute_launch)
        turing = SiliconExecutor(TURING_RTX2060).kernel_cycles(compute_launch)
        assert turing > volta

    def test_silicon_seconds_positive(self, volta_silicon, compute_launch):
        result = volta_silicon.run("app", [compute_launch])
        assert result.silicon_seconds > 0
