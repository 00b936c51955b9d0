"""Tests for repro.profiling.detailed (the Nsight Compute stand-in)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import ProfilingError
from repro.gpu import KernelLaunch, VOLTA_V100
from repro.profiling import (
    FEATURE_NAMES,
    DetailedProfile,
    DetailedProfiler,
    collect_counters,
)


class TestCollectCounters:
    def test_twelve_counters(self, compute_launch):
        counters = collect_counters(compute_launch)
        assert len(counters) == len(FEATURE_NAMES) == 12

    def test_thread_blocks_counter(self, compute_launch):
        profile = DetailedProfile(
            launch_id=0,
            kernel_name="k",
            counters=collect_counters(compute_launch),
            cycles=1.0,
        )
        assert profile.counter("thread_blocks") == compute_launch.grid_blocks

    def test_divergence_efficiency_counter(self, irregular_spec):
        launch = KernelLaunch(spec=irregular_spec, grid_blocks=8, launch_id=0)
        profile = DetailedProfile(
            launch_id=0,
            kernel_name="k",
            counters=collect_counters(launch),
            cycles=1.0,
        )
        assert profile.counter("divergence_efficiency") == pytest.approx(
            32.0 * irregular_spec.divergence_efficiency
        )

    def test_sector_counters_reflect_coalescing(self, memory_spec):
        scattered = dataclasses.replace(memory_spec, sectors_per_global_access=32.0)
        launch_c = KernelLaunch(spec=memory_spec, grid_blocks=8, launch_id=0)
        launch_s = KernelLaunch(spec=scattered, grid_blocks=8, launch_id=0)
        coalesced = collect_counters(launch_c)
        spread = collect_counters(launch_s)
        index = FEATURE_NAMES.index("coalesced_global_loads")
        # Different specs carry independent ISA skews of up to ~3% each.
        assert spread[index] == pytest.approx(8.0 * coalesced[index], rel=0.08)

    def test_counters_scale_with_grid(self, compute_spec):
        small = collect_counters(
            KernelLaunch(spec=compute_spec, grid_blocks=10, launch_id=0)
        )
        large = collect_counters(
            KernelLaunch(spec=compute_spec, grid_blocks=20, launch_id=0)
        )
        insts = FEATURE_NAMES.index("instructions")
        assert large[insts] == pytest.approx(2.0 * small[insts])

    def test_generation_isa_skew_is_small_but_real(self, compute_launch):
        volta = np.array(collect_counters(compute_launch, "volta"))
        turing = np.array(collect_counters(compute_launch, "turing"))
        insts = FEATURE_NAMES.index("instructions")
        ratio = turing[insts] / volta[insts]
        assert ratio != 1.0
        assert abs(ratio - 1.0) < 0.1

    def test_counter_lookup_unknown_name(self, compute_launch):
        profile = DetailedProfile(
            launch_id=0,
            kernel_name="k",
            counters=collect_counters(compute_launch),
            cycles=1.0,
        )
        with pytest.raises(ProfilingError):
            profile.counter("warp_occupancy")

    def test_profile_rejects_wrong_counter_count(self):
        with pytest.raises(ProfilingError):
            DetailedProfile(
                launch_id=0, kernel_name="k", counters=(1.0, 2.0), cycles=1.0
            )


class TestDetailedProfiler:
    def test_profiles_in_order_with_cycles(
        self, volta_silicon, compute_launch, memory_launch
    ):
        profiler = DetailedProfiler(volta_silicon)
        profiles = profiler.profile([compute_launch, memory_launch])
        assert [p.launch_id for p in profiles] == [0, 1]
        assert profiles[0].cycles == volta_silicon.kernel_cycles(compute_launch)

    def test_limit(self, volta_silicon, compute_launch, memory_launch):
        profiler = DetailedProfiler(volta_silicon)
        profiles = profiler.profile([compute_launch, memory_launch], limit=1)
        assert len(profiles) == 1

    def test_profiling_cost_dominates_execution(
        self, volta_silicon, compute_launch
    ):
        profiler = DetailedProfiler(volta_silicon)
        cost = profiler.profiling_seconds([compute_launch])
        run_time = VOLTA_V100.cycles_to_seconds(
            volta_silicon.kernel_cycles(compute_launch)
        )
        assert cost > 10.0 * run_time

    def test_profiling_cost_scales_with_kernel_count(
        self, volta_silicon, compute_launch
    ):
        profiler = DetailedProfiler(volta_silicon)
        one = profiler.profiling_seconds([compute_launch])
        ten = profiler.profiling_seconds([compute_launch] * 10)
        assert ten == pytest.approx(10.0 * one)

    def test_feature_vector_matches_counters(self, volta_silicon, compute_launch):
        (profile,) = DetailedProfiler(volta_silicon).profile([compute_launch])
        assert np.array_equal(profile.feature_vector(), np.array(profile.counters))

    def test_memoized_isa_skew_keeps_counters_bitwise(self):
        """``profile`` seeds one ISA skew per kernel signature; every
        launch's counters stay bitwise those of ``collect_counters``, on
        each generation, for a real app whose kernels repeat."""
        from repro.gpu import TURING_RTX2060
        from repro.sim.silicon import SiliconExecutor
        from repro.workloads import get_workload

        launches = get_workload("cutcp").build("volta")
        assert len({launch.spec.signature() for launch in launches}) < len(launches)
        for gpu in (VOLTA_V100, TURING_RTX2060):
            profiles = DetailedProfiler(SiliconExecutor(gpu)).profile(launches)
            for launch, profile in zip(launches, profiles, strict=True):
                expected = collect_counters(launch, gpu.generation)
                assert [value.hex() for value in profile.counters] == [
                    value.hex() for value in expected
                ]
