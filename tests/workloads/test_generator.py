"""Tests for repro.workloads.generator helpers."""

from __future__ import annotations

import math

import pytest

from repro.errors import WorkloadError
from repro.gpu import VOLTA_V100
from repro.sim import analyze_kernel
from repro.gpu.kernels import KernelLaunch
from repro.workloads import (
    LaunchBuilder,
    LaunchTable,
    compute_spec,
    irregular_spec,
    streaming_spec,
    tensor_spec,
    tiny_spec,
    workload_rng,
)


class TestLaunchBuilder:
    def test_assigns_sequential_ids(self):
        builder = LaunchBuilder()
        spec = tiny_spec("a")
        builder.add(spec, 4)
        builder.add(spec, 8, repeat=2)
        launches = builder.launches()
        assert [launch.launch_id for launch in launches] == [0, 1, 2]
        assert [launch.grid_blocks for launch in launches] == [4, 8, 8]

    def test_nvtx_copied_not_shared(self):
        builder = LaunchBuilder()
        tags = {"layer": "conv1"}
        builder.add(tiny_spec("a"), 1, repeat=2, nvtx=tags)
        first, second = builder.launches()
        assert first.nvtx == {"layer": "conv1"}
        assert first.nvtx is not second.nvtx

    def test_grid_floors_at_one(self):
        builder = LaunchBuilder()
        builder.add(tiny_spec("a"), 0)
        assert builder.launches()[0].grid_blocks == 1

    def test_len(self):
        builder = LaunchBuilder()
        builder.add(tiny_spec("a"), 1, repeat=5)
        assert len(builder) == 5

    def test_negative_repeat_rejected(self):
        builder = LaunchBuilder()
        with pytest.raises(WorkloadError, match="repeat"):
            builder.add(tiny_spec("a"), 4, repeat=-1)
        assert len(builder) == 0

    @pytest.mark.parametrize("grid", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected(self, grid):
        builder = LaunchBuilder()
        with pytest.raises(WorkloadError, match="grid_blocks"):
            builder.add(tiny_spec("a"), grid)
        assert len(builder) == 0

    def test_zero_repeat_adds_nothing(self):
        builder = LaunchBuilder()
        builder.add(tiny_spec("a"), 4, repeat=0)
        assert len(builder) == 0
        assert list(builder.table().rows()) == []

    def test_table_interns_repeated_rows(self):
        builder = LaunchBuilder()
        a, b = tiny_spec("a"), tiny_spec("b")
        builder.add(a, 4, repeat=3, nvtx={"layer": "x"})
        builder.add(b, 4)
        builder.add(a, 4, nvtx={"layer": "x"})
        builder.add(a, 8)
        table = builder.table()
        assert isinstance(table, LaunchTable)
        assert table.specs == [a, b]
        assert table.annotations == [(("layer", "x"),), ()]
        assert list(table.rows()) == [(0, 4, 0), (1, 4, 1), (0, 8, 1)]
        assert list(table.row_index) == [0, 0, 0, 1, 0, 2]
        assert table.launch_ids is None

    def test_table_is_a_snapshot(self):
        builder = LaunchBuilder()
        builder.add(tiny_spec("a"), 4)
        table = builder.table()
        builder.add(tiny_spec("b"), 8)
        assert len(table) == 1 and len(table.row_grids) == 1
        assert len(builder.table()) == 2


class TestArchetypes:
    def _bottleneck(self, spec, grid=2_000):
        launch = KernelLaunch(spec=spec, grid_blocks=grid, launch_id=0)
        return analyze_kernel(launch, VOLTA_V100).bottleneck

    def test_compute_spec_is_compute_bound(self):
        assert self._bottleneck(compute_spec("c", flops=2_000.0)) == "compute"

    def test_streaming_spec_is_memory_bound(self):
        assert self._bottleneck(streaming_spec("m")) == "memory"

    def test_tiny_spec_is_latency_bound(self):
        assert self._bottleneck(tiny_spec("t"), grid=8) == "latency"

    def test_irregular_spec_is_divergent_and_uneven(self):
        spec = irregular_spec("i")
        assert spec.divergence_efficiency < 0.8
        assert spec.duration_cv >= 0.3
        assert spec.sectors_per_global_access > 4.0

    def test_tensor_spec_uses_tensor_cores(self):
        spec = tensor_spec("w")
        assert spec.uses_tensor_cores
        assert spec.mix.tensor_ops > 0


class TestWorkloadRng:
    def test_deterministic(self):
        a = workload_rng("resnet").integers(0, 1_000_000)
        b = workload_rng("resnet").integers(0, 1_000_000)
        assert a == b

    def test_stream_scoping(self):
        a = workload_rng("resnet", "grids").integers(0, 1_000_000)
        b = workload_rng("resnet", "mixes").integers(0, 1_000_000)
        assert a != b
