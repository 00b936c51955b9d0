"""Tests for the figure/table builders on a few cheap workloads.

Corpus-wide assertions live in the benchmark harness; these tests pin the
builders' shapes and basic invariants using the shared session harness.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    figure4_group_composition,
    figure5_ipc_series,
    table3_pks_examples,
    table4_rows,
)
from repro.core import PKPConfig
from repro.profiling import compute_time_landscape
from repro.gpu import VOLTA_V100
from repro.gpu.occupancy import compute_occupancy
from repro.workloads import get_workload
from tests._diff import ReferenceStabilityMonitor


class TestTable3:
    def test_showcase_rows(self, harness):
        rows = table3_pks_examples(
            harness, workloads=("gauss_208", "fdtd2d", "cutcp")
        )
        by_name = {row.workload: row for row in rows}

        gauss = by_name["gauss_208"]
        assert gauss.selected_kernel_ids == (0,)
        assert gauss.group_counts == (414,)

        fdtd = by_name["fdtd2d"]
        assert fdtd.selected_kernel_ids == (0, 2)
        assert sorted(fdtd.group_counts) == [500, 1000]

        cutcp = by_name["cutcp"]
        assert sorted(cutcp.group_counts) == [2, 3, 6]

    def test_counts_sum_to_launches(self, harness):
        for row in table3_pks_examples(harness, workloads=("histo", "cutcp")):
            launches = get_workload(row.workload).build()
            assert sum(row.group_counts) == len(launches)


class TestTable4:
    def test_row_shape_for_classic_workload(self, harness):
        (row,) = table4_rows(harness, suite="parboil")[2:3]
        assert row.workload == "histo"
        assert row.silicon_error["volta"] is not None
        assert row.sim_error is not None
        assert row.pka_sim_hours is not None

    def test_excluded_workload_is_starred(self, harness):
        rows = {row.workload: row for row in table4_rows(harness, suite="rodinia")}
        myocyte = rows["myocyte"]
        assert myocyte.silicon_error["volta"] is None
        assert myocyte.sim_error is None

    def test_mlperf_has_no_full_sim_columns(self, harness):
        rows = table4_rows(harness, suite="mlperf")
        for row in rows:
            assert row.sim_error is None
            assert row.silicon_error["turing"] is None
            assert row.pka_sim_hours is not None


class TestFigure4:
    def test_resnet_group_structure(self, harness):
        groups = figure4_group_composition(harness)
        assert 6 <= len(groups) <= 20
        total = sum(group.total_kernels for group in groups)
        assert total == len(get_workload("mlperf_resnet50_64b").build())

    def test_some_group_mixes_kernel_names(self, harness):
        """Groups are behavioural, not name-based (paper Figure 4)."""
        groups = figure4_group_composition(harness)
        assert any(len(group.name_counts) > 1 for group in groups)


class TestFigure5:
    def test_series_shape(self, harness):
        series = figure5_ipc_series(harness, "atax")
        assert len(series.cycles) == len(series.ipc) == len(series.dram_util)
        assert set(series.stop_points) == {2.5, 0.25, 0.025}

    @pytest.mark.parametrize(("workload", "index"), [("atax", 0), ("bfs1MW", 24)])
    def test_stop_points_match_per_window_reference(self, harness, workload, index):
        """One block judgement per threshold stops where feeding the
        per-window reference monitor one sample at a time does."""
        series = figure5_ipc_series(harness, workload, launch_index=index)
        launch = harness.evaluation(workload).launches("volta")[index]
        samples = harness.simulator(VOLTA_V100).run_kernel(
            launch, collect_series=True
        ).samples
        for threshold, stop in series.stop_points.items():
            occupancy = compute_occupancy(launch.spec, VOLTA_V100)
            reference = ReferenceStabilityMonitor(
                wave_size=occupancy.wave_size,
                grid_blocks=launch.grid_blocks,
                config=PKPConfig(stability_threshold=threshold),
            )
            for sample in samples:
                if reference.observe(sample):
                    break
            assert stop == reference.stop_cycle

    def test_looser_threshold_stops_no_later(self, harness):
        series = figure5_ipc_series(harness, "atax")
        stops = series.stop_points
        if stops[2.5] is not None and stops[0.25] is not None:
            assert stops[2.5] <= stops[0.25]


class TestTimeLandscapeMagnitudes:
    def test_figure1_spread(self, harness):
        """Classic workloads: us-ms silicon; MLPerf: seconds-minutes and
        year+ simulation times (the Figure-1 spread)."""
        silicon = harness.silicon(VOLTA_V100)
        classic = get_workload("histo")
        small = compute_time_landscape(classic.name, classic.build(), silicon)
        assert small.silicon_seconds < 1.0

        bert = get_workload("mlperf_bert_inference")
        big = compute_time_landscape(
            bert.name, bert.build(), silicon, scale=bert.scale
        )
        assert big.silicon_seconds > 10.0
        assert big.simulation_years > 10.0
