"""Tests for the TBPoint baseline."""

from __future__ import annotations

import pytest

from repro.baselines import select_tbpoint, simulate_tbpoint
from repro.errors import ReproError
from repro.gpu import KernelLaunch, VOLTA_V100
from repro.mlkit import ClusteringCapacityError
from repro.profiling import DetailedProfiler
from repro.sim import SiliconExecutor
from repro.workloads import compute_spec, get_workload, tiny_spec

HEAVY = compute_spec("tb_heavy", flops=5_000.0, shared=400.0)
LIGHT = tiny_spec("tb_light", work=50.0)


def _profiles(launches):
    return DetailedProfiler(SiliconExecutor(VOLTA_V100)).profile(launches)


def _two_family_app(count_each=15):
    launches = []
    for index in range(count_each * 2):
        spec, grid = (HEAVY, 1_000) if index % 2 == 0 else (LIGHT, 4)
        launches.append(KernelLaunch(spec=spec, grid_blocks=grid, launch_id=index))
    return launches


class TestSelectTBPoint:
    def test_finds_the_two_families(self):
        launches = _two_family_app()
        selection = select_tbpoint("app", _profiles(launches))
        assert selection.n_clusters == 2
        assert sorted(selection.weights) == [15, 15]
        assert selection.projection_error < 0.05

    def test_threshold_from_the_paper_sweep(self):
        launches = _two_family_app()
        selection = select_tbpoint("app", _profiles(launches))
        assert 0.01 <= selection.threshold <= 0.2

    def test_representatives_are_medoids_not_first(self):
        """TBPoint picks cluster medoids; with identical members any member
        qualifies, but ids must belong to the right families."""
        launches = _two_family_app()
        selection = select_tbpoint("app", _profiles(launches))
        by_id = {launch.launch_id: launch for launch in launches}
        names = {
            by_id[launch_id].spec.name
            for launch_id in selection.representative_launch_ids
        }
        assert names == {"tb_heavy", "tb_light"}

    def test_capacity_wall(self):
        launches = _two_family_app(count_each=30)
        with pytest.raises(ClusteringCapacityError):
            select_tbpoint("app", _profiles(launches), max_points=50)

    def test_mlperf_scale_hits_the_wall(self):
        """The scalability failure the paper reports: TBPoint cannot
        cluster MLPerf kernel counts."""
        spec = get_workload("mlperf_ssd_training")
        launches = spec.build()
        profiles = _profiles(launches[:25_000])
        with pytest.raises(ClusteringCapacityError):
            select_tbpoint(spec.name, profiles)

    def test_empty_raises(self):
        with pytest.raises(ReproError):
            select_tbpoint("app", [])


class TestPinnedCorpusSelections:
    """Duplicate-heavy corpus apps, where nearly every merge is a
    distance-0 tie: gramschmidt's feature matrix is 6411x1 with 21
    distinct rows, fdtd2d's is 1500x2 with 3.  The expected selections
    were recorded from the rescan-on-every-tie merge loop."""

    @pytest.mark.parametrize(
        ("name", "expected"),
        [
            (
                "gramschmidt",
                (
                    "0.16", 4, (0, 2959, 1613, 4913),
                    (2520, 1754, 1637, 500), "0.033134995746720936",
                ),
            ),
            (
                "fdtd2d",
                (
                    "0.01", 3, (0, 1, 2), (500, 500, 500),
                    "1.2396336535117093e-16",
                ),
            ),
        ],
    )
    def test_selection_is_pinned(self, name, expected):
        launches = get_workload(name).build("volta")
        selection = select_tbpoint(name, _profiles(launches))
        assert (
            repr(selection.threshold),
            selection.n_clusters,
            selection.representative_launch_ids,
            selection.weights,
            repr(selection.projection_error),
        ) == expected


class TestSimulateTBPoint:
    def test_projection_close_to_full_sim(self, faithful_simulator):
        launches = _two_family_app()
        selection = select_tbpoint("app", _profiles(launches))
        run = simulate_tbpoint(selection, launches, faithful_simulator)
        full = faithful_simulator.run_full("app", launches)
        error = abs(run.total_cycles - full.total_cycles) / full.total_cycles
        assert error < 0.05

    def test_more_conservative_than_sampled_cost_alone(self, faithful_simulator):
        """The warmup fraction makes TBPoint pay extra simulation."""
        launches = _two_family_app()
        selection = select_tbpoint("app", _profiles(launches))
        lean = simulate_tbpoint(
            selection, launches, faithful_simulator, warmup_fraction=0.0
        )
        standard = simulate_tbpoint(selection, launches, faithful_simulator)
        assert standard.simulated_cycles == pytest.approx(
            1.5 * lean.simulated_cycles
        )

    def test_method_label(self, faithful_simulator):
        launches = _two_family_app()
        selection = select_tbpoint("app", _profiles(launches))
        run = simulate_tbpoint(selection, launches, faithful_simulator)
        assert run.method == "tbpoint"
