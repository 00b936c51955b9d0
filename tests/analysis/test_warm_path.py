"""A warm pass reads the run cache without building launch objects.

Cache keys are digested from each workload's launch table row by row,
so a fresh harness over a warm cache has no reason to construct a
:class:`~repro.gpu.KernelLaunch` per launch.  The only launches a warm
pass may construct are the representatives of cached selections, which
``load_selection`` deserializes from their records.
"""

from __future__ import annotations

import pytest

from repro.analysis import EvaluationHarness
from repro.analysis.goldens import collect_headline_metrics

#: An MLPerf workload, a Polybench one and a near duplicate.
WORKLOADS = ("mlperf_3dunet_inference", "fdtd2d", "atax~nd1")
CELLS = [
    (name, method, None)
    for name in WORKLOADS
    for method in ("silicon", "pka_sim", "full_sim", "selection")
]
#: The caller that deserializes a cached selection's representatives.
SELECTION_RECORDS = "_launch_from_record"


class _SliceHarness(EvaluationHarness):
    """A harness whose corpus views see only :data:`WORKLOADS`."""

    def evaluations(self, suite=None):
        return [
            evaluation
            for evaluation in map(self.evaluation, WORKLOADS)
            if suite is None or evaluation.spec.suite == suite
        ]


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("warm-path-cache")
    cold = _SliceHarness(cache_dir=cache_dir)
    cold.evaluate_cells(CELLS)
    collect_headline_metrics(cold)
    return cache_dir


def test_warm_pass_builds_no_launches(warm_cache, launch_constructions):
    harness = _SliceHarness(cache_dir=warm_cache)
    harness.evaluate_cells(CELLS)
    collect_headline_metrics(harness)
    for cell in CELLS:
        harness.cell_digest_for(*cell)
    assert harness.run_cache.writes == 0  # every computed cell was cached
    assert set(launch_constructions) <= {SELECTION_RECORDS}, launch_constructions


def test_cell_digests_build_no_launches(launch_constructions):
    harness = EvaluationHarness()
    for cell in CELLS:
        harness.cell_digest_for(*cell)
    assert not launch_constructions
