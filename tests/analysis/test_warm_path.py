"""A warm pass reads the run cache without building anything.

Cache keys are made from each workload's launch digests, which the run
cache's launch memo remembers, so a fresh harness over a warm cache
calls no workload builder at all — and so constructs no
:class:`~repro.gpu.KernelLaunch`.  The only launches a warm pass may
construct are the representatives of cached selections, which
``load_selection`` deserializes from their records.  Without a memo,
digests are taken from launch tables row by row, still without a
launch object.
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


def test_warm_pass_builds_no_launches(
    warm_cache, launch_constructions, builder_calls
):
    harness = _SliceHarness(cache_dir=warm_cache)
    harness.evaluate_cells(CELLS)
    collect_headline_metrics(harness)
    for cell in CELLS:
        harness.cell_digest_for(*cell)
    assert harness.run_cache.writes == 0  # every computed cell was cached
    assert not builder_calls, builder_calls
    assert set(launch_constructions) <= {SELECTION_RECORDS}, launch_constructions


def test_first_key_over_a_warm_cache_calls_no_builder(tmp_path, builder_calls):
    cell = ("mlperf_bert_inference", "full_sim")
    digest = EvaluationHarness(cache_dir=tmp_path).cell_digest_for(*cell)
    assert builder_calls == {"mlperf_bert_inference": 1}
    builder_calls.clear()
    assert EvaluationHarness(cache_dir=tmp_path).cell_digest_for(*cell) == digest
    assert not builder_calls


def test_cell_digests_build_no_launches(launch_constructions):
    harness = EvaluationHarness()
    for cell in CELLS:
        harness.cell_digest_for(*cell)
    assert not launch_constructions
