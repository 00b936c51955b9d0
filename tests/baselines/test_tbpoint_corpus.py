"""Distinct-row TBPoint against the full-matrix reference on the corpus.

For every completable corpus app, TBPoint's selection must equal the one
made by the verbatim full-matrix copy in ``tests/_diff.py``, and under
single, complete and average linkage the tree over the distinct feature
rows, weighted by count, must keep the smaller root at every merge and cut
into the full-matrix tree's partition at each of the 20 sweep thresholds.

The reference trees over gramschmidt's 6411 launches take about 12 s, so
that app carries the ``differential`` marker: the default test run
deselects it and CI's differential step runs it with ``-m ""``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.tbpoint import _THRESHOLD_SWEEP, _distinct_rows, select_tbpoint
from repro.core.features import FeaturePipeline, profile_feature_matrix
from repro.gpu import VOLTA_V100
from repro.mlkit import build_merge_tree
from repro.profiling import DetailedProfiler
from repro.sim import SiliconExecutor
from repro.workloads import get_workload, iter_workloads
from tests._diff import reference_build_merge_tree, reference_select_tbpoint

_SLOW_APPS = {"gramschmidt"}

_APPS = [
    pytest.param(
        spec.name,
        marks=[pytest.mark.differential] if spec.name in _SLOW_APPS else [],
    )
    for spec in iter_workloads()
    if spec.completable
]


def _profiles(name):
    launches = get_workload(name).build("volta")
    return DetailedProfiler(SiliconExecutor(VOLTA_V100)).profile(launches)


def _by_first_member(labels):
    """Renumber labels by each cluster's first member, so equal
    partitions compare equal whatever their numbering."""
    _, first = np.unique(labels, return_index=True)
    return np.argsort(np.argsort(first))[labels]


def test_corpus_has_every_completable_app():
    assert len(_APPS) == 140


@pytest.mark.parametrize("name", _APPS)
def test_matches_full_matrix_reference(name):
    profiles = _profiles(name)
    assert select_tbpoint(name, profiles) == reference_select_tbpoint(
        name, profiles
    )

    # The feature matrix select_tbpoint clusters.
    reduced = FeaturePipeline().fit_transform(profile_feature_matrix(profiles))
    normalized = reduced / (float(np.abs(reduced).max()) or 1.0)
    rows, counts, inverse = _distinct_rows(normalized)
    for linkage in ("single", "complete", "average"):
        distinct = build_merge_tree(rows, linkage=linkage, counts=counts)
        assert all(i < j for i, j, _ in distinct.merges)
        full = reference_build_merge_tree(normalized, linkage=linkage)
        for threshold in _THRESHOLD_SWEEP:
            threshold = float(threshold)
            np.testing.assert_array_equal(
                _by_first_member(distinct.labels_at_threshold(threshold)[inverse]),
                _by_first_member(full.labels_at_threshold(threshold)),
                err_msg=f"{name} {linkage} linkage at {threshold}",
            )
