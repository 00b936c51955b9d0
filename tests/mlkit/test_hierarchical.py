"""Tests for repro.mlkit.hierarchical (TBPoint's clustering substrate)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.tbpoint import _THRESHOLD_SWEEP
from repro.errors import NotFittedError
from repro.mlkit import (
    AgglomerativeClustering,
    ClusteringCapacityError,
    build_merge_tree,
)


def _blobs(seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.normal(loc, 0.05, size=(20, 2))
            for loc in ((0.0, 0.0), (5.0, 0.0), (0.0, 5.0))
        ]
    )


class TestMergeTree:
    def test_merges_count(self):
        tree = build_merge_tree(_blobs())
        assert tree.n_points == 60
        assert len(tree.merges) == 59

    def test_merge_distances_nondecreasing_average_linkage(self):
        tree = build_merge_tree(_blobs(), linkage="average")
        distances = [dist for _, _, dist in tree.merges]
        assert all(b >= a - 1e-9 for a, b in zip(distances, distances[1:]))

    def test_labels_at_k(self):
        tree = build_merge_tree(_blobs())
        labels = tree.labels_at_k(3)
        assert len(np.unique(labels)) == 3

    def test_labels_at_threshold_extremes(self):
        tree = build_merge_tree(_blobs())
        assert len(np.unique(tree.labels_at_threshold(0.0))) == 60
        assert len(np.unique(tree.labels_at_threshold(1e9))) == 1

    def test_threshold_monotone_in_cluster_count(self):
        tree = build_merge_tree(_blobs())
        counts = [
            len(np.unique(tree.labels_at_threshold(t)))
            for t in (0.01, 0.1, 1.0, 10.0)
        ]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_single_point(self):
        tree = build_merge_tree(np.zeros((1, 2)))
        assert tree.merges == ()
        assert tree.labels_at_k(1).tolist() == [0]

    def test_capacity_guard(self):
        with pytest.raises(ClusteringCapacityError):
            build_merge_tree(np.zeros((11, 2)), max_points=10)

    def test_bad_linkage(self):
        with pytest.raises(ValueError):
            build_merge_tree(np.zeros((3, 2)), linkage="ward")


class TestAgglomerativeClustering:
    def test_recovers_blobs_at_k(self):
        data = _blobs()
        labels = AgglomerativeClustering(n_clusters=3).fit_predict(data)
        blob_labels = [set(labels[i * 20 : (i + 1) * 20]) for i in range(3)]
        assert all(len(block) == 1 for block in blob_labels)
        assert len(set().union(*blob_labels)) == 3

    def test_recovers_blobs_at_threshold(self):
        data = _blobs()
        clustering = AgglomerativeClustering(distance_threshold=1.0)
        labels = clustering.fit_predict(data)
        assert clustering.n_clusters_ == 3
        assert len(np.unique(labels)) == 3

    def test_requires_exactly_one_criterion(self):
        with pytest.raises(ValueError):
            AgglomerativeClustering()
        with pytest.raises(ValueError):
            AgglomerativeClustering(n_clusters=2, distance_threshold=1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AgglomerativeClustering(n_clusters=0)
        with pytest.raises(ValueError):
            AgglomerativeClustering(distance_threshold=-1.0)

    def test_labels_property_before_fit(self):
        with pytest.raises(NotFittedError):
            _ = AgglomerativeClustering(n_clusters=2).labels

    def test_all_linkages_agree_on_clean_blobs(self):
        data = _blobs()
        for linkage in ("single", "complete", "average"):
            labels = AgglomerativeClustering(
                n_clusters=3, linkage=linkage
            ).fit_predict(data)
            assert len(np.unique(labels)) == 3

    def test_duplicate_points(self):
        data = np.repeat(np.array([[0.0, 0.0], [5.0, 5.0]]), 5, axis=0)
        labels = AgglomerativeClustering(distance_threshold=1.0).fit_predict(data)
        assert len(np.unique(labels)) == 2

    @given(st.integers(0, 1000), st.integers(2, 8))
    @settings(max_examples=20, deadline=None)
    def test_label_count_matches_request(self, seed, k):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(20, 3))
        labels = AgglomerativeClustering(n_clusters=k).fit_predict(data)
        assert len(np.unique(labels)) == k

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_agrees_with_scipy(self, seed):
        """Cross-check the dendrogram cut against scipy's implementation."""
        scipy_hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(15, 2))
        ours = AgglomerativeClustering(n_clusters=3, linkage="average")
        ours_labels = ours.fit_predict(data)
        linkage_matrix = scipy_hierarchy.linkage(data, method="average")
        scipy_labels = scipy_hierarchy.fcluster(
            linkage_matrix, t=3, criterion="maxclust"
        )
        # Same partition up to label permutation.
        ours_partition = {
            tuple(sorted(np.flatnonzero(ours_labels == label)))
            for label in np.unique(ours_labels)
        }
        scipy_partition = {
            tuple(sorted(np.flatnonzero(scipy_labels == label)))
            for label in np.unique(scipy_labels)
        }
        assert ours_partition == scipy_partition


# ---------------------------------------------------------------------------
# Differential check against the rescan-on-every-tie loop.  The reference
# below is the merge loop and union-find replay as they stood before the
# first-argmin flag; the production loop must reproduce its merges
# exactly (same pairs, same float distances) and its label numbering,
# on inputs where nearly every merge is a distance tie.
# ---------------------------------------------------------------------------


def _reference_merges(points, linkage):
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    sq_norms = np.sum(points**2, axis=1)
    dist = sq_norms[:, None] - 2.0 * (points @ points.T) + sq_norms[None, :]
    np.maximum(dist, 0.0, out=dist)
    dist = np.sqrt(dist)
    np.fill_diagonal(dist, np.inf)

    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.float64)
    row_min_val = dist.min(axis=1)
    row_min_idx = dist.argmin(axis=1)
    merges = []

    for _ in range(n - 1):
        candidate_vals = np.where(active, row_min_val, np.inf)
        i = int(np.argmin(candidate_vals))
        j = int(row_min_idx[i])
        merge_dist = float(candidate_vals[i])
        merges.append((i, j, merge_dist))

        row_i = dist[i, :]
        row_j = dist[j, :]
        if linkage == "single":
            merged = np.minimum(row_i, row_j)
        elif linkage == "complete":
            merged = np.maximum(row_i, row_j)
        else:
            total = sizes[i] + sizes[j]
            merged = (sizes[i] * row_i + sizes[j] * row_j) / total
            merged[~np.isfinite(row_i) | ~np.isfinite(row_j)] = np.inf
        merged[i] = np.inf
        merged[j] = np.inf
        dist[i, :] = merged
        dist[:, i] = merged
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        sizes[i] += sizes[j]
        active[j] = False

        row_min_val[i] = merged.min()
        row_min_idx[i] = int(merged.argmin())
        stale = active & ((row_min_idx == i) | (row_min_idx == j))
        stale[i] = False
        for row in np.flatnonzero(stale):
            row_min_val[row] = dist[row, :].min()
            row_min_idx[row] = int(dist[row, :].argmin())
        improved = active & (merged < row_min_val)
        improved[i] = False
        row_min_val[improved] = merged[improved]
        row_min_idx[improved] = i

    return tuple(merges)


def _reference_labels(n_points, merges, threshold):
    parent = np.arange(n_points)

    def find(node):
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for i, j, dist in merges:
        if not dist <= threshold:
            break
        root_i, root_j = find(i), find(j)
        if root_i != root_j:
            parent[root_j] = root_i
    roots = np.fromiter((find(k) for k in range(n_points)), dtype=np.intp)
    _, labels = np.unique(roots, return_inverse=True)
    return labels


@st.composite
def _repeated_rows(draw):
    """A few distinct rows, each repeated many times, shuffled."""
    d = draw(st.integers(1, 3))
    n_distinct = draw(st.integers(1, 6))
    distinct = draw(
        st.lists(
            st.lists(
                st.floats(-1.0, 1.0, allow_nan=False, width=32),
                min_size=d, max_size=d,
            ),
            min_size=n_distinct, max_size=n_distinct,
        )
    )
    n = draw(st.integers(2, 200))
    picks = draw(st.lists(st.integers(0, n_distinct - 1), min_size=n, max_size=n))
    return np.asarray(distinct, dtype=np.float64)[picks]


@st.composite
def _lattice_points(draw):
    """Integer-lattice points; power-of-two scales keep distances exact,
    so equal distances (not only duplicates) tie."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 200))
    coords = draw(st.lists(st.integers(-10, 10), min_size=n * d, max_size=n * d))
    scale = draw(st.sampled_from([1.0, 0.015625, 0.1]))
    return np.asarray(coords, dtype=np.float64).reshape(n, d) * scale


def _assert_matches_reference(points, linkage):
    tree = build_merge_tree(points, linkage=linkage)
    expected = _reference_merges(points, linkage)
    assert tree.merges == expected
    for threshold in _THRESHOLD_SWEEP:
        np.testing.assert_array_equal(
            tree.labels_at_threshold(float(threshold)),
            _reference_labels(len(points), expected, float(threshold)),
        )


class TestTieAwareMergeTree:
    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    @given(points=_repeated_rows())
    @settings(max_examples=40, deadline=None)
    def test_repeated_rows_match_reference(self, linkage, points):
        _assert_matches_reference(points, linkage)

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    @given(points=_lattice_points())
    @settings(max_examples=40, deadline=None)
    def test_lattice_points_match_reference(self, linkage, points):
        _assert_matches_reference(points, linkage)

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_tbpoint_shaped_duplicates_match_reference(self, linkage):
        """gramschmidt's shape: one feature, 21 distinct values."""
        rng = np.random.default_rng(7)
        values = rng.uniform(-1.0, 1.0, size=21)
        points = values[rng.integers(0, 21, size=400)][:, None]
        _assert_matches_reference(points, linkage)

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_tie_ahead_of_cached_index_matches_reference(self, linkage):
        """Point 0 is 10 from points 2 and 3, so its cache settles on 2.
        Merging 3 into 1 ties column 1 ahead of it (single linkage), and
        merging 4 into 2 keeps the tie: a rescan now answers column 1."""
        points = np.array([[0.0], [-11.0], [10.0], [-10.0], [15.0]])
        _assert_matches_reference(points, linkage)

    def test_labels_at_k_numbering_matches_reference(self):
        points = np.repeat(np.arange(5.0)[:, None], 8, axis=0)
        tree = build_merge_tree(points)
        for k in range(1, 41):
            n_merges = len(points) - k
            expected = _reference_labels(
                len(points), tree.merges[:n_merges], np.inf
            )
            np.testing.assert_array_equal(tree.labels_at_k(k), expected)
