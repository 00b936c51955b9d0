"""Agglomerative (hierarchical) clustering.

TBPoint — the prior-work baseline PKA is compared against — groups kernels
with hierarchical clustering cut at a hand-tuned distance threshold.  The
implementation here builds the full merge tree once (O(n^2) memory for the
distance matrix, O(n^2) time via cached row minima) and can then be cut at
any number of thresholds cheaply, which is what TBPoint's 20-threshold
sweep needs.  The time bound holds on duplicate-heavy inputs too: a cached
row minimum is rescanned only when a merge may have moved the row's first
argmin, not on every distance-0 tie.

Rows may carry multiplicities (``counts=``): a cluster's starting size is
its count, which average linkage weights by, so a tree over the distinct
rows of a duplicate-heavy matrix stands in for the tree over every row.
TBPoint builds its O(n^2) matrix over distinct feature rows that way.

The initial distance matrix is exactly symmetric, so every merge joins
roots ``i < j`` and cluster labels are numbered by each cluster's smallest
member.

The O(n^2) distance matrix is exactly the scalability wall the paper
highlights: the implementation refuses inputs above ``max_points`` to make
that wall explicit rather than silently thrash.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NotFittedError, ReproError
from repro.mlkit._checks import require_finite

__all__ = ["AgglomerativeClustering", "ClusteringCapacityError", "MergeTree"]

_LINKAGES = ("single", "complete", "average")


class ClusteringCapacityError(ReproError):
    """Raised when hierarchical clustering is asked to exceed its capacity."""


@dataclass(frozen=True)
class MergeTree:
    """The full agglomeration history of one dataset.

    ``merges[t] = (i, j, distance)`` records that original-cluster roots
    ``i`` and ``j`` merged (into ``i``) at the given linkage distance, in
    non-decreasing distance order for single/average/complete linkage on
    a fixed dataset.  Both ``i`` and ``j`` are live roots when they merge
    and ``i`` stays the root afterwards, so every merge joins two
    clusters and cutting the tree is a prefix of ``merges``.  Since
    ``i < j``, a root is its cluster's smallest member.
    """

    n_points: int
    merges: tuple[tuple[int, int, float], ...]

    def labels_at_threshold(self, threshold: float) -> np.ndarray:
        """Cluster labels obtained by merging while distance <= threshold."""
        n_merges = next(
            (t for t, (_, _, dist) in enumerate(self.merges) if not dist <= threshold),
            len(self.merges),
        )
        return self._replay(n_merges)

    def labels_at_k(self, n_clusters: int) -> np.ndarray:
        """Cluster labels obtained by merging down to ``n_clusters``."""
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        return self._replay(max(0, self.n_points - n_clusters))

    def _replay(self, n_merges: int) -> np.ndarray:
        """Labels after the first ``n_merges`` merges, numbered by the
        ascending index of each cluster's root (its smallest member)."""
        parent = np.arange(self.n_points)
        if n_merges:
            pairs = np.array([(i, j) for i, j, _ in self.merges[:n_merges]])
            parent[pairs[:, 1]] = pairs[:, 0]
        # Pointer jumping: every node reaches its root in O(log depth) passes.
        while True:
            grandparent = parent[parent]
            if np.array_equal(grandparent, parent):
                break
            parent = grandparent
        _, labels = np.unique(parent, return_inverse=True)
        return labels


def build_merge_tree(
    points: np.ndarray,
    linkage: str = "average",
    max_points: int = 20_000,
    *,
    counts: np.ndarray | None = None,
) -> MergeTree:
    """Agglomerate ``points`` all the way down to one cluster.

    ``counts`` gives each row's multiplicity (default 1 per row): it seeds
    the cluster sizes that average linkage weights by, so the tree over a
    matrix's distinct rows with their counts cuts into the same partitions
    as the tree over every row (for average linkage, up to rounding at a
    threshold within about 1e-9 of a merge height).  ``max_points``
    bounds the rows given, not the counts.

    Runs in O(n^2) time using cached per-row minima over the in-place
    updated distance matrix.  Each merge changes only columns ``i`` and
    ``j`` of the other rows, so a cached minimum is always the row's true
    minimum; a per-row flag records when its cached index is also the
    row's *first* argmin.  That invariant settles distance ties (which
    dominate duplicate-heavy inputs) without a full-row rescan while
    reproducing exactly the merges a rescan-on-every-tie loop produces.
    """
    points = require_finite(points, "build_merge_tree")
    if points.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if linkage not in _LINKAGES:
        raise ValueError(f"linkage must be one of {_LINKAGES}")
    n = points.shape[0]
    if n == 0:
        raise ValueError("cannot cluster zero points")
    if counts is None:
        sizes = np.ones(n, dtype=np.float64)
    else:
        sizes = np.array(counts, dtype=np.float64)
        if sizes.shape != (n,):
            raise ValueError(f"counts must have one entry per row ({n})")
        if not (np.isfinite(sizes).all() and (sizes > 0).all()):
            raise ValueError("counts must be finite and positive")
    if n > max_points:
        raise ClusteringCapacityError(
            f"hierarchical clustering of {n} points exceeds the "
            f"{max_points}-point capacity (the scalability wall "
            "PKA's k-means avoids)"
        )
    if n == 1:
        return MergeTree(n_points=1, merges=())

    # Full pairwise distance matrix with inf diagonal, built in place so
    # the n x n Gram product is the only n^2 buffer ever allocated.  The
    # Gram product is exactly symmetric; adding ``s_i + s_j`` as one term
    # keeps it so, where adding the two norms one at a time can leave
    # ``d[a, b]`` and ``d[b, a]`` an ulp apart and let a merge keep the
    # larger index as the root.
    sq_norms = np.sum(points**2, axis=1)
    dist = points @ points.T
    dist *= -2.0
    for row in range(n):
        dist[row] += sq_norms[row] + sq_norms
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, np.inf)

    active = np.ones(n, dtype=bool)
    # Cached minimum of each active row (value and column index), and
    # whether that index is known to be the row's *first* argmin.
    row_min_val = dist.min(axis=1)
    row_min_idx = dist.argmin(axis=1)
    row_min_first = np.ones(n, dtype=bool)
    merges: list[tuple[int, int, float]] = []

    for _ in range(n - 1):
        candidate_vals = np.where(active, row_min_val, np.inf)
        i = int(np.argmin(candidate_vals))
        j = int(row_min_idx[i])
        merge_dist = float(candidate_vals[i])
        merges.append((i, j, merge_dist))

        # Merge j into i with the chosen linkage update.
        row_i = dist[i, :]
        row_j = dist[j, :]
        if linkage == "single":
            merged = np.minimum(row_i, row_j)
        elif linkage == "complete":
            merged = np.maximum(row_i, row_j)
        else:  # size-weighted average linkage
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

        # Refresh cached minima.  Row i changed entirely and is rescanned.
        row_min_val[i] = merged.min()
        row_min_idx[i] = int(merged.argmin())
        row_min_first[i] = True
        # Any other row only changed in columns i (now ``merged``) and j
        # (now inf).  A row whose cached minimum pointed at i or j would
        # rescan to its first argmin; that is provably column i when the
        # merged distance undercuts the old minimum, or ties it with no
        # earlier column holding the same value (the cached index was the
        # first argmin and is no earlier than i).
        stale = active & ((row_min_idx == i) | (row_min_idx == j))
        stale[i] = False
        stale_rows = np.flatnonzero(stale)
        old_val = row_min_val[stale_rows]
        new_val = merged[stale_rows]
        keeps_i = (new_val < old_val) | (
            (new_val == old_val)
            & row_min_first[stale_rows]
            & (row_min_idx[stale_rows] >= i)
        )
        row_min_val[stale_rows[keeps_i]] = new_val[keeps_i]
        row_min_idx[stale_rows[keeps_i]] = i
        for row in stale_rows[~keeps_i]:
            row_min_val[row] = dist[row, :].min()
            row_min_idx[row] = int(dist[row, :].argmin())
        row_min_first[stale_rows] = True
        # A tie at column i ahead of the cached index leaves the cache on
        # a later column (the update below is strict), so it is no longer
        # the first argmin.
        row_min_first[(merged == row_min_val) & (row_min_idx > i)] = False
        # Rows for which the new row i is now closer than their cache.
        improved = active & (merged < row_min_val)
        improved[i] = False
        row_min_val[improved] = merged[improved]
        row_min_idx[improved] = i
        row_min_first[improved] = True

    return MergeTree(n_points=n, merges=tuple(merges))


class AgglomerativeClustering:
    """Bottom-up clustering cut at a distance threshold or a cluster count.

    Parameters
    ----------
    n_clusters:
        Stop merging once this many clusters remain.  Mutually exclusive
        with ``distance_threshold``.
    distance_threshold:
        Stop merging once the cheapest merge distance exceeds this value
        (TBPoint's "sigma"-style parameter).
    linkage:
        ``"single"``, ``"complete"`` or ``"average"`` linkage.
    max_points:
        Guard rail on the O(n^2) distance matrix.
    """

    def __init__(
        self,
        n_clusters: int | None = None,
        distance_threshold: float | None = None,
        linkage: str = "average",
        max_points: int = 20_000,
    ) -> None:
        if (n_clusters is None) == (distance_threshold is None):
            raise ValueError(
                "exactly one of n_clusters / distance_threshold must be given"
            )
        if n_clusters is not None and n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if distance_threshold is not None and distance_threshold < 0:
            raise ValueError("distance_threshold must be >= 0")
        if linkage not in _LINKAGES:
            raise ValueError(f"linkage must be one of {_LINKAGES}")
        self.n_clusters = n_clusters
        self.distance_threshold = distance_threshold
        self.linkage = linkage
        self.max_points = max_points
        self.labels_: np.ndarray | None = None
        self.n_clusters_: int | None = None

    def fit(self, points: np.ndarray) -> "AgglomerativeClustering":
        tree = build_merge_tree(points, self.linkage, self.max_points)
        if self.n_clusters is not None:
            self.labels_ = tree.labels_at_k(self.n_clusters)
        else:
            assert self.distance_threshold is not None
            self.labels_ = tree.labels_at_threshold(self.distance_threshold)
        self.n_clusters_ = int(self.labels_.max()) + 1
        return self

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        self.fit(points)
        assert self.labels_ is not None
        return self.labels_

    @property
    def labels(self) -> np.ndarray:
        if self.labels_ is None:
            raise NotFittedError("AgglomerativeClustering used before fit")
        return self.labels_
