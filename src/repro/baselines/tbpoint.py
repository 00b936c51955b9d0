"""TBPoint-style sampled simulation (the prior-work baseline).

TBPoint [Huang et al., IPDPS'14] reduces the number of kernels simulated
by hierarchically clustering per-kernel feature vectors obtained from
*full functional simulation*, cutting the dendrogram at a hand-tuned
distance threshold.  Two properties separate it from PKS and drive the
paper's comparison:

* the feature vectors require functionally simulating the entire
  application first, so the method only applies to workloads that are
  completable — hierarchical clustering additionally needs an O(n^2)
  distance matrix, which is the scalability wall
  (:class:`repro.mlkit.ClusteringCapacityError`) at MLPerf kernel counts.
  The matrix here is over the distinct feature rows, each weighted by its
  launch count (the same partitions as over every launch, since repeated
  kernel shapes are exact duplicates), but the wall is still enforced on
  the launch count, as for the method as published;
* the distance threshold needs per-application tuning; in lieu of hand
  tuning, this implementation sweeps 20 thresholds between 0.01 and 0.2
  (as the paper does for its TBPoint results) and keeps the best by the
  same projected-error criterion PKS uses;
* representatives are cluster medoids rather than first-chronological
  kernels, which is the conservative choice that costs TBPoint its 2.19x
  extra simulation time in Figure 7.

Cluster labels are numbered by each cluster's first launch.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.features import FeaturePipeline, profile_feature_matrix
from repro.errors import ReproError
from repro.gpu.kernels import KernelLaunch
from repro.mlkit import ClusteringCapacityError, build_merge_tree
from repro.profiling.detailed import DetailedProfile
from repro.sim.perfmodel import KERNEL_LAUNCH_OVERHEAD
from repro.sim.simulator import Simulator
from repro.sim.stats import AppRunResult

__all__ = ["TBPointSelection", "select_tbpoint", "simulate_tbpoint"]

_THRESHOLD_SWEEP = np.linspace(0.01, 0.2, 20)


@dataclass(frozen=True)
class TBPointSelection:
    """TBPoint's chosen clustering: representative ids and weights."""

    workload: str
    total_launches: int
    threshold: float
    n_clusters: int
    representative_launch_ids: tuple[int, ...]
    weights: tuple[int, ...]
    projection_error: float


def select_tbpoint(
    workload_name: str,
    profiles: Sequence[DetailedProfile],
    *,
    target_error: float = 0.05,
    max_points: int = 20_000,
) -> TBPointSelection:
    """Cluster kernels TBPoint-style with the 20-threshold sweep.

    Raises :class:`ClusteringCapacityError` for kernel counts beyond the
    hierarchical-clustering capacity — TBPoint does not scale to MLPerf.
    """
    if not profiles:
        raise ReproError("TBPoint requires at least one profile")
    if len(profiles) > max_points:
        raise ClusteringCapacityError(
            f"TBPoint cannot cluster {len(profiles)} kernels "
            f"(capacity {max_points})"
        )

    counters = profile_feature_matrix(profiles)
    pipeline = FeaturePipeline()
    reduced = pipeline.fit_transform(counters)
    # Normalize to unit scale so the absolute threshold sweep is
    # comparable across applications.
    spread = float(np.abs(reduced).max()) or 1.0
    normalized = reduced / spread
    cycles = np.asarray([profile.cycles for profile in profiles])
    actual_total = float(cycles.sum())

    # Agglomerate the distinct rows once, weighted by multiplicity; cut the
    # same dendrogram at every sweep threshold and map each cut back to
    # the launches.
    rows, counts, launch_rows = _distinct_rows(normalized)
    tree = build_merge_tree(
        rows, linkage="average", max_points=max_points, counts=counts
    )
    best: TBPointSelection | None = None
    for threshold in _THRESHOLD_SWEEP:
        labels = tree.labels_at_threshold(float(threshold))[launch_rows]
        selection = _selection_for(
            workload_name, profiles, normalized, labels, cycles, actual_total,
            float(threshold),
        )
        if best is None or _better(selection, best, target_error):
            best = selection
    assert best is not None
    return best


def _distinct_rows(
    matrix: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``matrix``'s distinct rows in order of first occurrence, each one's
    count, and the index of every row of ``matrix`` into them."""
    _, first, inverse, counts = np.unique(
        matrix, axis=0, return_index=True, return_inverse=True,
        return_counts=True,
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return matrix[first[order]], counts[order], rank[inverse.reshape(-1)]


def _better(
    candidate: TBPointSelection, incumbent: TBPointSelection, target: float
) -> bool:
    """Prefer fewer clusters among selections meeting the error target,
    otherwise lower error."""
    candidate_ok = candidate.projection_error <= target
    incumbent_ok = incumbent.projection_error <= target
    if candidate_ok and incumbent_ok:
        return candidate.n_clusters < incumbent.n_clusters
    if candidate_ok != incumbent_ok:
        return candidate_ok
    return candidate.projection_error < incumbent.projection_error


def _selection_for(
    workload_name: str,
    profiles: Sequence[DetailedProfile],
    normalized: np.ndarray,
    labels: np.ndarray,
    cycles: np.ndarray,
    actual_total: float,
    threshold: float,
) -> TBPointSelection:
    representative_ids: list[int] = []
    weights: list[int] = []
    projected = 0.0
    for cluster in sorted(np.unique(labels)):
        members = np.flatnonzero(labels == cluster)
        centroid = normalized[members].mean(axis=0)
        distances = np.linalg.norm(normalized[members] - centroid, axis=1)
        medoid = int(members[int(np.argmin(distances))])
        representative_ids.append(profiles[medoid].launch_id)
        weights.append(len(members))
        projected += float(cycles[medoid]) * len(members)
    error = abs(projected - actual_total) / actual_total if actual_total else 0.0
    return TBPointSelection(
        workload=workload_name,
        total_launches=len(profiles),
        threshold=threshold,
        n_clusters=len(representative_ids),
        representative_launch_ids=tuple(representative_ids),
        weights=tuple(weights),
        projection_error=error,
    )


def simulate_tbpoint(
    selection: TBPointSelection,
    launches: Sequence[KernelLaunch],
    simulator: Simulator,
    *,
    warmup_fraction: float = 0.5,
) -> AppRunResult:
    """Simulate TBPoint's representatives and project the application.

    TBPoint's intra-kernel reduction needs per-thread-block statistics
    from full simulation, so representatives here are simulated whole,
    plus a ``warmup_fraction`` of extra simulated cycles modelling the
    detailed-warmup runs its methodology prescribes — together the source
    of its conservative (2.19x-more-simulation) cost profile.
    """
    by_id = {launch.launch_id: launch for launch in launches}
    total_cycles = KERNEL_LAUNCH_OVERHEAD * selection.total_launches
    total_bytes = 0.0
    simulated = 0.0
    for launch_id, weight in zip(
        selection.representative_launch_ids, selection.weights, strict=True
    ):
        launch = by_id[launch_id]
        result = simulator.run_kernel(launch)
        total_cycles += result.cycles * weight
        total_bytes += result.dram_bytes * weight
        simulated += result.cycles * (1.0 + warmup_fraction)
    return AppRunResult(
        workload=selection.workload,
        gpu=simulator.gpu,
        method="tbpoint",
        total_cycles=total_cycles,
        # Instruction totals are trace-exact regardless of sampling.
        total_instructions=sum(launch.warp_instructions for launch in launches),
        total_dram_bytes=total_bytes,
        simulated_cycles=simulated,
    )
