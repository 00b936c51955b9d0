"""Cross-workload semantic cache: similarity transfer above the digest cache.

The content-addressed :class:`~repro.analysis.persistence.RunCache`
answers only *bit-identical* resubmissions: change one instruction-mix
field by a percent and the launch digest — and therefore the cell digest
— changes, so a behaviourally near-identical application pays for a full
simulation again.  Real serving traffic is full of such near duplicates
(recompiled binaries, re-traced runs, tuned variants of one model), and
the paper's own premise — kernels with similar PKS feature vectors have
similar performance — says most of that work is redundant.

This module is the layer that recovers it.  Every *computed* run is
summarized into the **similarity index**: its launch stream is grouped by
kernel signature (clustered down with the mlkit k-means used by PKS when
an app has pathologically many distinct kernels), and each group is
stored as a raw Table-2 counter centroid plus its warp-instruction mass,
alongside the donor app's realized cycles-per-warp-instruction and
DRAM-bytes-per-warp-instruction rates.  On a digest miss the submission's
kernels are projected the same way and matched against the index:

* **coverage** — every query group must lie within
  ``transfer_threshold`` of some indexed group, where distance is the
  mean absolute difference of log-compressed counters (≈ mean relative
  counter deviation, so the threshold is interpretable and stable as the
  index grows);
* **bound** — the modeled transfer error
  ``floor + safety * Σ share_g * lipschitz * dist_g`` must stay within
  ``max_error_bound``.

When both hold, the query is answered by **transfer**: each group's
cycles are priced at its nearest donor's rate times the query's own warp
instructions (per-launch overhead added back), and the answer carries the
modeled bound so callers can judge it.  Otherwise the lookup
**escalates** and the DES runs as before.  Transfer answers are memoized
in memory only and never written back to the digest cache — the exact
cache stays exact.

Partitions are keyed by ``method @ gpu`` inside a per-context state
document, so a transfer can only ever draw on donors simulated under the
same method, GPU config and harness context fingerprint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.approx import ApproxTier, json_object
from repro.core.features import FeaturePipeline
from repro.errors import ReproError
from repro.gpu.kernels import KernelLaunch
from repro.mlkit import KMeans, MiniBatchKMeans
from repro.profiling.detailed import FEATURE_NAMES, collect_counters
from repro.sim.perfmodel import KERNEL_LAUNCH_OVERHEAD
from repro.sim.stats import AppRunResult

__all__ = [
    "SEMCACHE_STATE_VERSION",
    "TRANSFERABLE_METHODS",
    "SemanticCache",
    "SemanticCacheConfig",
    "TransferResult",
]

#: Bump when the state document layout changes; mismatched states are
#: discarded (the index is a derived structure — rebuilding it only
#: costs warm-up, never correctness).
SEMCACHE_STATE_VERSION = 1

#: Methods whose results scale with the application's instruction stream
#: and may therefore donate to / receive from the index.  Selection
#: cells are not runs, and first_1b's budget-truncation semantics break
#: the rate model.
TRANSFERABLE_METHODS = (
    "silicon",
    "pks_silicon",
    "full_sim",
    "pks_sim",
    "pka_sim",
    "pka_sim_faithful",
    "tbpoint_sim",
)


@dataclass(frozen=True)
class TransferResult(AppRunResult):
    """An :class:`AppRunResult` answered by similarity transfer.

    ``simulated_cycles`` is zero — no simulator ran.
    ``transfer_error_bound`` is the modeled *relative* error bound on
    ``total_cycles`` advertised to the caller; ``transferred_from``
    names the donor workloads whose rates priced the answer.
    """

    transfer_error_bound: float = 0.0
    transferred_from: tuple[str, ...] = ()


@dataclass(frozen=True)
class SemanticCacheConfig:
    """Tuning knobs of the similarity-transfer layer.

    ``transfer_threshold`` is the coverage radius in mean-absolute
    log-counter distance — roughly the mean relative counter deviation a
    query kernel may have from its nearest indexed kernel (0.25 ≈ "every
    counter within ~30%" on average).  ``error_floor`` absorbs the
    irreducible per-kernel idiosyncrasy of the simulator's modeling
    error; ``lipschitz`` converts feature distance to predicted-cycle
    error; ``safety_factor`` widens the advertised bound over the model.
    ``max_error_bound`` escalates answers whose bound is too loose to be
    useful.  ``max_groups`` caps per-app summarization (k-means kicks in
    above it); ``max_apps_per_partition`` bounds index growth FIFO-style.
    """

    transfer_threshold: float = 0.25
    max_error_bound: float = 0.35
    error_floor: float = 0.15
    lipschitz: float = 1.0
    safety_factor: float = 2.0
    max_groups: int = 12
    max_apps_per_partition: int = 64
    methods: tuple[str, ...] = TRANSFERABLE_METHODS

    def __post_init__(self) -> None:
        if self.transfer_threshold <= 0:
            raise ReproError("transfer_threshold must be > 0")
        if self.max_error_bound <= 0:
            raise ReproError("max_error_bound must be > 0")
        if self.error_floor < 0 or self.lipschitz < 0:
            raise ReproError("error_floor and lipschitz must be >= 0")
        if self.safety_factor < 1.0:
            raise ReproError("safety_factor must be >= 1")
        if self.max_groups < 1:
            raise ReproError("max_groups must be >= 1")
        if self.max_apps_per_partition < 1:
            raise ReproError("max_apps_per_partition must be >= 1")


@dataclass(frozen=True)
class _GroupRow:
    """One indexed (or query) kernel group: counters + instruction mass."""

    counters: tuple[float, ...]
    warp_instructions: float
    launches: int


@dataclass
class _AppEntry:
    """One donor application inside a partition.

    Never changed once built (a re-ingested digest gets a new entry), so
    its state renders once, on the first persist that holds it.
    """

    workload: str
    digest: str
    cycles_rate: float  # cycles per warp instruction, overhead excluded
    dram_rate: float  # DRAM bytes per warp instruction
    total_warp_instructions: float
    total_launches: int
    rows: list[_GroupRow] = field(default_factory=list)

    @cached_property
    def text(self) -> str:
        """The entry's persisted state, as ``json.dumps(..., sort_keys=True)``."""
        return json.dumps(
            {
                "workload": self.workload,
                "cycles_rate": self.cycles_rate,
                "dram_rate": self.dram_rate,
                "total_warp_instructions": self.total_warp_instructions,
                "total_launches": self.total_launches,
                "rows": [
                    {
                        "counters": list(row.counters),
                        "warp_instructions": row.warp_instructions,
                        "launches": row.launches,
                    }
                    for row in self.rows
                ],
            },
            sort_keys=True,
        )


def _group_launches(
    launches: list[KernelLaunch], generation: str, max_groups: int
) -> list[_GroupRow]:
    """Summarize a launch stream into at most ``max_groups`` rows.

    Launches are grouped by spec signature (the first launch of a
    signature donates the representative counter vector — symmetric
    between donor and query because near-duplicate derivation preserves
    stream order).  Streams with more distinct kernels than
    ``max_groups`` are clustered down with the same feature pipeline +
    k-means machinery PKS uses, merging counter centroids
    instruction-weighted.
    """
    order: list[int] = []
    reps: dict[int, tuple[float, ...]] = {}
    mass: dict[int, float] = {}
    count: dict[int, int] = {}
    for launch in launches:
        signature = launch.spec.signature()
        if signature not in reps:
            order.append(signature)
            reps[signature] = collect_counters(launch, generation)
            mass[signature] = 0.0
            count[signature] = 0
        mass[signature] += launch.warp_instructions
        count[signature] += 1
    rows = [
        _GroupRow(
            counters=reps[signature],
            warp_instructions=mass[signature],
            launches=count[signature],
        )
        for signature in order
    ]
    if len(rows) <= max_groups:
        return rows
    matrix = np.asarray([row.counters for row in rows], dtype=np.float64)
    reduced = FeaturePipeline().fit_transform(matrix)
    if len(rows) > 256:
        clusterer = MiniBatchKMeans(n_clusters=max_groups, clamp_k=True)
    else:
        clusterer = KMeans(n_clusters=max_groups, clamp_k=True)
    labels = clusterer.fit_predict(reduced)
    merged: list[_GroupRow] = []
    for label in sorted(set(labels.tolist())):
        members = [row for row, l in zip(rows, labels, strict=True) if l == label]
        weights = np.asarray([max(row.warp_instructions, 1.0) for row in members])
        centroid = np.average(
            np.asarray([row.counters for row in members]),
            axis=0,
            weights=weights,
        )
        merged.append(
            _GroupRow(
                counters=tuple(float(v) for v in centroid),
                warp_instructions=float(
                    sum(row.warp_instructions for row in members)
                ),
                launches=sum(row.launches for row in members),
            )
        )
    return merged


def _dist_matrix(queries: list[_GroupRow], donors: list[_GroupRow]) -> np.ndarray:
    """Mean absolute log-counter difference (≈ mean relative deviation)
    of every (query, donor) row pair, as one ``queries × donors`` matrix.

    One broadcast over C-contiguous float64 operands: numpy reduces the
    contiguous counter axis pairwise, exactly as it reduces one row
    pair's 12-vector, so every entry equals the per-pair mean bit for bit.
    """
    query = np.log1p(np.asarray([row.counters for row in queries], dtype=np.float64))
    donor = np.log1p(np.asarray([row.counters for row in donors], dtype=np.float64))
    return np.abs(query[:, None, :] - donor[None, :, :]).mean(axis=2)


def _nearest_donors(
    query: list[_GroupRow], partition: dict[str, _AppEntry]
) -> list[tuple[_AppEntry, float]]:
    """Each query row's nearest donor: ``(owning entry, distance)``.

    Donor rows are stacked in partition order (entry insertion order,
    then row order) and searched in one pass; ``argmin`` takes the first
    minimum, so a tie goes to the earliest donor row.  Empty when the
    partition holds no rows.
    """
    owners = [entry for entry in partition.values() for _row in entry.rows]
    if not owners:
        return []
    distances = _dist_matrix(
        query, [row for entry in partition.values() for row in entry.rows]
    )
    nearest = distances.argmin(axis=1)
    best = distances[np.arange(len(query)), nearest]
    return [
        (owners[index], dist)
        for index, dist in zip(nearest.tolist(), best.tolist(), strict=True)
    ]


class SemanticCache(ApproxTier):
    """The similarity index: transfer answers above the digest cache.

    The ledger, observed-error feedback and persistence under
    ``<cache>/semcache/<context>.json`` come from :class:`ApproxTier`;
    this class prices a query from its nearest donors and indexes
    computed runs as donors.
    """

    kind = "semcache"
    source = "transfer"
    answers_key = "transfers"
    error_key = "transfer_error"
    result_type = TransferResult
    bound_field = "transfer_error_bound"
    by_field = "transferred_from"
    config_type = SemanticCacheConfig
    state_version = SEMCACHE_STATE_VERSION
    escalation_reasons = ("coverage", "bound")

    def _describe(self) -> dict:
        return {
            "transfer_threshold": self.config.transfer_threshold,
            "max_error_bound": self.config.max_error_bound,
            "index_apps": sum(len(p) for p in self._partitions.values()),
            "index_rows": sum(
                len(entry.rows)
                for partition in self._partitions.values()
                for entry in partition.values()
            ),
            "partitions": len(self._partitions),
        }

    # -- the transfer decision -------------------------------------------

    def _summarize(self, launches, gpu, model_error):
        return _group_launches(launches, gpu.generation, self.config.max_groups)

    def _price(self, *, workload, method, gpu, summary):
        partition = self._partitions.get(self._partition_key(method, gpu))
        if not partition:
            return "coverage"
        query = summary()
        total_mass = sum(row.warp_instructions for row in query)
        if not query or total_mass <= 0:
            return "coverage"
        nearest = _nearest_donors(query, partition)
        threshold = self.config.transfer_threshold
        if not nearest or any(dist > threshold for _entry, dist in nearest):
            return "coverage"
        donors = [
            (row, entry, dist)
            for row, (entry, dist) in zip(query, nearest, strict=True)
        ]
        bound = self.config.error_floor + self.config.safety_factor * sum(
            (row.warp_instructions / total_mass) * self.config.lipschitz * dist
            for row, _entry, dist in donors
        )
        if bound > self.config.max_error_bound:
            return "bound"
        total_launches = sum(row.launches for row, _e, _d in donors)
        cycles = KERNEL_LAUNCH_OVERHEAD * total_launches + sum(
            entry.cycles_rate * row.warp_instructions for row, entry, _dist in donors
        )
        dram = sum(
            entry.dram_rate * row.warp_instructions for row, entry, _dist in donors
        )
        result = TransferResult(
            workload=workload,
            gpu=gpu,
            method=method,
            total_cycles=float(cycles),
            total_instructions=float(total_mass),
            total_dram_bytes=float(dram),
            simulated_cycles=0.0,
            transfer_error_bound=float(bound),
            transferred_from=tuple(
                sorted({entry.workload for _r, entry, _d in donors})
            ),
        )
        return result, float(bound), None

    # -- index growth -----------------------------------------------------

    def _ingest(
        self, *, workload, method, gpu, summary, digest, result, kernel_cycles
    ) -> None:
        """Index one computed run as a donor (FIFO-capped per partition)."""
        partition = self._partitions.setdefault(self._partition_key(method, gpu), {})
        rows = summary()
        total_launches = sum(row.launches for row in rows)
        overhead = KERNEL_LAUNCH_OVERHEAD * total_launches
        partition[digest] = _AppEntry(
            workload=workload,
            digest=digest,
            cycles_rate=max(0.0, result.total_cycles - overhead)
            / result.total_instructions,
            dram_rate=result.total_dram_bytes / result.total_instructions,
            total_warp_instructions=float(result.total_instructions),
            total_launches=total_launches,
            rows=rows,
        )
        self._trim(partition)

    def _trim(self, partition: dict[str, _AppEntry]) -> None:
        """Evict the oldest donors past ``max_apps_per_partition``."""
        while len(partition) > self.config.max_apps_per_partition:
            partition.pop(next(iter(partition)))

    # -- persistence -------------------------------------------------------

    def _merge_partitions(self, partitions: dict) -> None:
        for key, apps in partitions.items():
            partition = self._partitions.setdefault(key, {})
            for digest, entry in apps.items():
                if digest in partition:
                    continue
                try:
                    partition[digest] = _AppEntry(
                        workload=entry["workload"],
                        digest=digest,
                        cycles_rate=float(entry["cycles_rate"]),
                        dram_rate=float(entry["dram_rate"]),
                        total_warp_instructions=float(
                            entry["total_warp_instructions"]
                        ),
                        total_launches=int(entry["total_launches"]),
                        rows=[
                            _GroupRow(
                                counters=tuple(float(v) for v in row["counters"]),
                                warp_instructions=float(row["warp_instructions"]),
                                launches=int(row["launches"]),
                            )
                            for row in entry["rows"]
                            if len(row["counters"]) == len(FEATURE_NAMES)
                        ],
                    )
                except (KeyError, TypeError, ValueError):
                    continue  # one malformed donor must not poison the index
            self._trim(partition)

    def _render_partition(self, partition: dict[str, _AppEntry]) -> str:
        return json_object(
            (digest, entry.text) for digest, entry in partition.items()
        )
