"""Tests for the cross-workload semantic cache (similarity transfer).

What these tests pin down: a near-duplicate resubmission is answered by
transfer (no simulator run) with an error bound that holds against the
ground truth; dissimilar queries and over-loose bounds escalate to the
DES; transfer answers never touch the exact digest cache and never
become donors; the index round-trips through the run cache's state
document; the lookup ledger reconciles exactly; and the one-pass
nearest-donor search decides exactly as the per-pair scan it replaced.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import EvaluationHarness
from repro.analysis import semcache as semcache_module
from repro.analysis.semcache import (
    SemanticCache,
    SemanticCacheConfig,
    TransferResult,
    _dist_matrix,
    _GroupRow,
    _nearest_donors,
)
from repro.errors import ReproError
from repro.gpu import get_gpu

BASE = "atax"
NEAR = "atax~nd1"
FAR = "bfs1MW"


@pytest.fixture
def harness(tmp_path):
    return EvaluationHarness(
        backend="serial", cache_dir=tmp_path / "cache", semcache=True
    )


class TestTransfer:
    def test_near_duplicate_transfers_within_bound(self, harness, tmp_path):
        donor = harness.evaluation(BASE).pka_sim()
        assert donor is not None and not isinstance(donor, TransferResult)

        result = harness.evaluation(NEAR).pka_sim()
        assert isinstance(result, TransferResult)
        assert result.simulated_cycles == 0.0
        assert result.transferred_from == (BASE,)
        assert result.total_cycles > 0
        assert 0 < result.transfer_error_bound <= harness.semcache.config.max_error_bound

        # The advertised bound must hold against the ground truth a
        # semcache-disabled harness computes for the same cell.
        truth_harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "truth"
        )
        truth = truth_harness.evaluation(NEAR).pka_sim()
        error = abs(result.total_cycles - truth.total_cycles) / truth.total_cycles
        assert error <= result.transfer_error_bound

    def test_transfer_is_memoized_not_recomputed(self, harness):
        harness.evaluation(BASE).pka_sim()
        first = harness.evaluation(NEAR).pka_sim()
        again = harness.evaluation(NEAR).pka_sim()
        assert again is first  # memory memo, no second lookup
        assert harness.semcache.answers == 1

    def test_digest_cache_stays_exact(self, harness):
        harness.evaluation(BASE).pka_sim()
        before = harness.run_cache.entry_count()
        result = harness.evaluation(NEAR).pka_sim()
        assert isinstance(result, TransferResult)
        digest = harness.cell_digest_for(NEAR, "pka_sim")
        # A transfer answer must never be written under the digest.
        assert harness.run_cache.get_run(digest) is None
        assert harness.run_cache.entry_count() == before

    def test_transfer_never_becomes_donor(self, harness):
        harness.evaluation(BASE).pka_sim()
        harness.evaluation(NEAR).pka_sim()
        snap = harness.semcache.snapshot()
        assert snap["index_apps"] == 1  # only the computed run donates
        assert snap["observations"] == 1

    def test_transfer_probe_public_path(self, harness):
        harness.evaluation(BASE).pka_sim()
        probed = harness.transfer_probe(NEAR, "pka_sim")
        assert isinstance(probed, TransferResult)
        # The probe memoizes: the accessor now serves the same object.
        assert harness.evaluation(NEAR).pka_sim() is probed

    def test_probe_returns_none_for_computed_cell(self, harness):
        donor = harness.evaluation(BASE).pka_sim()
        assert donor is not None
        assert harness.transfer_probe(BASE, "pka_sim") is None

    def test_nontransferable_method_bypasses(self, harness):
        assert harness.transfer_probe(BASE, "selection") is None
        assert harness.transfer_probe(BASE, "first_1b") is None
        assert harness.semcache.lookups == 0


class TestEscalation:
    def test_empty_index_escalates_coverage(self, harness):
        assert harness.transfer_probe(NEAR, "pka_sim") is None
        assert harness.semcache.escalations_by["coverage"] == 1

    def test_dissimilar_workload_escalates_coverage(self, harness):
        harness.evaluation(BASE).pka_sim()
        before = harness.semcache.escalations_by["coverage"]
        assert harness.transfer_probe(FAR, "pka_sim") is None
        assert harness.semcache.escalations_by["coverage"] == before + 1

    def test_tight_bound_escalates(self, tmp_path):
        config = SemanticCacheConfig(max_error_bound=0.1501, error_floor=0.15)
        harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", semcache=config
        )
        harness.evaluation(BASE).pka_sim()
        assert harness.transfer_probe(NEAR, "pka_sim") is None
        assert harness.semcache.escalations_by["bound"] == 1

    def test_ledger_reconciles(self, harness):
        harness.evaluation(BASE).pka_sim()
        harness.transfer_probe(NEAR, "pka_sim")  # transfer
        harness.transfer_probe(FAR, "pka_sim")  # coverage escalation
        snap = harness.semcache.snapshot()
        assert snap["reconciles"] is True
        assert snap["lookups"] == snap["transfers"] + snap["escalations"]
        assert snap["transfers"] == 1
        # The donor's own compute consulted an empty index (coverage),
        # then the FAR probe escalated on coverage again.
        assert snap["escalations_coverage"] == 2


class TestPersistence:
    def test_index_survives_harness_restart(self, tmp_path):
        first = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", semcache=True
        )
        first.evaluation(BASE).pka_sim()

        second = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", semcache=True
        )
        result = second.transfer_probe("atax~nd2", "pka_sim")
        assert isinstance(result, TransferResult)
        assert result.transferred_from == (BASE,)

    def test_state_file_is_lru_exempt_location(self, tmp_path):
        harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", semcache=True
        )
        harness.evaluation(BASE).pka_sim()
        state_dir = tmp_path / "cache" / "semcache"
        files = list(state_dir.glob("*.json"))
        assert len(files) == 1

    def test_memory_only_harness_still_transfers(self):
        harness = EvaluationHarness(backend="serial", semcache=True)
        harness.evaluation(BASE).pka_sim()
        result = harness.evaluation(NEAR).pka_sim()
        assert isinstance(result, TransferResult)

    def test_corrupt_state_is_discarded(self, tmp_path):
        first = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", semcache=True
        )
        first.evaluation(BASE).pka_sim()
        state_file = next((tmp_path / "cache" / "semcache").glob("*.json"))
        state_file.write_text("{not json", encoding="utf-8")
        second = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", semcache=True
        )
        # Corrupt state means an empty index: escalate, don't crash.
        assert second.transfer_probe(NEAR, "pka_sim") is None
        assert second.semcache.escalations_by["coverage"] == 1


class TestConfig:
    def test_defaults_resolve(self):
        config = SemanticCache.resolve_config(True)
        assert config == SemanticCacheConfig()
        assert SemanticCache.resolve_config(None) is None
        assert SemanticCache.resolve_config(False) is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transfer_threshold": 0.0},
            {"max_error_bound": -1.0},
            {"error_floor": -0.1},
            {"lipschitz": -1.0},
            {"safety_factor": 0.5},
            {"max_groups": 0},
            {"max_apps_per_partition": 0},
        ],
    )
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ReproError):
            SemanticCacheConfig(**kwargs)

    def test_harness_without_semcache_has_none(self, tmp_path):
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "c")
        assert harness.semcache is None
        assert harness.transfer_probe(NEAR, "pka_sim") is None


# -- the nearest-donor search --------------------------------------------

V100 = get_gpu("V100")
METHOD = "pka_sim"


def _reference_distance(query: _GroupRow, donor: _GroupRow) -> float:
    """The per-pair distance the one-pass search replaced, verbatim."""
    query_log = np.log1p(np.asarray(query.counters, dtype=np.float64))
    donor_log = np.log1p(np.asarray(donor.counters, dtype=np.float64))
    return float(np.abs(query_log - donor_log).mean())


def _reference_decision(config, partition, query):
    """The per-pair scan the one-pass search replaced: ``"coverage"``,
    ``"bound"``, or ``(each query row's donor entry, bound)``."""
    total_mass = sum(row.warp_instructions for row in query)
    donors = []
    for row in query:
        best = None
        for entry in partition.values():
            for donor_row in entry.rows:
                dist = _reference_distance(row, donor_row)
                if best is None or dist < best[0]:
                    best = (dist, entry)
        if best is None or best[0] > config.transfer_threshold:
            return "coverage"
        donors.append((row, best[1], best[0]))
    bound = config.error_floor + config.safety_factor * sum(
        (row.warp_instructions / total_mass) * config.lipschitz * dist
        for row, _entry, dist in donors
    )
    if bound > config.max_error_bound:
        return "bound"
    return [entry for _row, entry, _dist in donors], bound


def _rows_are_launches():
    """Let a test hand ``_GroupRow`` lists to the tier as launch streams."""
    return mock.patch.object(
        semcache_module,
        "_group_launches",
        lambda launches, generation, max_groups: launches,
    )


def _ingest(tier: SemanticCache, name: str, rows: list[_GroupRow]) -> None:
    mass = sum(row.warp_instructions for row in rows) or 1.0
    tier._ingest(
        workload=name,
        method=METHOD,
        gpu=V100,
        launches=rows,
        digest=f"digest-{name}",
        result=SimpleNamespace(
            total_cycles=3.0 * mass, total_instructions=mass, total_dram_bytes=mass
        ),
        model_error=None,
        kernel_cycles=None,
    )


def _price(tier: SemanticCache, query: list[_GroupRow]):
    return tier._price(
        workload="query", method=METHOD, gpu=V100, launches=query, model_error=None
    )


def _row(counters, mass: float = 1000.0) -> _GroupRow:
    return _GroupRow(counters=tuple(counters), warp_instructions=mass, launches=1)


_COUNTERS = st.lists(
    st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
    min_size=12,
    max_size=12,
)


@st.composite
def _search_cases(draw):
    """Donor apps and a query drawn around a few shared base vectors, so
    exact duplicates (ties), near matches and misses all occur."""
    bases = draw(st.lists(_COUNTERS, min_size=1, max_size=4))

    def group_row():
        base = draw(st.sampled_from(bases))
        if draw(st.booleans()):
            scales = draw(
                st.lists(st.floats(0.8, 1.25), min_size=12, max_size=12)
            )
            base = [value * scale for value, scale in zip(base, scales, strict=True)]
        return _GroupRow(
            counters=tuple(float(value) for value in base),
            warp_instructions=draw(st.floats(1.0, 1e9)),
            launches=draw(st.integers(1, 50)),
        )

    apps = [
        [group_row() for _ in range(draw(st.integers(0, 4)))]
        for _ in range(draw(st.integers(1, 8)))
    ]
    query = [group_row() for _ in range(draw(st.integers(1, 4)))]
    config = SemanticCacheConfig(
        transfer_threshold=draw(st.sampled_from([0.02, 0.1, 0.25, 1.0])),
        max_error_bound=draw(st.sampled_from([0.2, 0.35, 5.0])),
        max_apps_per_partition=draw(st.integers(1, 8)),
    )
    return config, apps, query


class TestNearestDonorSearch:
    @settings(max_examples=150, deadline=None)
    @given(_search_cases())
    def test_matches_the_per_pair_scan(self, case):
        config, apps, query = case
        tier = SemanticCache(config, run_cache=None, context="search")
        with _rows_are_launches():
            for index, rows in enumerate(apps):
                _ingest(tier, f"app{index}", rows)
            priced = _price(tier, query)
        partition = tier._partitions[f"{METHOD}@{V100.name}"]
        assert len(partition) <= config.max_apps_per_partition

        donor_rows = [row for entry in partition.values() for row in entry.rows]
        if donor_rows:
            reference = np.array(
                [[_reference_distance(q, d) for d in donor_rows] for q in query]
            )
            matrix = _dist_matrix(query, donor_rows)
            assert matrix.dtype == np.float64
            assert matrix.tobytes() == reference.tobytes()  # bitwise

        expected = _reference_decision(config, partition, query)
        if isinstance(expected, str):
            assert priced == expected
            return
        entries, bound = expected
        nearest = _nearest_donors(query, partition)
        assert [entry for entry, _dist in nearest] == entries
        assert all(
            got is want for (got, _d), want in zip(nearest, entries, strict=True)
        )
        result, priced_bound, _by = priced
        assert priced_bound == bound
        assert result.transferred_from == tuple(
            sorted({entry.workload for entry in entries})
        )

    def test_tie_goes_to_the_first_donor_row(self):
        tier = SemanticCache(SemanticCacheConfig(), run_cache=None, context="tie")
        twin = [1.0, 5.0, 20.0] * 4
        with _rows_are_launches():
            _ingest(tier, "first", [_row([1e6] * 12), _row(twin)])
            _ingest(tier, "second", [_row(twin)])
            _ingest(tier, "third", [_row(twin)])
            result, _bound, _by = _price(tier, [_row(twin)])
        assert result.transferred_from == ("first",)

    def test_eviction_drops_the_evicted_donor(self):
        config = SemanticCacheConfig(max_apps_per_partition=1)
        tier = SemanticCache(config, run_cache=None, context="evict")
        near = [_row([10.0] * 12)]
        with _rows_are_launches():
            _ingest(tier, "old", near)
            first, _bound, _by = _price(tier, near)
            _ingest(tier, "new", [_row([1e8] * 12)])  # evicts "old"
            assert _price(tier, near) == "coverage"
        assert first.transferred_from == ("old",)

    def test_merged_donors_are_searched(self):
        tier = SemanticCache(SemanticCacheConfig(), run_cache=None, context="merge")
        near = [_row([10.0] * 12)]
        with _rows_are_launches():
            _ingest(tier, "far", [_row([1e8] * 12)])
            assert _price(tier, near) == "coverage"
            tier._merge_partitions(
                {
                    f"{METHOD}@{V100.name}": {
                        "digest-merged": {
                            "workload": "merged",
                            "cycles_rate": 2.0,
                            "dram_rate": 1.0,
                            "total_warp_instructions": 1000.0,
                            "total_launches": 1,
                            "rows": [
                                {
                                    "counters": [10.0] * 12,
                                    "warp_instructions": 1000.0,
                                    "launches": 1,
                                }
                            ],
                        }
                    }
                }
            )
            result, _bound, _by = _price(tier, near)
        assert result.transferred_from == ("merged",)

    def test_merges_respect_the_partition_cap(self):
        """A reload that merges donors trims the partition first-in
        first-out, as an ingest does, so a process that only merges
        (a fleet coordinator) keeps a bounded index."""
        config = SemanticCacheConfig(max_apps_per_partition=2)
        tier = SemanticCache(config, run_cache=None, context="merge-cap")
        key = f"{METHOD}@{V100.name}"
        donor = {
            "workload": "merged",
            "cycles_rate": 2.0,
            "dram_rate": 1.0,
            "total_warp_instructions": 1000.0,
            "total_launches": 1,
            "rows": [
                {"counters": [10.0] * 12, "warp_instructions": 1000.0, "launches": 1}
            ],
        }
        for batch in range(2):
            tier._merge_partitions(
                {key: {f"digest-{batch}-{n}": donor for n in range(5)}}
            )
            assert list(tier._partitions[key]) == [
                f"digest-{batch}-3",
                f"digest-{batch}-4",
            ]
        assert tier.snapshot()["index_apps"] == 2
