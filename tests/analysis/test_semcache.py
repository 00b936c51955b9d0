"""Tests for the cross-workload semantic cache (similarity transfer).

What these tests pin down: a near-duplicate resubmission is answered by
transfer (no simulator run) with an error bound that holds against the
ground truth; dissimilar queries and over-loose bounds escalate to the
DES; transfer answers never touch the exact digest cache and never
become donors; the index round-trips through the run cache's state
document; and the lookup ledger reconciles exactly.
"""

from __future__ import annotations

import pytest

from repro.analysis import EvaluationHarness
from repro.analysis.semcache import (
    SemanticCache,
    SemanticCacheConfig,
    TransferResult,
)
from repro.errors import ReproError

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
