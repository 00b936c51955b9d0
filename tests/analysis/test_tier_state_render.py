"""Differential tests for the approximate tiers' persisted state bytes.

An observe persists the tier's whole state document, assembled from
texts each donor entry and training row renders once.  These tests pin
that assembly to the whole-document dump it replaced
(:func:`tests._diff.reference_state_text`): after every step of a drawn
sequence — observes on two tiers sharing one cache directory (each
reload merges the other's state), first-in-first-out evictions past a
small cap and re-observes of one digest — the state file holds exactly
the envelope of ``json.dumps(reference, sort_keys=True)``.  A counting
test pins the cost: N observes render N entries, not one per held entry
per observe.
"""

from __future__ import annotations

import json
import tempfile
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import semcache as semcache_module
from repro.analysis.persistence import CacheDegradedWarning, RunCache
from repro.analysis.semcache import SemanticCache, SemanticCacheConfig, _GroupRow
from repro.gpu import get_gpu
from repro.predict import PredictConfig, PredictTiers
from repro.predict import tiers as tiers_module
from repro.predict.analytical import AppEstimate, GroupEstimate
from repro.predict.surrogate import TrainingRow

from tests._diff import reference_state_text

V100 = get_gpu("V100")
CONTEXT = "fedcba9876543210" * 4
METHODS = ("full_sim", "pka_sim", "silicon")
#: Small caps so drawn sequences evict: donors per semcache partition,
#: calibration samples and training rows per predict partition.
SEMCACHE = SemanticCacheConfig(max_apps_per_partition=3)
PREDICT = PredictConfig(methods=METHODS[:2], max_samples=5, min_training_rows=2)
#: A few counter vectors, so groups repeat across apps as real kernels do.
COUNTERS = [
    tuple(float(base * (k + 1)) for k in range(12)) for base in (1.5, 40.0, 7e5)
]


def _groups(seed: int, size: int) -> list[tuple[int, tuple[float, ...]]]:
    """``size`` (signature, counters) pairs, deterministic in ``seed``."""
    return [
        (seed * 7 + k, COUNTERS[(seed + k) % len(COUNTERS)]) for k in range(size)
    ]


def _observe(tier, *, method: str, digest: str, seed: int, size: int, factor: float):
    """Feed ``tier`` one synthetic computed run.

    The semantic cache is handed ``_GroupRow`` lists as its launch
    stream and the predict tiers an :class:`AppEstimate`, so neither
    builds a workload; the run's per-kernel truths are the groups'
    analytic cycles scaled by ``factor``.
    """
    groups = _groups(seed, size)
    if tier.kind == "semcache":
        launches = [
            _GroupRow(counters=counters, warp_instructions=1000.0 + sig, launches=1)
            for sig, counters in groups
        ]
        mass = sum(row.warp_instructions for row in launches)
        truths = None
    else:
        launches = AppEstimate(
            total_cycles=0.0,
            total_instructions=0.0,
            total_dram_bytes=0.0,
            groups=tuple(
                GroupEstimate(
                    signature=sig,
                    grid_blocks=64,
                    bucket=sig % 3,
                    count=1,
                    cycles=500.0 + sig,
                    warp_instructions=100.0,
                    dram_bytes=10.0,
                    counters=counters,
                )
                for sig, counters in groups
            ),
        )
        mass = 100.0 * size
        truths = {
            (group.signature, group.grid_blocks): group.cycles * factor
            for group in launches.groups
        }
    tier.observe(
        workload=f"w{seed}",
        method=method,
        gpu=V100,
        launches=launches,
        digest=digest,
        result=SimpleNamespace(
            total_cycles=3.0 * mass * factor,
            total_instructions=mass,
            total_dram_bytes=mass,
        ),
        kernel_cycles=(lambda: truths) if truths is not None else None,
    )


@contextmanager
def _synthetic_streams():
    """Both tiers take the synthetic streams of :func:`_observe` as is."""
    with mock.patch.object(
        semcache_module,
        "_group_launches",
        lambda launches, generation, max_groups: launches,
    ), mock.patch.object(
        tiers_module, "price_app", lambda launches, gpu, model_error: launches
    ):
        yield


def _state_text(cache_dir: Path, kind: str) -> str:
    (path,) = (cache_dir / kind).glob("*.json")
    return path.read_text(encoding="utf-8")


_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("a", "b")),  # which of the two tiers observes
        st.sampled_from(METHODS),
        st.integers(0, 5),  # digest: a small pool, so re-observes happen
        st.integers(0, 6),  # group seed
        st.integers(1, 4),  # groups per run
        st.sampled_from((0.5, 1.0, 1.25, 3.0)),  # truth / analytic factor
    ),
    min_size=1,
    max_size=14,
)


@pytest.mark.parametrize(
    "cls,config",
    [(SemanticCache, SEMCACHE), (PredictTiers, PREDICT)],
    ids=["semcache", "predict"],
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(steps=_STEPS)
def test_state_file_matches_the_whole_document_dump(cls, config, steps):
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp)
        tiers = {name: cls(config, RunCache(cache_dir), CONTEXT) for name in "ab"}
        with _synthetic_streams():
            for who, method, digest, seed, size, factor in steps:
                tier = tiers[who]
                before = tier.observations
                _observe(
                    tier,
                    method=method,
                    digest=f"digest-{digest}",
                    seed=seed,
                    size=size,
                    factor=factor,
                )
                if tier.observations == before:
                    continue  # a method the tier does not serve
                assert _state_text(cache_dir, tier.kind) == reference_state_text(tier)
                for partition in tier._partitions.values():
                    if tier.kind == "semcache":
                        assert len(partition) <= config.max_apps_per_partition
                    else:
                        assert len(partition.surrogate.rows) <= config.max_samples


def test_observes_render_each_entry_once(monkeypatch, tmp_path):
    """N observes render N donor entries and N training-row sets, not one
    per entry held at each observe.  Every render of a donor entry reads
    its ``total_warp_instructions`` once (nothing else does), and every
    render of a training row calls ``TrainingRow.to_state`` once."""
    entry_renders = 0
    row_renders = 0

    class CountingEntry(semcache_module._AppEntry):
        def __getattribute__(self, name):
            if name == "total_warp_instructions":
                nonlocal entry_renders
                entry_renders += 1
            return super().__getattribute__(name)

    to_state = TrainingRow.to_state

    def counting_to_state(self):
        nonlocal row_renders
        row_renders += 1
        return to_state(self)

    monkeypatch.setattr(semcache_module, "_AppEntry", CountingEntry)
    monkeypatch.setattr(TrainingRow, "to_state", counting_to_state)
    observes = 30
    semcache = SemanticCache(SemanticCacheConfig(), RunCache(tmp_path), CONTEXT)
    predict = PredictTiers(
        PredictConfig(methods=METHODS), RunCache(tmp_path), CONTEXT
    )
    with _synthetic_streams():
        for n in range(observes):
            for tier in (semcache, predict):
                _observe(
                    tier,
                    method=METHODS[n % len(METHODS)],
                    digest=f"digest-{n}",
                    seed=n,
                    size=2,
                    factor=1.25,
                )
    assert semcache.snapshot()["index_apps"] == observes
    assert entry_renders == observes
    assert predict.snapshot()["training_rows"] == 2 * observes
    assert row_renders == 2 * observes
    for tier in (semcache, predict):
        assert _state_text(tmp_path, tier.kind) == reference_state_text(tier)


def test_rendered_payload_writes_the_dict_bytes(tmp_path):
    """``put_state`` given the payload's text writes what it writes for
    the payload itself, and a degraded store parses the text into its
    memory overlay."""
    payload = {"version": 1, "context": "ctx", "partitions": {"b": {"x": [1.5]}}}
    text = json.dumps(payload, sort_keys=True)
    RunCache(tmp_path / "dict").put_state("semcache", "ctx", payload)
    RunCache(tmp_path / "text").put_state("semcache", "ctx", text)
    assert _state_text(tmp_path / "text", "semcache") == _state_text(
        tmp_path / "dict", "semcache"
    )
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("a file where the cache root should be", encoding="utf-8")
    with pytest.warns(CacheDegradedWarning):
        degraded = RunCache(blocker / "cache")
    degraded.put_state("semcache", "ctx", text)
    assert degraded.get_state("semcache", "ctx") == payload
