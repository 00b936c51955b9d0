"""The content-addressed on-disk run cache.

What these tests pin down: an entry read back from disk compares *equal*
to the result that produced it (exact float round trip), the digest moves
whenever anything a result depends on moves (GPU config, PKA config,
launch lists, code/schema version), corruption degrades to recomputation
rather than a crash, ``--no-cache`` really bypasses the store, and a
cache that *loses its disk* mid-sweep degrades to in-memory caching with
one warning instead of aborting the work it was checkpointing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import warnings
from pathlib import Path

import pytest

from repro.analysis import EvaluationHarness
from repro.analysis.persistence import (
    CACHE_SCHEMA_VERSION,
    CacheDegradedWarning,
    NullRunCache,
    RunCache,
    RunKey,
    dump_run,
    fingerprint,
    launches_digest,
    load_run,
    resolve_run_cache,
    run_digest,
)
from repro.core.config import PKAConfig, PKSConfig
from repro.errors import ReproError
from repro.gpu import TURING_RTX2060, VOLTA_V100
from repro.sim import Simulator
from repro.workloads import get_workload

WORKLOAD = "fdtd2d"


def _volta_run():
    launches = get_workload(WORKLOAD).build("volta")
    return Simulator(VOLTA_V100).run_full(WORKLOAD, launches, keep_records=True)


# -- run documents -----------------------------------------------------------


def test_run_roundtrip_is_exact():
    result = _volta_run()
    restored = load_run(dump_run(result))
    assert restored == result  # dataclass equality: bit-exact floats
    assert restored.gpu == VOLTA_V100
    assert restored.kernel_records == result.kernel_records


def test_load_run_rejects_garbage():
    with pytest.raises(ReproError):
        load_run("not json at all")
    with pytest.raises(ReproError):
        load_run(json.dumps({"version": 999}))
    with pytest.raises(ReproError):
        load_run(json.dumps({"version": 1, "workload": "x"}))  # missing fields
    with pytest.raises(ReproError):
        load_run("[1]")  # JSON, but not an object


# -- keys and digests --------------------------------------------------------


def test_run_key_is_hashable_and_labelled():
    key = RunKey("full_sim", "V100")
    assert key == RunKey("full_sim", "V100")
    assert key != RunKey("full_sim", "RTX2060")
    assert {key: 1}[RunKey("full_sim", "V100")] == 1
    assert key.label == "full_sim/V100"
    assert RunKey("selection").label == "selection"


def _digest_for(gpu, *, config=None, workload=WORKLOAD):
    harness = EvaluationHarness(config)
    launches = get_workload(workload).build(gpu.generation if gpu else "volta")
    return run_digest(
        RunKey("full_sim", gpu.name if gpu else None),
        workload=workload,
        launch_digests={"volta": launches_digest(launches)},
        gpu=gpu,
        context=harness.context_fingerprint(),
    )


def test_digest_moves_with_gpu_config():
    assert _digest_for(VOLTA_V100) != _digest_for(TURING_RTX2060)
    # Same name, different parameters must not collide either.
    tweaked = dataclasses.replace(VOLTA_V100, num_sms=VOLTA_V100.num_sms // 2)
    assert tweaked.name == VOLTA_V100.name
    assert _digest_for(VOLTA_V100) != _digest_for(tweaked)


def test_digest_moves_with_pka_config():
    default = _digest_for(VOLTA_V100)
    tweaked = PKAConfig(pks=PKSConfig(k_max=7))
    assert _digest_for(VOLTA_V100, config=tweaked) != default


def test_fingerprint_is_canonical():
    assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
    assert fingerprint({"a": 1}) != fingerprint({"a": 2})
    assert fingerprint(PKAConfig()) == fingerprint(PKAConfig())
    assert fingerprint(PKAConfig()) != fingerprint(PKAConfig(pks=PKSConfig(seed=1)))


def test_launches_digest_covers_order_and_annotations():
    launches = get_workload(WORKLOAD).build("volta")
    assert launches_digest(launches) == launches_digest(list(launches))
    assert launches_digest(launches) != launches_digest(launches[::-1])
    assert launches_digest(launches) != launches_digest(launches[:-1])


# -- the store ---------------------------------------------------------------


def test_cache_hit_after_write(tmp_path):
    result = _volta_run()
    cache = RunCache(tmp_path)
    digest = _digest_for(VOLTA_V100)
    assert cache.get_run(digest) is None
    assert cache.misses == 1
    cache.put_run(digest, result)
    assert cache.writes == 1
    assert cache.entry_count() == 1

    fresh = RunCache(tmp_path)  # a different process, same directory
    cached = fresh.get_run(digest)
    assert cached == result
    assert fresh.hits == 1


def test_harness_hits_cache_across_instances(tmp_path):
    cold = EvaluationHarness(cache_dir=tmp_path)
    first = cold.evaluation(WORKLOAD).full_sim()
    assert cold.run_cache.writes > 0

    warm = EvaluationHarness(cache_dir=tmp_path)
    second = warm.evaluation(WORKLOAD).full_sim()
    assert second == first
    assert warm.run_cache.hits == 1
    assert warm.run_cache.writes == 0


def test_harness_misses_on_changed_config(tmp_path):
    EvaluationHarness(cache_dir=tmp_path).evaluation(WORKLOAD).selection()
    changed = EvaluationHarness(
        PKAConfig(pks=PKSConfig(k_max=7)), cache_dir=tmp_path
    )
    changed.evaluation(WORKLOAD).selection()
    assert changed.run_cache.hits == 0
    assert changed.run_cache.misses > 0
    assert changed.run_cache.writes > 0  # recomputed and stored under its own key


def test_selection_cached_and_equivalent(tmp_path):
    cold = EvaluationHarness(cache_dir=tmp_path)
    selection = cold.evaluation(WORKLOAD).selection()

    warm = EvaluationHarness(cache_dir=tmp_path)
    cached = warm.evaluation(WORKLOAD).selection()
    assert warm.run_cache.hits == 1
    assert cached.selected_launch_ids == selection.selected_launch_ids
    assert cached.pks.selected_launch_ids == selection.pks.selected_launch_ids
    assert [g.member_launch_ids for g in cached.pks.groups] == [
        g.member_launch_ids for g in selection.pks.groups
    ]
    assert [(g.group_id, g.weight) for g in cached.groups] == [
        (g.group_id, g.weight) for g in selection.groups
    ]
    # And the downstream projection built from the cached selection is
    # identical to one built from the original.
    assert warm.evaluation(WORKLOAD).pka_sim() == cold.evaluation(WORKLOAD).pka_sim()


def test_corrupted_entry_recovers_by_recomputing(tmp_path):
    cold = EvaluationHarness(cache_dir=tmp_path)
    first = cold.evaluation(WORKLOAD).full_sim()

    # Truncate every entry mid-document (a killed writer, a bad disk).
    entries = list(RunCache(tmp_path).root.glob("*/*.json"))
    assert entries
    for path in entries:
        path.write_text(path.read_text(encoding="utf-8")[: 40], encoding="utf-8")

    recovered = EvaluationHarness(cache_dir=tmp_path)
    second = recovered.evaluation(WORKLOAD).full_sim()
    assert second == first  # recomputed, not crashed
    assert recovered.run_cache.hits == 0
    assert recovered.run_cache.writes > 0  # the entry was rewritten

    # And the rewritten entry is whole again.
    rewarmed = EvaluationHarness(cache_dir=tmp_path)
    assert rewarmed.evaluation(WORKLOAD).full_sim() == first
    assert rewarmed.run_cache.hits == 1


#: One run entry and one selection entry as the cache wrote them before
#: every record shared one codec, byte for byte: (kind, digest, file).
PINNED_ENTRIES = [
    (
        "app_run",
        "7bca471e2338769662d82b46d6f4299428e9b0acb8220864ad4c35919d1ec9de",
        "run_entry.json",
    ),
    (
        "selection",
        "134bb98b581b3fe9b212ea6c4ca490b6339d7d5f6088db728aa2d34c4b8d7db5",
        "selection_entry.json",
    ),
]
ACCESSORS = {
    "app_run": ("get_run", "put_run"),
    "selection": ("get_selection", "put_selection"),
}


@pytest.mark.parametrize(
    "kind, digest, name", PINNED_ENTRIES, ids=[kind for kind, *_ in PINNED_ENTRIES]
)
def test_entry_file_is_the_plain_envelope_dump(tmp_path, kind, digest, name):
    """An entry written before is a hit, and rewriting what it holds
    writes the same bytes: the plain envelope dump with the payload
    embedded as a string."""
    text = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
    payload = json.loads(text)["payload"]
    assert text == json.dumps(
        {
            "kind": kind,
            "schema": CACHE_SCHEMA_VERSION,
            "payload": payload,
            "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        },
        sort_keys=True,
    )
    get, put = ACCESSORS[kind]
    old = RunCache(tmp_path / "old")
    old._path(digest).parent.mkdir(parents=True)
    old._path(digest).write_text(text, encoding="utf-8")
    value = getattr(old, get)(digest)
    assert value is not None
    assert (old.hits, old.misses, old.quarantined) == (1, 0, 0)

    new = RunCache(tmp_path / "new")
    getattr(new, put)(digest, value)
    assert new._path(digest).read_text(encoding="utf-8") == text


def test_sealed_payload_that_is_not_a_run_is_quarantined(tmp_path):
    """A sound envelope around a payload no run loads from: the writer
    was broken, so the entry is a quarantined miss, not a crash."""
    cache = RunCache(tmp_path)
    digest = "ab" * 32
    cache._write(digest, "app_run", "[1]")
    assert cache.get_run(digest) is None
    assert (cache.misses, cache.quarantined) == (1, 1)
    assert cache.quarantine_log[0]["reason"] == "app_run payload failed to deserialize"


def test_wrong_kind_entry_is_a_miss(tmp_path):
    cache = RunCache(tmp_path)
    digest = _digest_for(VOLTA_V100)
    cache.put_run(digest, _volta_run())
    assert cache.get_selection(digest) is None  # kind mismatch, not a crash
    assert not cache._path(digest).exists()  # and the bad entry is gone


def test_no_cache_bypasses_the_store(tmp_path):
    null = resolve_run_cache(tmp_path, enabled=False)
    assert isinstance(null, NullRunCache)

    harness = EvaluationHarness(run_cache=null)
    harness.evaluation(WORKLOAD).full_sim()
    assert harness.run_cache.writes == 0
    assert list(tmp_path.glob("**/*.json")) == []

    # The default harness (no cache_dir) also never touches disk.
    assert isinstance(EvaluationHarness().run_cache, NullRunCache)


# -- intra-run parallelism is invisible to cache identity --------------------


def test_intra_jobs_absent_from_digests():
    """``intra_jobs`` is a pure execution detail: it must not leak into
    the context fingerprint or any cell digest, or serial and sharded
    runs would stop sharing cache entries they are bitwise-equal for."""
    serial = EvaluationHarness()
    sharded = EvaluationHarness(intra_jobs=2)
    assert serial.context_fingerprint() == sharded.context_fingerprint()
    for method in ("silicon", "full_sim", "pka_sim", "selection"):
        assert serial.cell_digest_for(WORKLOAD, method) == sharded.cell_digest_for(
            WORKLOAD, method
        ), method


def test_serial_and_sharded_runs_hit_each_others_cache_entries(tmp_path):
    # Serial writes, sharded hits...
    serial = EvaluationHarness(cache_dir=tmp_path / "a")
    first = serial.evaluation(WORKLOAD).full_sim()
    assert serial.run_cache.writes > 0
    sharded = EvaluationHarness(cache_dir=tmp_path / "a", intra_jobs=2)
    assert sharded.evaluation(WORKLOAD).full_sim() == first
    assert sharded.run_cache.hits == 1
    assert sharded.run_cache.writes == 0

    # ...and vice versa: sharded writes, serial hits.
    cold = EvaluationHarness(cache_dir=tmp_path / "b", intra_jobs=2)
    result = cold.evaluation(WORKLOAD).full_sim()
    assert cold.run_cache.writes > 0
    warm = EvaluationHarness(cache_dir=tmp_path / "b")
    assert warm.evaluation(WORKLOAD).full_sim() == result
    assert warm.run_cache.hits == 1
    assert warm.run_cache.writes == 0


# -- degraded mode: cache-write failure falls back to memory -----------------


def _broken_replace(monkeypatch):
    """Make every atomic rename fail, as a full disk or yanked mount would.

    The suite runs as root in CI containers, where read-only permission
    bits do not bite; failing the rename syscall is the reliable way to
    manufacture an unwritable store.
    """

    def fail(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", fail)


def test_write_failure_degrades_with_single_warning(tmp_path, monkeypatch):
    cache = RunCache(tmp_path)
    _broken_replace(monkeypatch)
    result = _volta_run()
    digest = _digest_for(VOLTA_V100)
    with pytest.warns(CacheDegradedWarning, match="falling back to in-memory"):
        cache.put_run(digest, result)
    assert cache.degraded
    assert cache.writes == 1
    # Subsequent failed writes stay silent: one warning per process.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cache.put_run(_digest_for(TURING_RTX2060), result)
    assert cache.writes == 2
    # Nothing landed on disk, and no temp files leaked.
    assert cache.entry_count() == 0
    assert list(tmp_path.glob("**/*.tmp")) == []


def test_degraded_reads_hit_the_memory_overlay(tmp_path, monkeypatch):
    cache = RunCache(tmp_path)
    _broken_replace(monkeypatch)
    result = _volta_run()
    digest = _digest_for(VOLTA_V100)
    with pytest.warns(CacheDegradedWarning):
        cache.put_run(digest, result)
    assert cache.get_run(digest) == result  # served from memory, bit-exact
    assert cache.hits == 1
    # Kind checking still applies in the overlay.
    assert cache.get_selection(digest) is None


def test_unwritable_root_degrades_at_construction(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("a file where the cache root should be", encoding="utf-8")
    with pytest.warns(CacheDegradedWarning):
        cache = RunCache(blocker / "cache")
    assert cache.degraded
    result = _volta_run()
    digest = _digest_for(VOLTA_V100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no second warning
        cache.put_run(digest, result)
    assert cache.get_run(digest) == result


def test_sweep_continues_through_cache_degradation(tmp_path, monkeypatch):
    """evaluate_cells keeps computing — and keeps its results — when the
    cache it checkpoints into loses its disk mid-sweep."""
    harness = EvaluationHarness(cache_dir=tmp_path)
    _broken_replace(monkeypatch)
    cells = [(WORKLOAD, "silicon", None), ("cutcp", "silicon", None)]
    with pytest.warns(CacheDegradedWarning):
        results = harness.evaluate_cells(cells)
    assert all(result is not None for result in results)
    assert harness.run_cache.degraded
    assert harness.last_manifest is not None
    assert harness.last_manifest["quarantined"] == []
    # The manifest fell back to the overlay alongside the entries.
    sweep_id = harness.last_manifest["sweep_id"]
    assert harness.run_cache.get_manifest(sweep_id) == harness.last_manifest
    assert results == EvaluationHarness().evaluate_cells(cells)  # still bit-exact


# -- approximate-tier and launch-memo state ----------------------------------


def _canonical_state(kind: str, payload) -> str:
    """The envelope ``put_state`` must write, rendered the plain way."""
    text = json.dumps(payload, sort_keys=True)
    return json.dumps(
        {
            "kind": f"{kind}_state",
            "schema": CACHE_SCHEMA_VERSION,
            "payload": payload,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        },
        sort_keys=True,
    )


def test_state_file_is_the_plain_envelope_dump(tmp_path):
    cache = RunCache(tmp_path)
    payload = {"zeta": [1.5, -0.0, 1e300], "alpha": {"ü": "\u2713", "n": None}}
    cache.put_state("semcache", "ctx", payload)
    (path,) = (tmp_path / "semcache").glob("*.json")
    assert path.read_text(encoding="utf-8") == _canonical_state("semcache", payload)
    assert RunCache(tmp_path).get_state("semcache", "ctx") == payload


@pytest.mark.parametrize("kind", ["semcache", "launches"])
def test_harness_state_files_are_plain_envelope_dumps(tmp_path, kind):
    """A semcache index and a launch memo, as a real run writes them."""
    harness = EvaluationHarness(
        backend="serial", cache_dir=tmp_path / "cache", semcache=True
    )
    harness.evaluation("atax").pka_sim()
    paths = list((tmp_path / "cache" / kind).glob("*.json"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        payload = json.loads(text)["payload"]
        assert text == _canonical_state(kind, payload)


# -- sweep manifests ---------------------------------------------------------


def test_manifest_round_trips(tmp_path):
    cache = RunCache(tmp_path)
    document = {"sweep_id": "abc123", "total_cells": 2, "quarantined": []}
    assert cache.get_manifest("abc123") is None
    cache.put_manifest("abc123", document)
    assert cache.get_manifest("abc123") == document
    # A fresh instance reads it from disk.
    assert RunCache(tmp_path).get_manifest("abc123") == document
    assert (tmp_path / "manifests" / "abc123.json").exists()


def test_manifests_do_not_count_as_entries(tmp_path):
    cache = RunCache(tmp_path)
    cache.put_manifest("abc123", {"sweep_id": "abc123"})
    assert cache.entry_count() == 0
    cache.put_run(_digest_for(VOLTA_V100), _volta_run())
    assert cache.entry_count() == 1


def test_corrupt_manifest_reads_as_missing(tmp_path):
    cache = RunCache(tmp_path)
    cache.put_manifest("abc123", {"sweep_id": "abc123"})
    (tmp_path / "manifests" / "abc123.json").write_text("{broken", encoding="utf-8")
    assert cache.get_manifest("abc123") is None


@pytest.mark.parametrize("text", ["[1, 2]", "7", '"manifest"', "null"])
def test_non_object_manifest_reads_as_missing(tmp_path, text):
    cache = RunCache(tmp_path)
    (tmp_path / "manifests").mkdir()
    (tmp_path / "manifests" / "s1.json").write_text(text, encoding="utf-8")
    assert cache.get_manifest("s1") is None


def test_null_cache_swallows_manifests():
    null = NullRunCache()
    null.put_manifest("abc123", {"sweep_id": "abc123"})
    assert null.get_manifest("abc123") is None


def test_cli_no_cache_flag_selects_null_cache(tmp_path):
    from repro.cli import _harness_from_args, build_parser

    argv = ["simulate", WORKLOAD, "--cache-dir", str(tmp_path), "--no-cache"]
    harness = _harness_from_args(build_parser().parse_args(argv))
    assert isinstance(harness.run_cache, NullRunCache)

    argv = ["simulate", WORKLOAD, "--cache-dir", str(tmp_path)]
    harness = _harness_from_args(build_parser().parse_args(argv))
    assert isinstance(harness.run_cache, RunCache)
    assert harness.run_cache.root == tmp_path
