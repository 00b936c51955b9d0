"""The persistent launch memo: a warm process keys cells without a build.

A built-in workload's launch digest and launch count are remembered in
the run cache's state store under ``<cache>/launches/``, keyed by the
workload and the fingerprint of the code that builds and digests it.
The memo must return exactly what a fresh build would, must never serve
a workload registered at runtime, must rebuild on any damage, and must
miss as soon as a fingerprinted source changes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.analysis import EvaluationHarness
from repro.analysis import harness as harness_module
from repro.analysis.harness import LAUNCH_MEMO
from repro.analysis.persistence import (
    LAUNCH_SOURCES,
    dump_run,
    launch_code_fingerprint,
    launches_digest,
)
from repro.workloads import WorkloadSpec, get_workload, register, workload_names
from repro.workloads.generator import MIB, LaunchBuilder, compute_spec
from repro.workloads.spec import _REGISTRY

GENERATIONS = ("volta", "turing", "ampere")

#: An MLPerf workload, a Polybench one, a cuDNN workload with a Turing
#: variant builder and a near duplicate.
SAMPLE = (
    "mlperf_resnet50_64b",
    "gramschmidt",
    "db_conv_train_fp32_0",
    "atax~nd1",
)

PACKAGE = Path(repro.__file__).resolve().parent


@pytest.fixture
def memo_calls(monkeypatch) -> list[str]:
    """Records every launch-memo read and write of any run cache."""
    from repro.analysis.persistence import RunCache

    calls: list[str] = []
    for name in ("get_state", "put_state"):
        original = getattr(RunCache, name)

        def recording(self, kind, *args, _name=name, _original=original):
            if kind == LAUNCH_MEMO:
                calls.append(_name)
            return _original(self, kind, *args)

        monkeypatch.setattr(RunCache, name, recording)
    return calls


def _fresh_facts(name: str) -> dict[str, tuple[str, int]]:
    """Each distinct builder's digest and count, from a fresh build."""
    spec = get_workload(name)
    facts = {}
    for generation in GENERATIONS:
        key = spec.builder_key(generation)
        if key not in facts:
            table = spec.build(generation)
            facts[key] = (launches_digest(table), len(table))
    return facts


def _assert_memo_matches_builds(names, cache_dir, builder_calls) -> None:
    for name in names:
        # One writer per workload: no harness holds every launch table.
        writer = EvaluationHarness(cache_dir=cache_dir).evaluation(name)
        for generation in GENERATIONS:
            writer.launch_digest(generation)
    builder_calls.clear()
    reader = EvaluationHarness(cache_dir=cache_dir)
    remembered = {}
    for name in names:
        evaluation = reader.evaluation(name)
        remembered[name] = {
            evaluation.spec.builder_key(generation): (
                evaluation.launch_digest(generation),
                evaluation.launch_count(generation),
            )
            for generation in GENERATIONS
        }
    assert not builder_calls, builder_calls  # every fact came from the memo
    for name in names:
        assert remembered[name] == _fresh_facts(name), name


@pytest.mark.parametrize("name", SAMPLE)
def test_memo_equals_a_fresh_build(name, tmp_path, builder_calls):
    _assert_memo_matches_builds([name], tmp_path, builder_calls)


@pytest.mark.differential
def test_memo_equals_a_fresh_build_over_the_corpus(tmp_path, builder_calls):
    """Every workload, every distinct builder, and each one's ``~nd1``."""
    names = workload_names()
    assert len(names) == 147
    _assert_memo_matches_builds(
        names + [f"{name}~nd1" for name in names], tmp_path, builder_calls
    )


def test_sample_covers_a_variant_builder():
    spec = get_workload("db_conv_train_fp32_0")
    assert {spec.builder_key(generation) for generation in GENERATIONS} == {
        "*",
        "turing",
    }


def test_one_small_state_file_per_workload(tmp_path):
    harness = EvaluationHarness(cache_dir=tmp_path)
    for name in SAMPLE:
        harness.cell_digest_for(name, "tbpoint_sim", "turing")
    files = sorted((tmp_path / LAUNCH_MEMO).iterdir())
    assert len(files) == len(SAMPLE)
    for path in files:
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["kind"] == f"{LAUNCH_MEMO}_state"
        for facts in document["payload"].values():
            assert set(facts) == {"digest", "launches"}


class TestOnlyTheBuiltInCorpus:
    @pytest.fixture
    def runtime_workload(self):
        def build():
            builder = LaunchBuilder()
            spec = compute_spec(
                "memo_runtime_k", flops=200.0, loads=8.0, working_set=4 * MIB
            )
            builder.add(spec, grid_blocks=64, repeat=3)
            return builder.table()

        get_workload("atax")  # load the registry before registering
        name = "memo_runtime_app"
        register(WorkloadSpec(name=name, suite="runtime", builder=build))
        try:
            yield name
        finally:
            _REGISTRY.pop(name, None)

    def test_runtime_registered_workload_never_uses_the_memo(
        self, runtime_workload, tmp_path, builder_calls, memo_calls
    ):
        for _ in range(2):
            harness = EvaluationHarness(cache_dir=tmp_path)
            harness.cell_digest_for(runtime_workload, "tbpoint_sim")
            harness.cell_digest_for(f"{runtime_workload}~nd1", "full_sim")
        assert memo_calls == []
        assert not (tmp_path / LAUNCH_MEMO).exists()
        assert builder_calls == {runtime_workload: 2, f"{runtime_workload}~nd1": 2}

    def test_a_replaced_spec_object_always_builds(
        self, tmp_path, builder_calls, memo_calls
    ):
        EvaluationHarness(cache_dir=tmp_path).cell_digest_for("atax", "full_sim")
        builder_calls.clear()
        memo_calls.clear()
        copy = dataclasses.replace(get_workload("atax"))
        evaluation = EvaluationHarness(cache_dir=tmp_path).evaluation(copy)
        evaluation.launch_digest("volta")
        assert memo_calls == []
        assert builder_calls == {"atax": 1}

    def test_no_run_cache_always_builds(self, builder_calls):
        for _ in range(2):
            EvaluationHarness().cell_digest_for("atax", "full_sim")
        assert builder_calls == {"atax": 2}


def _memo_path(cache_dir: Path) -> Path:
    (path,) = (cache_dir / LAUNCH_MEMO).iterdir()
    return path


def _truncate(path: Path) -> None:
    path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")


def _foreign_schema(path: Path) -> None:
    document = json.loads(path.read_text(encoding="utf-8"))
    document["schema"] += 1
    path.write_text(json.dumps(document), encoding="utf-8")


def _malformed_payload(path: Path) -> None:
    """A well-formed envelope whose facts are not facts."""
    from repro.analysis.persistence import seal

    document = json.loads(path.read_text(encoding="utf-8"))
    payload = json.dumps({"*": {"digest": 7, "launches": "many"}}, sort_keys=True)
    path.write_text(seal(document["kind"], payload, inline=True), encoding="utf-8")


@pytest.mark.parametrize("damage", [_truncate, _foreign_schema, _malformed_payload])
def test_damaged_memo_is_rebuilt_and_changes_nothing(damage, tmp_path, builder_calls):
    reference = EvaluationHarness()
    expected_digest = reference.cell_digest_for("atax", "silicon")
    expected = dump_run(reference.evaluation("atax").silicon())

    EvaluationHarness(cache_dir=tmp_path).cell_digest_for("atax", "silicon")
    damage(_memo_path(tmp_path))
    builder_calls.clear()
    harness = EvaluationHarness(cache_dir=tmp_path)
    assert harness.cell_digest_for("atax", "silicon") == expected_digest
    assert dump_run(harness.evaluation("atax").silicon()) == expected
    assert builder_calls == {"atax": 1}

    builder_calls.clear()  # the rebuild rewrote a sound memo
    assert EvaluationHarness(cache_dir=tmp_path).cell_digest_for(
        "atax", "silicon"
    ) == expected_digest
    assert not builder_calls


class TestCodeFingerprint:
    @pytest.fixture
    def sources(self, tmp_path) -> Path:
        """A copy of the fingerprinted sources, laid out as in the package."""
        root = tmp_path / "repro"
        for pattern in LAUNCH_SOURCES:
            for path in PACKAGE.glob(pattern):
                target = root / path.relative_to(PACKAGE)
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, target)
        return root

    def test_copy_fingerprints_like_the_package(self, sources):
        assert launch_code_fingerprint(sources) == launch_code_fingerprint(PACKAGE)
        assert launch_code_fingerprint(PACKAGE) == harness_module._launch_code()

    def test_editing_a_builder_changes_the_context_and_misses(
        self, sources, tmp_path, monkeypatch, builder_calls
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.setattr(
            harness_module, "_launch_code", lambda: launch_code_fingerprint(sources)
        )
        before = EvaluationHarness(cache_dir=cache_dir)
        digest = before.cell_digest_for("gramschmidt", "full_sim")
        context = before._launch_memo_context(get_workload("gramschmidt"))
        builder_calls.clear()
        again = EvaluationHarness(cache_dir=cache_dir)
        again.cell_digest_for("gramschmidt", "full_sim")
        assert not builder_calls  # the unedited copy hits

        builder = sources / "workloads" / "polybench.py"
        builder.write_text(builder.read_text() + "\n# edited\n")
        after = EvaluationHarness(cache_dir=cache_dir)
        assert after._launch_memo_context(get_workload("gramschmidt")) != context
        assert after.cell_digest_for("gramschmidt", "full_sim") == digest
        assert builder_calls == {"gramschmidt": 1}

    @staticmethod
    def _unreadable(path: Path) -> None:
        path.unlink()
        path.mkdir()  # matched by the glob, but no bytes to read

    @pytest.mark.parametrize(
        "source, damage",
        [("gpu/kernels.py", _unreadable), ("analysis/persistence.py", Path.unlink)],
    )
    def test_an_unreadable_source_turns_the_memo_off(
        self, sources, source, damage, tmp_path, monkeypatch, builder_calls, memo_calls
    ):
        damage(sources / source)
        assert launch_code_fingerprint(sources) is None
        monkeypatch.setattr(
            harness_module, "_launch_code", lambda: launch_code_fingerprint(sources)
        )
        for _ in range(2):
            EvaluationHarness(cache_dir=tmp_path).cell_digest_for("atax", "full_sim")
        assert memo_calls == []
        assert builder_calls == {"atax": 2}


def test_concurrent_writers_never_serve_a_wrong_fact(tmp_path):
    """Threads keying the same workloads through fresh harnesses and one
    shared harness, over one cache: a lost memo update may only cost a
    rebuild, never a wrong digest or an unreadable memo."""
    cells = [
        ("db_conv_train_fp32_0", "silicon", "turing"),
        ("db_conv_train_fp32_0", "silicon", "volta"),
        ("atax", "tbpoint_sim", "ampere"),
        ("gramschmidt", "full_sim", None),
    ]
    expected = [EvaluationHarness().cell_digest_for(*cell) for cell in cells]
    shared = EvaluationHarness(cache_dir=tmp_path)
    seen: list[list[str]] = []
    errors: list[BaseException] = []

    def key_all(index: int) -> None:
        try:
            harness = shared if index % 2 else EvaluationHarness(cache_dir=tmp_path)
            order = cells[index % len(cells):] + cells[: index % len(cells)]
            digests = {cell: harness.cell_digest_for(*cell) for cell in order}
            seen.append([digests[cell] for cell in cells])
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=key_all, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert seen == [expected] * len(threads)
    reader = EvaluationHarness(cache_dir=tmp_path)
    assert [reader.cell_digest_for(*cell) for cell in cells] == expected
    for name in {cell[0] for cell in cells}:
        context = reader._launch_memo_context(get_workload(name))
        memo = reader.run_cache.get_state(LAUNCH_MEMO, context)
        fresh = _fresh_facts(name)
        for key, facts in memo.items():
            assert (facts["digest"], facts["launches"]) == fresh[key], name
