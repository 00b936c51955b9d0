"""Fault-tolerant evaluation sweeps: partial results, manifests, resume.

The contract under test is the acceptance scenario of the fault-tolerant
runtime: a workload x method x GPU sweep with injected poison cells must
*complete*, return a structured :class:`CellFailure` for exactly the
poisoned cells, leave every other cell bit-identical to a clean serial
sweep, record a quarantine manifest, and — re-run against the same run
cache — recompute only what failed.
"""

from __future__ import annotations

import pytest

from repro.analysis import CellFailure, EvaluationHarness
from repro.analysis.harness import cell_label
from repro.errors import (
    FaultInjectedError,
    ReproError,
    RetryExhaustedError,
    TaskFailureError,
)
from repro.gpu import VOLTA_V100, get_gpu
from repro.sim.faults import FaultPlan
from repro.sim.parallel import FaultPolicy, ProcessPoolBackend
from repro.sim.silicon import SiliconExecutor

#: Zero backoff: retry-heavy sweeps should not sleep in tests.
FAST = FaultPolicy(max_retries=1, backoff_base_seconds=0.0)

#: 10 workloads x 3 GPU generations = the ISSUE's 30-cell sweep; every
#: cell computes a non-None silicon result, so cache accounting is exact.
ACCEPTANCE_WORKLOADS = (
    "atax", "bicg", "fdtd2d", "2mm", "3mm",
    "cutcp", "histo", "spmv", "gsummv", "mri",
)
ACCEPTANCE_CELLS = [
    (workload, "silicon", generation)
    for workload in ACCEPTANCE_WORKLOADS
    for generation in ("volta", "turing", "ampere")
]

SMALL_CELLS = [
    ("fdtd2d", "silicon", None),
    ("cutcp", "silicon", None),
    ("histo", "silicon", None),
]


# -- cell labels and compute_cell --------------------------------------------


def test_cell_label_forms():
    assert cell_label("fdtd2d", "silicon", None) == "fdtd2d:silicon"
    assert cell_label("fdtd2d", "silicon", "V100") == "fdtd2d:silicon@V100"
    assert cell_label("fdtd2d", "silicon", VOLTA_V100) == "fdtd2d:silicon@V100"


def test_compute_cell_nonstrict_returns_failure_record(monkeypatch):
    harness = EvaluationHarness()
    evaluation = harness.evaluation("fdtd2d")
    monkeypatch.setattr(
        SiliconExecutor,
        "run",
        lambda self, *args, **kwargs: (_ for _ in ()).throw(
            RuntimeError("blown fuse")
        ),
    )
    result = evaluation.compute_cell("silicon", "volta", strict=False)
    assert isinstance(result, CellFailure)
    assert result.workload == "fdtd2d"
    assert result.method == "silicon"
    assert result.gpu == "V100"
    assert result.kind == "exception"
    assert result.error_type == "RuntimeError"
    assert "blown fuse" in result.message
    assert result.label == "fdtd2d:silicon@V100"
    assert isinstance(result.to_error(), TaskFailureError)
    # Strict mode re-raises the original.
    with pytest.raises(RuntimeError, match="blown fuse"):
        evaluation.compute_cell("silicon", "volta")


def test_unknown_method_raises_even_nonstrict():
    evaluation = EvaluationHarness().evaluation("fdtd2d")
    with pytest.raises(ReproError, match="unknown cell method"):
        evaluation.compute_cell("teleport", strict=False)


def test_cell_failure_record_is_json_ready():
    failure = CellFailure(
        workload="fdtd2d",
        method="silicon",
        gpu="V100",
        kind="crash",
        error_type="WorkerCrashError",
        message="died",
        attempts=3,
    )
    record = failure.to_record()
    assert record["label"] == "fdtd2d:silicon@V100"
    assert record["kind"] == "crash"
    assert record["attempts"] == 3


# -- partial results and manifests (serial; fast) ----------------------------


def test_sweep_quarantines_poison_and_keeps_the_rest():
    clean = EvaluationHarness().evaluate_cells(SMALL_CELLS)
    harness = EvaluationHarness(fault_policy=FAST)
    results = harness.evaluate_cells(
        SMALL_CELLS, fault_plan=FaultPlan.parse("exception@1xP")
    )
    assert isinstance(results[1], CellFailure)
    assert results[1].kind == "exception"
    assert results[1].error_type == "FaultInjectedError"
    assert results[1].attempts == FAST.max_attempts
    assert results[0] == clean[0]  # bit-identical bystanders
    assert results[2] == clean[2]


def test_transient_fault_recovers_invisibly():
    clean = EvaluationHarness().evaluate_cells(SMALL_CELLS)
    harness = EvaluationHarness(fault_policy=FAST)
    results = harness.evaluate_cells(
        SMALL_CELLS, fault_plan=FaultPlan.parse("exception@1")
    )
    assert results == clean
    assert harness.last_manifest["quarantined"] == []


def test_manifest_records_the_sweep():
    harness = EvaluationHarness(fault_policy=FAST)
    harness.evaluate_cells(SMALL_CELLS, fault_plan=FaultPlan.parse("crash@0xP"))
    manifest = harness.last_manifest
    assert manifest["total_cells"] == 3
    assert manifest["cells"] == [cell_label(w, m, g) for w, m, g in SMALL_CELLS]
    assert manifest["quarantined"] == ["fdtd2d:silicon"]
    assert manifest["completed"] == ["cutcp:silicon", "histo:silicon"]
    (record,) = manifest["failures"]
    assert record["kind"] == "crash"
    assert record["attempts"] == FAST.max_attempts
    # The sweep id is a pure function of the cells and context: replays
    # address the same manifest.
    again = EvaluationHarness(fault_policy=FAST)
    again.evaluate_cells(SMALL_CELLS)
    assert again.last_manifest["sweep_id"] == manifest["sweep_id"]


def test_strict_sweep_raises_after_recording_manifest():
    harness = EvaluationHarness(fault_policy=FAST)
    with pytest.raises(RetryExhaustedError) as info:
        harness.evaluate_cells(
            SMALL_CELLS,
            strict=True,
            fault_plan=FaultPlan.parse("exception@2xP"),
        )
    assert isinstance(info.value.__cause__, FaultInjectedError)
    # Completed work was not lost: the manifest still landed.
    assert harness.last_manifest is not None
    assert harness.last_manifest["quarantined"] == ["histo:silicon"]
    assert len(harness.last_manifest["completed"]) == 2


def test_successes_are_memoized_despite_failures():
    harness = EvaluationHarness(fault_policy=FAST)
    results = harness.evaluate_cells(
        SMALL_CELLS, fault_plan=FaultPlan.parse("exception@0xP")
    )
    # The completed cells landed in the in-memory memo: accessors hit.
    assert harness.evaluation("cutcp").silicon() is results[1]
    assert harness.evaluation("histo").silicon() is results[2]


# -- checkpoint / resume ------------------------------------------------------


def test_resume_recomputes_only_failed_cells(tmp_path):
    clean = EvaluationHarness().evaluate_cells(SMALL_CELLS)

    faulted = EvaluationHarness(cache_dir=tmp_path, fault_policy=FAST)
    first = faulted.evaluate_cells(
        SMALL_CELLS, fault_plan=FaultPlan.parse("exception@1xP")
    )
    assert isinstance(first[1], CellFailure)
    assert faulted.run_cache.writes == 2  # completed cells checkpointed

    resumed = EvaluationHarness(cache_dir=tmp_path)
    results = resumed.evaluate_cells(SMALL_CELLS)
    assert results == clean  # the sweep is now whole, and bit-identical
    assert resumed.run_cache.hits == 2  # completed cells loaded
    assert resumed.run_cache.writes == 1  # only the failed cell recomputed
    assert resumed.last_manifest["quarantined"] == []


# -- the ISSUE acceptance scenario (chaos; dedicated CI job) -----------------


@pytest.mark.faults
def test_acceptance_30_cell_sweep_with_injected_poison_crash_and_hang(tmp_path):
    """1 poison exception + 1 worker crash + 1 hang in a 30-cell pooled
    sweep: the sweep completes, the manifest reports exactly the injected
    failures, every other cell is bit-identical to a clean serial sweep,
    and a second invocation resumes from cache touching only the failed
    cells."""
    clean = EvaluationHarness().evaluate_cells(ACCEPTANCE_CELLS)
    assert all(result is not None for result in clean)

    plan = FaultPlan.parse("exception@3xP,crash@7xP,hang@11xP")
    policy = FaultPolicy(
        max_retries=1, timeout_seconds=1.0, backoff_base_seconds=0.0
    )
    harness = EvaluationHarness(
        backend=ProcessPoolBackend(2),
        cache_dir=tmp_path,
        fault_policy=policy,
        fault_plan=plan,
    )
    results = harness.evaluate_cells(ACCEPTANCE_CELLS)

    failed = {
        index: result
        for index, result in enumerate(results)
        if isinstance(result, CellFailure)
    }
    assert sorted(failed) == [3, 7, 11]
    assert failed[3].kind == "exception"
    assert failed[7].kind == "crash"
    assert failed[11].kind == "timeout"
    for failure in failed.values():
        assert failure.attempts == policy.max_attempts
    for index, result in enumerate(results):
        if index not in failed:
            assert result == clean[index]  # bit-identical to clean serial

    manifest = harness.last_manifest
    assert manifest["total_cells"] == 30
    assert len(manifest["completed"]) == 27
    assert manifest["quarantined"] == sorted(
        # evaluate_cells resolves generation strings to GPU configs, so
        # manifest labels carry the GPU *name* (V100, RTX2060, ...).
        cell_label(w, m, get_gpu(g)) for w, m, g in
        (ACCEPTANCE_CELLS[index] for index in (3, 7, 11))
    )
    assert {record["kind"] for record in manifest["failures"]} == {
        "exception", "crash", "timeout",
    }
    # The manifest was persisted under the cache for post-mortems.
    assert harness.run_cache.get_manifest(manifest["sweep_id"]) == manifest

    # Resume: a fresh invocation against the same cache loads all 27
    # completed cells and recomputes exactly the 3 quarantined ones.
    resumed = EvaluationHarness(cache_dir=tmp_path)
    final = resumed.evaluate_cells(ACCEPTANCE_CELLS)
    assert final == clean
    assert resumed.run_cache.hits == 27
    assert resumed.run_cache.misses == 3
    assert resumed.run_cache.writes == 3
    assert resumed.last_manifest["quarantined"] == []
