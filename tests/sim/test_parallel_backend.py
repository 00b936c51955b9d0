"""The parallel execution backend: bit-identical to serial, by construction.

The process pool's deterministic reduce (results gathered in submission
order, accumulated by the unchanged serial loop) is what lets every other
layer offer ``backend="auto"`` without a correctness caveat; these tests
pin that property over random seeded workloads, worker-count sweeps and
failure paths.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TaskTimeoutError, WorkerCrashError
from repro.gpu import InstructionMix, KernelLaunch, KernelSpec, VOLTA_V100
from repro.sim import Simulator
from repro.sim.parallel import (
    ExecutionBackend,
    FaultPolicy,
    ProcessPoolBackend,
    SerialBackend,
    auto_worker_count,
    chunked,
    resolve_backend,
)

WORKER_SWEEP = sorted({1, 2, auto_worker_count()})


def _doubler(item: int) -> int:
    return item * 2


def _explode(item: int) -> int:
    if item % 3 == 0:
        raise ValueError(f"boom {item}")
    return item * 2


# -- resolve_backend ---------------------------------------------------------


def test_resolve_defaults_to_serial():
    for spec in (None, "", "serial", 1, "1"):
        assert isinstance(resolve_backend(spec), SerialBackend)


def test_resolve_auto_uses_cpu_count():
    for spec in ("auto", "process", "process-pool", 0):
        backend = resolve_backend(spec)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.jobs == auto_worker_count()


def test_resolve_worker_counts():
    assert resolve_backend(3).jobs == 3
    assert resolve_backend("4").jobs == 4
    assert isinstance(resolve_backend("4"), ProcessPoolBackend)


def test_resolve_passes_instances_through():
    backend = ProcessPoolBackend(2)
    assert resolve_backend(backend) is backend
    serial = SerialBackend()
    assert resolve_backend(serial) is serial


def test_resolve_rejects_garbage():
    with pytest.raises(ConfigurationError):
        resolve_backend("turbo")
    with pytest.raises(ConfigurationError):
        resolve_backend(-1)
    with pytest.raises(ConfigurationError):
        resolve_backend(3.5)  # type: ignore[arg-type]


def test_backends_satisfy_protocol():
    assert isinstance(SerialBackend(), ExecutionBackend)
    assert isinstance(ProcessPoolBackend(2), ExecutionBackend)


# -- chunked -----------------------------------------------------------------


@given(st.lists(st.integers(), max_size=50), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_chunked_partitions_in_order(items, n_chunks):
    chunks = chunked(items, n_chunks)
    assert [x for chunk in chunks for x in chunk] == items
    assert len(chunks) <= n_chunks
    if items:
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert all(sizes)


# -- map_tasks ---------------------------------------------------------------


@pytest.mark.parametrize("jobs", WORKER_SWEEP)
def test_map_tasks_preserves_order(jobs):
    items = list(range(23))
    backend = resolve_backend(jobs)
    assert backend.map_tasks(_doubler, items) == [x * 2 for x in items]


def test_map_tasks_empty_and_singleton():
    backend = ProcessPoolBackend(2)
    assert backend.map_tasks(_doubler, []) == []
    assert backend.map_tasks(_doubler, [21]) == [42]


def test_worker_exception_propagates_with_type_and_message():
    backend = ProcessPoolBackend(2)
    with pytest.raises(ValueError, match="boom 3"):
        backend.map_tasks(_explode, [1, 2, 3, 4])


def test_earliest_failure_wins_regardless_of_scheduling():
    """With several failing tasks the earliest-submitted one is reported,
    so the error a user sees does not depend on pool scheduling."""
    backend = ProcessPoolBackend(2)
    for _ in range(3):
        with pytest.raises(ValueError, match="boom 3"):
            backend.map_tasks(_explode, [1, 3, 6, 9, 12])


def test_serial_backend_raises_inline():
    with pytest.raises(ValueError, match="boom 3"):
        SerialBackend().map_tasks(_explode, [3, 1])


# -- run_tasks edge cases ----------------------------------------------------


@pytest.mark.parametrize("jobs", WORKER_SWEEP)
def test_run_tasks_empty_list(jobs):
    assert resolve_backend(jobs).run_tasks(_doubler, []) == []


@pytest.mark.parametrize("jobs", WORKER_SWEEP)
def test_run_tasks_single_task_runs_inline(jobs):
    (outcome,) = resolve_backend(jobs).run_tasks(_doubler, [21])
    assert outcome.ok
    assert outcome.index == 0
    assert outcome.value == 42


def test_intra_sharding_with_more_workers_than_blocks():
    """A one-block grid has one fold chunk: a 7-worker intra backend must
    fall back to the serial fold (no pool, no empty shards) and agree."""
    from repro.sim import simulate_kernel

    spec = KernelSpec(
        name="edge_single_block",
        threads_per_block=128,
        mix=InstructionMix(fp_ops=120.0, global_loads=8.0, control_ops=6.0),
        duration_cv=0.2,
    )
    launch = KernelLaunch(spec=spec, grid_blocks=1, launch_id=0)
    serial = simulate_kernel(launch, VOLTA_V100)
    sharded = simulate_kernel(launch, VOLTA_V100, intra=ProcessPoolBackend(7))
    assert sharded == serial


# -- typed errors at the backend boundary ------------------------------------


def _exit_on_7(item: int) -> int:
    if item == 7:
        os._exit(73)
    return item * 2


def _sleep_on_2(item: int) -> int:
    if item == 2:
        import time

        time.sleep(5.0)
    return item * 2


@pytest.mark.faults
def test_dead_worker_surfaces_as_crash_error_naming_the_task():
    """A worker taken down mid-task must not leak the stdlib's
    BrokenProcessPool: ``map_tasks`` re-raises it as WorkerCrashError
    carrying the identity of the task that killed the pool."""
    backend = ProcessPoolBackend(2)
    with pytest.raises(WorkerCrashError) as info:
        backend.map_tasks(_exit_on_7, [1, 3, 7, 9, 11, 13])
    assert info.value.task_index == 2  # position of item 7
    assert "task 2" in str(info.value)


@pytest.mark.faults
def test_hung_worker_surfaces_as_timeout_error():
    backend = ProcessPoolBackend(2)
    policy = FaultPolicy(max_retries=0, timeout_seconds=0.3)
    with pytest.raises(TaskTimeoutError) as info:
        backend.run_tasks(_sleep_on_2, [0, 1, 2, 3], policy=policy, strict=True)
    assert info.value.task_index == 2


@pytest.mark.faults
def test_run_tasks_partial_results_keep_completed_work():
    """Non-strict ``run_tasks`` returns structured failures in-slot and
    every other task's value — nothing completed is discarded."""
    backend = ProcessPoolBackend(2)
    outcomes = backend.run_tasks(_explode, [1, 3, 4, 6, 8])
    assert [o.ok for o in outcomes] == [True, False, True, False, True]
    assert [o.value for o in outcomes if o.ok] == [2, 8, 16]
    for outcome in outcomes:
        if not outcome.ok:
            assert outcome.failure.kind == "exception"
            assert outcome.failure.error_type == "ValueError"
            assert "boom" in outcome.failure.message


def _exit_mid_shard(payload):
    """A block-shard worker task that dies mid-shard, as OOM kills do."""
    os._exit(73)


_BIG_SHARD_SPEC = KernelSpec(
    name="crash_shard_kernel",
    threads_per_block=256,
    mix=InstructionMix(fp_ops=60.0, global_loads=24.0, control_ops=5.0),
    l2_locality=0.2,
    working_set_bytes=256e6,
    duration_cv=0.3,
)


@pytest.mark.faults
def test_worker_crash_mid_shard_is_typed_not_partial(monkeypatch):
    """A worker dying mid-shard must surface as WorkerCrashError — never
    as a recombination of the surviving shards' partial sums."""
    import repro.sim.parallel as parallel
    from repro.sim import simulate_kernel

    monkeypatch.setattr(parallel, "block_shard_task", _exit_mid_shard)
    launch = KernelLaunch(spec=_BIG_SHARD_SPEC, grid_blocks=150_000, launch_id=0)
    with pytest.raises(WorkerCrashError):
        simulate_kernel(launch, VOLTA_V100, intra=ProcessPoolBackend(2))


@pytest.mark.faults
def test_worker_crash_mid_shard_quarantines_cell_as_typed_failure(monkeypatch):
    """At the harness level the same mid-shard crash recombines into a
    typed CellFailure (kind="crash") in the cell's slot — the sweep
    neither aborts nor records a partial result for the cell."""
    import repro.sim.parallel as parallel
    from repro.analysis import CellFailure, EvaluationHarness
    from repro.workloads.spec import WorkloadSpec, _REGISTRY, get_workload, register

    def _build():
        return [
            KernelLaunch(spec=_BIG_SHARD_SPEC, grid_blocks=150_000, launch_id=0)
        ]

    get_workload("fdtd2d")  # force the registry load before registering
    register(WorkloadSpec("crash_shard_app", "synthetic", _build))
    try:
        monkeypatch.setattr(parallel, "block_shard_task", _exit_mid_shard)
        harness = EvaluationHarness(
            intra_jobs=2,
            fault_policy=FaultPolicy(max_retries=0, backoff_base_seconds=0.0),
        )
        (result,) = harness.evaluate_cells([("crash_shard_app", "full_sim", None)])
        assert isinstance(result, CellFailure)
        assert result.kind == "crash"
        assert result.error_type == "WorkerCrashError"
        assert result.workload == "crash_shard_app"
    finally:
        _REGISTRY.pop("crash_shard_app", None)


# -- parallel == serial on simulated workloads -------------------------------


@st.composite
def seeded_launches(draw):
    """A short seeded workload: few distinct kernels, repeated launches."""
    n_specs = draw(st.integers(1, 4))
    specs = []
    for index in range(n_specs):
        mix = InstructionMix(
            fp_ops=draw(st.floats(1.0, 2e3)),
            int_ops=draw(st.floats(0.0, 500.0)),
            global_loads=draw(st.floats(0.0, 80.0)),
            global_stores=draw(st.floats(0.0, 40.0)),
            shared_loads=draw(st.floats(0.0, 200.0)),
            control_ops=draw(st.floats(0.1, 50.0)),
        )
        specs.append(
            KernelSpec(
                name=f"prop_kernel_{index}",
                threads_per_block=draw(st.sampled_from([64, 128, 256, 512])),
                mix=mix,
                l2_locality=draw(st.floats(0.0, 1.0)),
                working_set_bytes=draw(st.floats(1e4, 1e9)),
                duration_cv=draw(st.floats(0.0, 0.5)),
                divergence_efficiency=draw(st.floats(0.3, 1.0)),
            )
        )
    launches = []
    for launch_id in range(draw(st.integers(1, 10))):
        spec = draw(st.sampled_from(specs))
        launches.append(
            KernelLaunch(
                spec=spec,
                grid_blocks=draw(st.sampled_from([80, 160, 1_000, 4_000])),
                launch_id=launch_id,
            )
        )
    return launches


@given(seeded_launches())
@settings(max_examples=10, deadline=None)
def test_parallel_full_sim_equals_serial(launches):
    serial = Simulator(VOLTA_V100).run_full("prop_app", launches, keep_records=True)
    pooled = Simulator(VOLTA_V100, backend=ProcessPoolBackend(2)).run_full(
        "prop_app", launches, keep_records=True
    )
    assert pooled == serial  # dataclass equality: exact floats, all fields


@pytest.mark.parametrize("jobs", WORKER_SWEEP)
def test_worker_sweep_on_corpus_workload(jobs):
    """Every worker count produces the same AppRunResult on a real
    corpus workload (distinct kernels, repeated launches, NVTX tags)."""
    from repro.workloads import get_workload

    launches = get_workload("fdtd2d").build("volta")
    reference = Simulator(VOLTA_V100).run_full("fdtd2d", launches)
    candidate = Simulator(VOLTA_V100, backend=jobs).run_full("fdtd2d", launches)
    assert candidate == reference


def test_budgeted_run_forces_serial_path():
    """A simulation budget depends on prior results, so the parallel
    prefetch must not run (and results must still match serial)."""
    from repro.workloads import get_workload

    launches = get_workload("fdtd2d").build("volta")
    serial = Simulator(VOLTA_V100).run_full(
        "fdtd2d", launches, max_simulated_cycles=1e5
    )
    pooled = Simulator(VOLTA_V100, backend=ProcessPoolBackend(2)).run_full(
        "fdtd2d", launches, max_simulated_cycles=1e5
    )
    assert pooled == serial


def test_prefetch_fills_the_same_memo_table():
    """Parallel prefetch lands in ``_full_run_cache`` exactly where the
    serial path would have put each result."""
    from repro.workloads import get_workload

    launches = get_workload("cutcp").build("volta")
    serial_sim = Simulator(VOLTA_V100)
    serial_sim.run_full("cutcp", launches)
    pooled_sim = Simulator(VOLTA_V100, backend=ProcessPoolBackend(2))
    pooled_sim.run_full("cutcp", launches)
    assert pooled_sim._full_run_cache.keys() == serial_sim._full_run_cache.keys()
    for key, result in serial_sim._full_run_cache.items():
        assert pooled_sim._full_run_cache[key] == result


# -- harness cell dispatch ---------------------------------------------------


def test_evaluate_cells_parallel_equals_serial():
    from repro.analysis import EvaluationHarness

    cells = [
        ("fdtd2d", "silicon", None),
        ("fdtd2d", "pka_sim", None),
        ("cutcp", "silicon", "turing"),
    ]
    serial = EvaluationHarness().evaluate_cells(cells)
    pooled = EvaluationHarness(backend=ProcessPoolBackend(2)).evaluate_cells(cells)
    assert pooled == serial
    assert all(result is not None for result in serial)


def test_evaluate_cells_populates_local_memo():
    from repro.analysis import EvaluationHarness

    harness = EvaluationHarness(backend=ProcessPoolBackend(2))
    (run,) = harness.evaluate_cells([("fdtd2d", "pka_sim", None)])
    # Subsequent accessor calls must hit the in-memory memo, not recompute.
    assert harness.evaluation("fdtd2d").pka_sim() is run


def test_auto_worker_count_positive():
    assert auto_worker_count() >= 1
    assert auto_worker_count() >= (os.cpu_count() or 1)
