"""The fault-injection harness and the fault-tolerant task runtime.

Two layers under test.  The *plan* layer (`repro.sim.faults`) must be
deterministic and replayable: parsing round-trips, seeded plans are pure
functions of their seed, and a fault fires on exactly the attempts it
poisons.  The *runtime* layer (`FaultPolicy` + ``run_tasks`` on both
backends) must recover transients, quarantine persistents, classify
hangs/crashes/exceptions identically on both backends, and never
reorder results — the serial == parallel guarantee under chaos.

Tests that exercise real process pools, hung workers or ``os._exit``
crashes are marked ``faults`` (CI runs them in a dedicated job); the
plan/policy unit tests are plain tier-1.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.errors import (
    ConfigurationError,
    FaultInjectedError,
    RetryExhaustedError,
    TaskFailureError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.sim.faults import (
    DEFAULT_HANG_SECONDS,
    FAULT_KINDS,
    PERSISTENT,
    FaultPlan,
    InjectedFault,
    run_with_fault,
)
from repro.sim.parallel import (
    FAIL_FAST,
    FaultPolicy,
    ProcessPoolBackend,
    SerialBackend,
    TaskFailure,
    TaskOutcome,
)

#: Zero backoff so retry-heavy tests do not sleep.
FAST = FaultPolicy(max_retries=2, backoff_base_seconds=0.0)


def _double(item: int) -> int:
    return item * 2


def _slow_double(item: int) -> int:
    time.sleep(0.6)
    return item * 2


def _counted_double(payload: tuple) -> int:
    """Mark one run of task ``index`` in its marker file, then work a
    little, so bystanders are in flight when a poison task strikes."""
    directory, index = payload
    with open(os.path.join(directory, f"task-{index}"), "a") as marker:
        marker.write("x")
    time.sleep(0.1)
    return index * 2


def _unpicklable_on_3(item: int):
    return threading.Lock() if item == 3 else item * 2


# -- InjectedFault / FaultPlan construction ----------------------------------


def test_fault_validation():
    with pytest.raises(ConfigurationError):
        InjectedFault(task_index=0, kind="segfault")
    with pytest.raises(ConfigurationError):
        InjectedFault(task_index=-1, kind="exception")
    with pytest.raises(ConfigurationError):
        InjectedFault(task_index=0, kind="exception", attempts=0)


def test_persistent_threshold():
    assert not InjectedFault(task_index=0, kind="crash", attempts=99).persistent
    assert InjectedFault(task_index=0, kind="crash", attempts=PERSISTENT).persistent


def test_plan_rejects_duplicate_indices():
    with pytest.raises(ConfigurationError):
        FaultPlan(
            faults=(
                InjectedFault(task_index=3, kind="exception"),
                InjectedFault(task_index=3, kind="crash"),
            )
        )


def test_plan_lookup_and_truthiness():
    plan = FaultPlan(faults=(InjectedFault(task_index=2, kind="hang"),))
    assert plan
    assert not FaultPlan()
    assert plan.fault_for(2).kind == "hang"
    assert plan.fault_for(0) is None


def test_resolved_fills_hang_duration():
    plan = FaultPlan(faults=(InjectedFault(task_index=1, kind="hang"),))
    assert plan.resolved(1, 0.8).hang_seconds == 0.8
    # An explicit duration wins; non-hang faults pass through untouched.
    pinned = FaultPlan(
        faults=(InjectedFault(task_index=1, kind="hang", hang_seconds=0.1),)
    )
    assert pinned.resolved(1, 0.8).hang_seconds == 0.1
    assert plan.resolved(0, 0.8) is None


# -- spec parsing ------------------------------------------------------------


def test_parse_spec_forms():
    plan = FaultPlan.parse("exception@3,crash@7x99,hang@11xP")
    assert plan.fault_for(3) == InjectedFault(task_index=3, kind="exception")
    assert plan.fault_for(7) == InjectedFault(task_index=7, kind="crash", attempts=99)
    assert plan.fault_for(11).persistent
    assert FaultPlan.parse("") == FaultPlan()
    assert FaultPlan.parse(" exception@0 , ").fault_for(0) is not None


def test_spec_round_trips():
    plan = FaultPlan.parse("exception@3,crash@7x99,hang@11xP")
    assert FaultPlan.parse(plan.spec()) == plan


def test_parse_rejects_garbage():
    for text in ("boom@1", "exception@", "exception@x3", "crash@7xQ", "@3"):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(text)


# -- seeded plans ------------------------------------------------------------


def test_seeded_plans_are_deterministic():
    first = FaultPlan.seeded(42, 30)
    second = FaultPlan.seeded(42, 30)
    assert first == second
    assert first != FaultPlan.seeded(43, 30)


def test_seeded_plans_stay_in_range():
    for seed in range(8):
        plan = FaultPlan.seeded(seed, 12, n_faults=4, kinds=("exception", "crash"))
        assert len(plan.faults) == 4
        for fault in plan.faults:
            assert 0 <= fault.task_index < 12
            assert fault.kind in ("exception", "crash")
    assert FaultPlan.seeded(0, 0) == FaultPlan()
    # More faults than tasks clamps instead of failing.
    assert len(FaultPlan.seeded(0, 3, n_faults=10).faults) == 3


# -- FaultPolicy -------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        FaultPolicy(max_retries=-1)
    with pytest.raises(ConfigurationError):
        FaultPolicy(timeout_seconds=0.0)
    with pytest.raises(ConfigurationError):
        FaultPolicy(backoff_base_seconds=-0.1)
    assert FaultPolicy(max_retries=3).max_attempts == 4
    assert FAIL_FAST.max_attempts == 1


def test_backoff_is_deterministic_and_grows():
    policy = FaultPolicy(backoff_base_seconds=0.01, jitter_seed=7)
    again = FaultPolicy(backoff_base_seconds=0.01, jitter_seed=7)
    for task in (0, 5):
        for attempt in (1, 2, 3):
            assert policy.backoff_seconds(task, attempt) == again.backoff_seconds(
                task, attempt
            )
    # Exponential in the attempt, jitter bounded by the fraction.
    first = policy.backoff_seconds(0, 1)
    second = policy.backoff_seconds(0, 2)
    assert 0.01 <= first <= 0.01 * 1.25
    assert second > first
    # A different seed moves the jitter (same base).
    other = FaultPolicy(backoff_base_seconds=0.01, jitter_seed=8)
    assert other.backoff_seconds(0, 1) != policy.backoff_seconds(0, 1)


def test_hang_outlives_timeout():
    assert FaultPolicy(timeout_seconds=0.4).hang_seconds() == pytest.approx(0.6)
    assert FaultPolicy().hang_seconds() == DEFAULT_HANG_SECONDS


# -- run_with_fault ----------------------------------------------------------


def test_fault_fires_only_while_poisoned():
    fault = InjectedFault(task_index=0, kind="exception", attempts=2)
    for attempt in (1, 2):
        with pytest.raises(FaultInjectedError):
            run_with_fault((_double, 4, fault, attempt, False))
    assert run_with_fault((_double, 4, fault, 3, False)) == 8
    assert run_with_fault((_double, 4, None, 1, False)) == 8


def test_in_process_crash_is_simulated():
    fault = InjectedFault(task_index=5, kind="crash")
    with pytest.raises(WorkerCrashError) as info:
        run_with_fault((_double, 4, fault, 1, False))
    assert info.value.task_index == 5


# -- TaskFailure / TaskOutcome ----------------------------------------------


def test_failure_maps_kind_to_error_type():
    base = dict(index=3, label="cell 3", error_type="X", message="m", attempts=2)
    assert isinstance(TaskFailure(kind="timeout", **base).to_error(), TaskTimeoutError)
    assert isinstance(TaskFailure(kind="crash", **base).to_error(), WorkerCrashError)
    error = TaskFailure(kind="exception", **base).to_error()
    assert isinstance(error, RetryExhaustedError)
    assert isinstance(error, TaskFailureError)
    assert error.task_index == 3
    assert error.task_label == "cell 3"
    assert error.attempts == 2
    assert "cell 3" in str(error)
    assert "2 attempts" in str(error)


def test_outcome_equality_ignores_exception_object():
    a = TaskOutcome(0, "t", value=1, exception=ValueError("x"))
    b = TaskOutcome(0, "t", value=1)
    assert a == b
    assert a.ok and b.ok


# -- recovery: serial backend ------------------------------------------------


def test_serial_transient_exception_recovers():
    plan = FaultPlan.parse("exception@1")
    outcomes = SerialBackend().run_tasks(
        _double, range(4), policy=FAST, fault_plan=plan
    )
    assert [o.value for o in outcomes] == [0, 2, 4, 6]
    assert all(o.ok for o in outcomes)


def test_serial_persistent_exception_quarantined():
    plan = FaultPlan.parse("exception@1xP")
    outcomes = SerialBackend().run_tasks(
        _double, range(4), policy=FAST, fault_plan=plan
    )
    failed = [o for o in outcomes if not o.ok]
    assert [o.index for o in failed] == [1]
    failure = failed[0].failure
    assert failure.kind == "exception"
    assert failure.error_type == "FaultInjectedError"
    assert failure.attempts == FAST.max_attempts
    # Bystanders are untouched and in order.
    assert [o.value for o in outcomes if o.ok] == [0, 4, 6]


def test_serial_simulated_crash_quarantined():
    plan = FaultPlan.parse("crash@2xP")
    outcomes = SerialBackend().run_tasks(
        _double, range(4), policy=FAST, fault_plan=plan
    )
    (failed,) = [o for o in outcomes if not o.ok]
    assert failed.failure.kind == "crash"
    assert isinstance(failed.failure.to_error(), WorkerCrashError)


def test_serial_hang_without_timeout_just_delays():
    # No timeout: a hang is slowness, not a fault.
    plan = FaultPlan(
        faults=(InjectedFault(task_index=0, kind="hang", hang_seconds=0.01),)
    )
    outcomes = SerialBackend().run_tasks(_double, range(2), fault_plan=plan)
    assert [o.value for o in outcomes] == [0, 2]


@pytest.mark.faults
def test_serial_hang_past_timeout_is_classified():
    policy = FaultPolicy(
        max_retries=1, timeout_seconds=0.1, backoff_base_seconds=0.0
    )
    plan = FaultPlan.parse("hang@1xP")
    outcomes = SerialBackend().run_tasks(
        _double, range(3), policy=policy, fault_plan=plan
    )
    (failed,) = [o for o in outcomes if not o.ok]
    assert failed.index == 1
    assert failed.failure.kind == "timeout"
    assert isinstance(failed.failure.to_error(), TaskTimeoutError)


def test_serial_strict_raises_typed_error():
    plan = FaultPlan.parse("exception@0xP")
    with pytest.raises(RetryExhaustedError) as info:
        SerialBackend().run_tasks(
            _double, range(2), policy=FAST, fault_plan=plan, strict=True
        )
    assert isinstance(info.value.__cause__, FaultInjectedError)


def test_custom_labels_reach_failures():
    plan = FaultPlan.parse("exception@1xP")
    outcomes = SerialBackend().run_tasks(
        _double,
        range(2),
        policy=FAST,
        fault_plan=plan,
        labels=["alpha", "beta"],
    )
    assert outcomes[1].failure.label == "beta"
    assert "beta" in str(outcomes[1].failure.to_error())


def test_label_count_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        SerialBackend().run_tasks(_double, range(3), labels=["only one"])


# -- recovery: process pool (chaos; dedicated CI job) ------------------------


@pytest.mark.faults
def test_pool_transient_crash_recovers():
    plan = FaultPlan.parse("crash@2")
    outcomes = ProcessPoolBackend(2).run_tasks(
        _double, range(6), policy=FAST, fault_plan=plan
    )
    assert all(o.ok for o in outcomes)
    assert [o.value for o in outcomes] == [x * 2 for x in range(6)]


@pytest.mark.faults
def test_pool_persistent_crash_isolated_and_quarantined():
    """A real ``os._exit`` poison breaks the shared pool; the runtime must
    isolate it, charge it a WorkerCrashError and recompute bystanders."""
    plan = FaultPlan.parse("crash@3xP")
    policy = FaultPolicy(max_retries=1, backoff_base_seconds=0.0)
    outcomes = ProcessPoolBackend(2).run_tasks(
        _double, range(6), policy=policy, fault_plan=plan
    )
    failed = [o for o in outcomes if not o.ok]
    assert [o.index for o in failed] == [3]
    assert failed[0].failure.kind == "crash"
    assert failed[0].failure.attempts == 2
    assert [o.value for o in outcomes if o.ok] == [0, 2, 4, 8, 10]


@pytest.mark.faults
def test_pool_hang_charged_only_to_the_hung_task():
    """Per-task deadlines: a big batch behind a hung worker must not
    mass-expire; only the poison is charged a timeout."""
    plan = FaultPlan.parse("hang@1xP")
    policy = FaultPolicy(
        max_retries=1, timeout_seconds=0.3, backoff_base_seconds=0.0
    )
    outcomes = ProcessPoolBackend(2).run_tasks(
        _double, range(8), policy=policy, fault_plan=plan
    )
    failed = [o for o in outcomes if not o.ok]
    assert [o.index for o in failed] == [1]
    assert failed[0].failure.kind == "timeout"
    assert [o.value for o in outcomes if o.ok] == [
        x * 2 for x in range(8) if x != 1
    ]


@pytest.mark.faults
def test_pool_slow_tasks_do_not_expire_under_per_task_timeout():
    # 6 x 0.6s tasks through 2 workers is ~1.8s wall — far beyond the
    # 1.0s timeout if it were per-round, comfortably inside it per task.
    policy = FaultPolicy(max_retries=0, timeout_seconds=1.0)
    outcomes = ProcessPoolBackend(2).run_tasks(_slow_double, range(6), policy=policy)
    assert all(o.ok for o in outcomes)


@pytest.mark.faults
def test_pool_equals_serial_under_mixed_chaos():
    """The serial == parallel guarantee holds under a plan mixing a
    transient exception, a persistent crash and a persistent hang."""
    plan = FaultPlan.parse("exception@0,crash@2xP,hang@4xP")
    policy = FaultPolicy(
        max_retries=1, timeout_seconds=0.3, backoff_base_seconds=0.0
    )
    serial = SerialBackend().run_tasks(
        _double, range(6), policy=policy, fault_plan=plan
    )
    pooled = ProcessPoolBackend(2).run_tasks(
        _double, range(6), policy=policy, fault_plan=plan
    )

    def shape(outcomes):
        # Values and failure classification must agree; the failure
        # *message* may differ (a real dead worker cannot report the
        # prose a simulated one does).
        return [
            (
                o.index,
                o.value,
                o.failure and (o.failure.kind, o.failure.error_type, o.failure.attempts),
            )
            for o in outcomes
        ]

    assert shape(pooled) == shape(serial)
    assert [o.ok for o in serial] == [True, True, False, True, False, True]


@pytest.mark.faults
@pytest.mark.parametrize("spec", ["crash@2xP", "hang@1xP"])
def test_pool_runs_every_bystander_exactly_once(spec, tmp_path):
    """Each worker holds one task, so a dead or overdue worker is charged
    to the task it held and no other task's body ever runs twice."""
    plan = FaultPlan.parse(spec)
    (poison,) = plan.faults
    policy = FaultPolicy(
        max_retries=1, timeout_seconds=1.0, backoff_base_seconds=0.0
    )
    items = [(str(tmp_path), index) for index in range(16)]
    outcomes = ProcessPoolBackend(2).run_tasks(
        _counted_double, items, policy=policy, fault_plan=plan
    )
    assert [o.index for o in outcomes if not o.ok] == [poison.task_index]
    assert outcomes[poison.task_index].failure.attempts == 2
    for index in range(16):
        if index != poison.task_index:
            assert outcomes[index].value == index * 2
            assert (tmp_path / f"task-{index}").read_text() == "x", index


@pytest.mark.faults
def test_pool_unpicklable_result_fails_only_its_task():
    outcomes = ProcessPoolBackend(2).run_tasks(_unpicklable_on_3, range(6))
    assert [o.ok for o in outcomes] == [True, True, True, False, True, True]
    assert outcomes[3].failure.kind == "exception"
    assert outcomes[3].failure.attempts == 1
    assert [o.value for o in outcomes if o.ok] == [0, 2, 4, 8, 10]


@pytest.mark.faults
def test_pool_collects_every_worker():
    """No worker outlives ``run_tasks``: not after a crash and a retry,
    and not when a strict run raises.  (Compared against the children
    alive beforehand, so a process another test started is not blamed.)"""
    before = set(multiprocessing.active_children())
    backend = ProcessPoolBackend(2)
    outcomes = backend.run_tasks(
        _double, range(6), policy=FAST, fault_plan=FaultPlan.parse("crash@1")
    )
    assert all(o.ok for o in outcomes)
    assert set(multiprocessing.active_children()) <= before
    with pytest.raises(WorkerCrashError):
        backend.run_tasks(
            _double,
            range(6),
            fault_plan=FaultPlan.parse("crash@1xP"),
            strict=True,
        )
    assert set(multiprocessing.active_children()) <= before
