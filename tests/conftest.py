"""Shared fixtures for the test suite.

Fixtures build small, fast kernels and workloads; the module-scoped
``harness`` fixture is shared across analysis tests so corpus runs are
computed once.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import pytest

from repro import obs
from repro.analysis.harness import EvaluationHarness
from repro.gpu import (
    InstructionMix,
    KernelLaunch,
    KernelSpec,
    VOLTA_V100,
)
from repro.sim import SiliconExecutor, Simulator
from repro.sim.simulator import ModelErrorConfig


@pytest.fixture(autouse=True)
def _isolated_tracer():
    """Start every test with a fresh, disabled tracer.

    The tracer is a process-global singleton and several production
    entry points switch it on (``PKAService.__init__``, ``--trace``).
    A test that exercises one of those paths must not leak an enabled
    tracer into later tests: sweep manifests embed the counter snapshot
    whenever tracing is on, which breaks byte-identity assertions.
    """
    obs.reset()
    yield
    obs.reset()


@pytest.fixture
def launch_constructions(monkeypatch) -> Counter:
    """Counts every :class:`KernelLaunch` constructed during the test.

    Keyed by the name of the function that called the constructor, so a
    test can tell a per-launch build from, say, a cached selection's
    representatives being deserialized.
    """
    made: Counter = Counter()
    original = KernelLaunch.__post_init__

    def counting(self) -> None:
        # Frame 0 is this hook, 1 the dataclass __init__, 2 its caller.
        made[sys._getframe(2).f_code.co_name] += 1
        original(self)

    monkeypatch.setattr(KernelLaunch, "__post_init__", counting)
    return made


@pytest.fixture
def builder_calls(monkeypatch) -> Counter:
    """Counts every :meth:`WorkloadSpec.build` call, by workload name."""
    from repro.workloads import WorkloadSpec

    made: Counter = Counter()
    original = WorkloadSpec.build

    def counting(self, generation=None):
        made[self.name] += 1
        return original(self, generation)

    monkeypatch.setattr(WorkloadSpec, "build", counting)
    return made


@pytest.fixture
def compute_mix() -> InstructionMix:
    """A compute-heavy per-thread instruction mix."""
    return InstructionMix(
        fp_ops=1_200.0,
        int_ops=300.0,
        global_loads=20.0,
        global_stores=8.0,
        shared_loads=200.0,
        shared_stores=100.0,
        control_ops=60.0,
    )


@pytest.fixture
def memory_mix() -> InstructionMix:
    """A bandwidth-heavy per-thread instruction mix."""
    return InstructionMix(
        fp_ops=20.0,
        int_ops=10.0,
        global_loads=40.0,
        global_stores=20.0,
        control_ops=5.0,
    )


@pytest.fixture
def compute_spec(compute_mix) -> KernelSpec:
    return KernelSpec(
        name="test_compute_kernel",
        threads_per_block=256,
        mix=compute_mix,
        l2_locality=0.85,
        working_set_bytes=8e6,
        duration_cv=0.05,
    )


@pytest.fixture
def memory_spec(memory_mix) -> KernelSpec:
    return KernelSpec(
        name="test_memory_kernel",
        threads_per_block=256,
        mix=memory_mix,
        l2_locality=0.2,
        working_set_bytes=256e6,
        duration_cv=0.05,
    )


@pytest.fixture
def irregular_spec(memory_mix) -> KernelSpec:
    return KernelSpec(
        name="test_irregular_kernel",
        threads_per_block=256,
        mix=memory_mix,
        divergence_efficiency=0.4,
        sectors_per_global_access=16.0,
        l2_locality=0.2,
        working_set_bytes=128e6,
        duration_cv=0.6,
    )


@pytest.fixture
def compute_launch(compute_spec) -> KernelLaunch:
    return KernelLaunch(spec=compute_spec, grid_blocks=2_000, launch_id=0)


@pytest.fixture
def memory_launch(memory_spec) -> KernelLaunch:
    return KernelLaunch(spec=memory_spec, grid_blocks=2_000, launch_id=1)


@pytest.fixture
def volta_silicon() -> SiliconExecutor:
    return SiliconExecutor(VOLTA_V100)


@pytest.fixture
def volta_simulator() -> Simulator:
    return Simulator(VOLTA_V100)


@pytest.fixture
def faithful_simulator() -> Simulator:
    """A simulator with modeling error disabled (silicon-faithful)."""
    return Simulator(VOLTA_V100, model_error=ModelErrorConfig(enabled=False))


@pytest.fixture(scope="session")
def harness() -> EvaluationHarness:
    """A shared harness so expensive corpus runs are computed once.

    ``PKA_JOBS`` ("serial", "auto" or a worker count),
    ``PKA_INTRA_JOBS`` (same grammar; intra-run sharding) and
    ``PKA_CACHE_DIR`` select the execution backends and on-disk run
    cache, so CI can run the same suite on every backend combination
    and assert they agree.
    """
    return EvaluationHarness(
        backend=os.environ.get("PKA_JOBS"),
        intra_jobs=os.environ.get("PKA_INTRA_JOBS"),
        cache_dir=os.environ.get("PKA_CACHE_DIR"),
    )
