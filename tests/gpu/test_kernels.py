"""Tests for repro.gpu.kernels."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.gpu import InstructionMix, KernelLaunch, KernelSpec
from repro.gpu.kernels import NO_ANNOTATIONS, group_by_kernel
from repro.sim.parallel import ProcessPoolBackend
from repro.workloads import tiny_spec


class TestInstructionMix:
    def test_per_thread_total(self, compute_mix):
        assert compute_mix.per_thread_total == pytest.approx(1_888.0)

    def test_memory_fraction(self, memory_mix):
        expected = (40 + 20) / memory_mix.per_thread_total
        assert memory_mix.memory_fraction == pytest.approx(expected)

    def test_rejects_negative_counts(self):
        with pytest.raises(WorkloadError):
            InstructionMix(fp_ops=-1.0, int_ops=2.0)

    def test_rejects_empty_mix(self):
        with pytest.raises(WorkloadError):
            InstructionMix()

    def test_scaled(self, compute_mix):
        doubled = compute_mix.scaled(2.0)
        assert doubled.per_thread_total == pytest.approx(
            2.0 * compute_mix.per_thread_total
        )
        assert doubled.memory_fraction == pytest.approx(compute_mix.memory_fraction)

    def test_scaled_rejects_nonpositive(self, compute_mix):
        with pytest.raises(WorkloadError):
            compute_mix.scaled(0.0)


class TestKernelSpec:
    def test_validation(self, compute_mix):
        with pytest.raises(WorkloadError):
            KernelSpec(name="bad", threads_per_block=0, mix=compute_mix)
        with pytest.raises(WorkloadError):
            KernelSpec(name="bad", threads_per_block=2048, mix=compute_mix)
        with pytest.raises(WorkloadError):
            KernelSpec(
                name="bad",
                threads_per_block=128,
                mix=compute_mix,
                divergence_efficiency=0.0,
            )
        with pytest.raises(WorkloadError):
            KernelSpec(
                name="bad",
                threads_per_block=128,
                mix=compute_mix,
                sectors_per_global_access=64.0,
            )
        with pytest.raises(WorkloadError):
            KernelSpec(
                name="bad", threads_per_block=128, mix=compute_mix, l2_locality=1.5
            )

    def test_signature_stable_across_instances(self, compute_mix):
        spec_a = KernelSpec(name="k", threads_per_block=256, mix=compute_mix)
        spec_b = KernelSpec(name="k", threads_per_block=256, mix=compute_mix)
        assert spec_a.signature() == spec_b.signature()

    def test_signature_differs_by_any_field(self, compute_spec):
        for field, value in [
            ("name", "other"),
            ("threads_per_block", 128),
            ("l2_locality", 0.3),
            ("duration_cv", 0.5),
            ("uses_tensor_cores", True),
            ("cold_start_factor", 0.0),
        ]:
            variant = dataclasses.replace(compute_spec, **{field: value})
            assert variant.signature() != compute_spec.signature(), field

    def test_signature_fits_63_bits(self, compute_spec):
        assert 0 <= compute_spec.signature() < 2**63

    def test_with_mix(self, compute_spec, memory_mix):
        swapped = compute_spec.with_mix(memory_mix)
        assert swapped.mix is memory_mix
        assert swapped.name == compute_spec.name


class TestKernelLaunch:
    def test_totals(self, compute_spec):
        launch = KernelLaunch(spec=compute_spec, grid_blocks=100, launch_id=0)
        assert launch.total_threads == 100 * 256
        assert launch.total_warps == pytest.approx(100 * 8)
        assert launch.thread_instructions == pytest.approx(
            100 * 256 * compute_spec.mix.per_thread_total
        )

    def test_divergence_inflates_warp_instructions(self, compute_mix):
        divergent = KernelSpec(
            name="d",
            threads_per_block=256,
            mix=compute_mix,
            divergence_efficiency=0.5,
        )
        straight = KernelSpec(name="s", threads_per_block=256, mix=compute_mix)
        launch_d = KernelLaunch(spec=divergent, grid_blocks=10, launch_id=0)
        launch_s = KernelLaunch(spec=straight, grid_blocks=10, launch_id=0)
        assert launch_d.warp_instructions == pytest.approx(
            2.0 * launch_s.warp_instructions
        )

    def test_validation(self, compute_spec):
        with pytest.raises(WorkloadError):
            KernelLaunch(spec=compute_spec, grid_blocks=0, launch_id=0)
        with pytest.raises(WorkloadError):
            KernelLaunch(spec=compute_spec, grid_blocks=1, launch_id=-1)

    def test_nvtx_defaults_empty(self, compute_spec):
        launch = KernelLaunch(spec=compute_spec, grid_blocks=1, launch_id=0)
        assert launch.nvtx == {}

    def test_slotted(self, compute_spec):
        launch = KernelLaunch(spec=compute_spec, grid_blocks=1, launch_id=0)
        assert not hasattr(launch, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            launch.grid_blocks = 2
        # Python 3.11's frozen slotted __setattr__ raises TypeError here.
        with pytest.raises((AttributeError, TypeError)):
            launch.extra = 1


def _unpickled_in_worker(launch: KernelLaunch) -> tuple[KernelLaunch, bool]:
    """Pool task: the launch as a worker sees it, and whether its empty
    annotations unpickled onto the worker's own shared mapping."""
    return launch, launch.nvtx is NO_ANNOTATIONS


class TestAnnotations:
    """Unannotated launches share one read-only empty mapping."""

    def test_every_unannotated_launch_shares_it(self, compute_spec):
        launches = [
            KernelLaunch(spec=compute_spec, grid_blocks=1, launch_id=0),
            KernelLaunch(compute_spec, 1, 1, {}),
            KernelLaunch(compute_spec, 1, 2, dict()),
        ]
        assert all(launch.nvtx is NO_ANNOTATIONS for launch in launches)

    @pytest.mark.parametrize(
        "write",
        [
            lambda mapping: mapping.__setitem__("layer", "x"),
            lambda mapping: mapping.__delitem__("layer"),
            lambda mapping: mapping.__ior__({"layer": "x"}),
            lambda mapping: mapping.update(layer="x"),
            lambda mapping: mapping.setdefault("layer", "x"),
            lambda mapping: mapping.pop("layer", None),
            lambda mapping: mapping.popitem(),
            lambda mapping: mapping.clear(),
        ],
    )
    def test_takes_no_writes(self, write):
        with pytest.raises(TypeError):
            write(NO_ANNOTATIONS)
        assert NO_ANNOTATIONS == {}

    def test_reads_like_an_empty_dict(self):
        assert isinstance(NO_ANNOTATIONS, dict)
        assert NO_ANNOTATIONS == {} and not NO_ANNOTATIONS
        assert NO_ANNOTATIONS.get("layer", "") == ""
        assert list(NO_ANNOTATIONS.items()) == []
        assert json.dumps(NO_ANNOTATIONS) == "{}"
        # A copy is a plain dict of its own, free to write.
        plain = NO_ANNOTATIONS.copy()
        plain["layer"] = "x"
        assert type(plain) is dict and NO_ANNOTATIONS == {}

    @pytest.mark.parametrize("nvtx", [None, {"layer": "conv1"}])
    def test_pickle_and_deepcopy_round_trips(self, compute_spec, nvtx):
        launch = KernelLaunch(compute_spec, 3, 7, *([nvtx] if nvtx else []))
        copies = [copy.deepcopy(launch)] + [
            pickle.loads(pickle.dumps(launch, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for duplicate in copies:
            assert duplicate == launch
            if nvtx:
                assert type(duplicate.nvtx) is dict
                assert duplicate.nvtx is not launch.nvtx
            else:
                assert duplicate.nvtx is NO_ANNOTATIONS

    def test_process_pool_round_trip(self, compute_spec):
        launches = [
            KernelLaunch(compute_spec, 3, 0),
            KernelLaunch(compute_spec, 3, 1, {"layer": "conv1"}),
        ]
        results = ProcessPoolBackend(2).map_tasks(_unpickled_in_worker, launches)
        assert [shared for _, shared in results] == [True, False]
        returned = [launch for launch, _ in results]
        assert returned == launches
        assert returned[0].nvtx is NO_ANNOTATIONS
        assert returned[1].nvtx == {"layer": "conv1"}
        assert type(returned[1].nvtx) is dict


def _per_launch_groups(launches):
    """The grouping ``group_by_kernel`` replaces: a signature per launch."""
    counts, firsts = {}, {}
    for launch in launches:
        key = (launch.spec.signature(), launch.grid_blocks)
        if key in counts:
            counts[key] += 1
        else:
            counts[key] = 1
            firsts[key] = launch
    return counts, firsts


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=60))
@settings(max_examples=60, deadline=None)
def test_group_by_kernel_matches_a_per_launch_walk(picks):
    """Equal spec objects share a signature and merge into one group,
    with the counts, first launches and order of a per-launch walk."""
    a, b = tiny_spec("a"), tiny_spec("b")
    specs = [a, dataclasses.replace(a), b, dataclasses.replace(b)]
    launches = [
        KernelLaunch(specs[spec], grid, launch_id)
        for launch_id, (spec, grid) in enumerate(picks)
    ]
    counts, firsts = group_by_kernel(launches)
    expected_counts, expected_firsts = _per_launch_groups(launches)
    assert list(counts.items()) == list(expected_counts.items())
    assert list(firsts) == list(expected_firsts)
    assert all(firsts[key] is expected_firsts[key] for key in firsts)


@given(
    tpb=st.integers(1, 1024),
    grid=st.integers(1, 10_000),
    efficiency=st.floats(0.05, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_warp_instruction_identity(tpb, grid, efficiency):
    """thread_insts == warp_insts * 32 * efficiency, always."""
    mix = InstructionMix(fp_ops=100.0, global_loads=10.0)
    spec = KernelSpec(
        name="prop",
        threads_per_block=tpb,
        mix=mix,
        divergence_efficiency=efficiency,
    )
    launch = KernelLaunch(spec=spec, grid_blocks=grid, launch_id=0)
    assert launch.thread_instructions == pytest.approx(
        launch.warp_instructions * 32.0 * efficiency, rel=1e-9
    )
