"""Cache keys stay byte-identical across refactors of how they are derived.

Every on-disk run-cache entry is addressed by a digest of the cell's
launch lists, its GPU config and the harness context.  The values pinned
here were derived before launch lists were shared across GPU generations
and before the digests were computed in one pass; a cache written then
must keep hitting.  A deliberate cache invalidation (a schema or version
bump) updates these pins in the same change.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import EvaluationHarness
from repro.analysis.persistence import _jsonable, launches_digest
from repro.gpu import ALL_GPUS, InstructionMix, KernelLaunch, KernelSpec
from repro.gpu import volta_v100_half_sms
from repro.workloads import LaunchBuilder, LaunchTable, get_workload, workload_names
from tests._diff import ReferenceLaunchBuilder, reference_launches_digest

GENERATIONS = ("volta", "turing", "ampere")

#: ``launches_digest`` per generation.  gramschmidt has no variant, the
#: MLPerf workload carries NVTX annotations on every launch, and the
#: DeepBench conv-training workload builds a different Turing list.
LAUNCH_DIGESTS = {
    "gramschmidt": {
        "volta": "88a6ec7f44a1c41bc98f96d7ba271b5c8982a82b019b2c163e1e5da684e611b7",
        "turing": "88a6ec7f44a1c41bc98f96d7ba271b5c8982a82b019b2c163e1e5da684e611b7",
        "ampere": "88a6ec7f44a1c41bc98f96d7ba271b5c8982a82b019b2c163e1e5da684e611b7",
    },
    "mlperf_resnet50_64b": {
        "volta": "76387293c673d79cd05389139a4b31588102732fda55fc83a71a11650248b9db",
        "turing": "76387293c673d79cd05389139a4b31588102732fda55fc83a71a11650248b9db",
        "ampere": "76387293c673d79cd05389139a4b31588102732fda55fc83a71a11650248b9db",
    },
    "db_conv_train_fp32_0": {
        "volta": "d678ffdc4a5cb1b2344cd6555944eab0af80e302ebd21e6f4356dcbb4104e82f",
        "turing": "ae103749f8d9a27949cc54893874e18a8659b4347c8c1f7585aba60df03c8d87",
        "ampere": "d678ffdc4a5cb1b2344cd6555944eab0af80e302ebd21e6f4356dcbb4104e82f",
    },
}

#: ``EvaluationHarness().cell_digest_for(workload, method, generation)``.
CELL_DIGESTS = {
    "gramschmidt": {
        "silicon@volta": "95ba9d6e9c00388138b3ae94edf76c93b96a0036eec2fa7a6885929d5639757d",
        "pka_sim@volta": "229fecd8bcad1c9e12524b20fd64c4f0495c0f9d654339f9587606a6f7e2ccf3",
        "silicon@turing": "9ad2d522a73a77784e7dd623454d43e57043e9ddcf0680379b9f783a41323495",
        "pka_sim@turing": "7a3a9db74366f1ab4018f0e232156d73089755fdfca03d4b60a7f2b9f93027ac",
        "silicon@ampere": "4e2d28998bb3ce2973cf106c77f4e9ac9f3af9c68443af480cf15be968c427f2",
        "pka_sim@ampere": "d160f38e6cad8f693dafadfc7afe03c71ac1430f6a2207114171e5779c0770b9",
        "selection": "6fee178603ea8c63c784a9126567d5d79a660f80f7f4b260091078a453b7cd89",
    },
    "mlperf_resnet50_64b": {
        "silicon@volta": "46a516dffe1ccc067ad7d0ef45e05a52b38cf70c04f9b6231829a7131e4c1e2a",
        "pka_sim@volta": "659fc5c922073057058e2a94b42467b91a7cb0ae8aa62dc9859ef49d65c73f21",
        "silicon@turing": "8f8c9fd5e840e0bfad9496f76143599a8fd458218d82ce386332171ee2e3067b",
        "pka_sim@turing": "d674b1fe608efe0fc501b388f43781eba08fb1477af2719d976599a979a5a1ff",
        "silicon@ampere": "d55b599cccbc9549f149a99cda0b58d83cc1c747ead4023f42970e2629419f07",
        "pka_sim@ampere": "7ab4691d7450f9e4ac458d2f1d47808933aa4ff43f3dfb4a3999593c2c42efbf",
        "selection": "5881e0eb093e4faad94759b82f7c46bba0a5666d7d61173be9454db14eacd1ff",
    },
    "db_conv_train_fp32_0": {
        "silicon@volta": "9bb2385750198087c476ef13fb1a8987c4374c883ca638b552587336a9c15f56",
        "pka_sim@volta": "0ff26da3786e1ecd1366d4a081246e2a7fb69121e87936b9b6b3e68c8c67850c",
        "silicon@turing": "2b54d6e2097f51912b6d3b6b7fd04a23a8cd8306e7b58f0b9af02b6448574206",
        "pka_sim@turing": "d8a5bbeee46d45024ccc1962ef1b5330295753434de0bbd15e0035ea2c74f5c5",
        "silicon@ampere": "45947c1648b58f431cac47423b416cbfd22dbaaa8f10ee0a15dbe961ce5266b2",
        "pka_sim@ampere": "c4674f7f82b0c5e0d6b2884887b65cee3ba5180218ffe234a342bbceb76a81ca",
        "selection": "01b5bbaefd15094a0c359af36058942679ac9230b0b6ed589fbda9fc24905698",
    },
}


@pytest.fixture(scope="module")
def fresh_harness():
    return EvaluationHarness()


@pytest.mark.parametrize("name", sorted(LAUNCH_DIGESTS))
def test_launch_digests_pinned(fresh_harness, name):
    spec = get_workload(name)
    evaluation = fresh_harness.evaluation(name)
    for generation, pinned in LAUNCH_DIGESTS[name].items():
        assert launches_digest(spec.build(generation)) == pinned, generation
        assert evaluation.launch_digest(generation) == pinned, generation


@pytest.mark.parametrize("name", sorted(CELL_DIGESTS))
def test_cell_digests_pinned(fresh_harness, name):
    for cell, pinned in CELL_DIGESTS[name].items():
        method, _, generation = cell.partition("@")
        digest = fresh_harness.cell_digest_for(name, method, generation or None)
        assert digest == pinned, cell


#: NVTX values that compare equal across types but render differently,
#: so a reused rendering keyed by equality alone would show up here.
_TRICKY_VALUES = st.sampled_from([1, 1.0, True, 0.0, -0.0, "1", "1.0"])
#: By ``repr``: an equal value of another type (or sign) per tricky value.
_TWINS = {"1": 1.0, "1.0": True, "True": 1, "0.0": -0.0, "-0.0": 0.0}


@st.composite
def launch_lists(draw):
    """Launch lists over a few specs with arbitrary ids, grids and NVTX.

    Launches draw their annotations from a small pool (copied per
    launch, as the workload builders do), so equal sets repeat.  Each
    pooled set has a twin that compares equal but holds differently
    typed (or signed) values wherever :data:`_TWINS` has one.
    """
    specs = [
        KernelSpec(
            name=draw(st.text(min_size=1, max_size=12)),
            threads_per_block=draw(st.sampled_from([32, 128, 256])),
            mix=InstructionMix(fp_ops=draw(st.floats(1.0, 1e3))),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    annotations = st.dictionaries(
        st.text(max_size=8),
        st.one_of(st.text(max_size=8), _TRICKY_VALUES),
        max_size=4,
    )
    pool = draw(st.lists(annotations, min_size=1, max_size=4))
    pool += [
        {key: _TWINS.get(repr(value), value) for key, value in nvtx.items()}
        for nvtx in pool
    ]
    return [
        KernelLaunch(
            spec=draw(st.sampled_from(specs)),
            grid_blocks=draw(st.integers(1, 10**7)),
            launch_id=draw(st.integers(0, 10**9)),
            nvtx=dict(draw(st.sampled_from(pool))),
        )
        for _ in range(draw(st.integers(0, 12)))
    ]


@settings(max_examples=200, deadline=None)
@given(launch_lists())
def test_launches_digest_matches_per_row_reference(launches):
    expected = reference_launches_digest(launches)
    assert launches_digest(launches) == expected
    table = LaunchTable.from_launches(launches)
    assert launches_digest(table) == expected
    # A table without its given launch objects digests the same rows.
    bare = LaunchTable(
        table.specs, table.annotations, table.row_specs, table.row_grids,
        table.row_annotations, table.row_index, table.launch_ids,
    )
    assert launches_digest(bare) == expected


@settings(max_examples=200, deadline=None)
@given(launch_lists())
def test_builder_replay_digest_matches_reference_builder(launches):
    """The same ``add`` calls give the reference builder's digest.

    Each drawn launch is replayed with ``repeat = launch_id % 3``, so
    runs of repeats and empty adds are covered too.
    """
    builder, reference = LaunchBuilder(), ReferenceLaunchBuilder()
    for launch in launches:
        for target in (builder, reference):
            target.add(
                launch.spec, launch.grid_blocks,
                repeat=launch.launch_id % 3, nvtx=launch.nvtx,
            )
    expected = reference_launches_digest(reference.launches())
    assert launches_digest(builder.table()) == expected
    assert launches_digest(builder.launches()) == expected


@pytest.mark.parametrize("name", workload_names())
def test_corpus_table_digests_match_reference(name):
    """Every launch table of the corpus digests like its launch list.

    Covers each distinct per-generation builder and one near duplicate.
    The row-rendered digest runs before the table is materialised.
    """
    base = get_workload(name)
    tables = {
        id(base.builder_for(generation)): base.build(generation)
        for generation in GENERATIONS
    }
    tables["nd"] = get_workload(f"{name}~nd1").build()
    for label, table in tables.items():
        digest = launches_digest(table)
        assert digest == reference_launches_digest(table.launches()), label


@pytest.mark.parametrize(
    "gpu", [*ALL_GPUS, volta_v100_half_sms()], ids=lambda gpu: gpu.name
)
def test_gpu_rendering_memo_is_canonical_and_fresh(gpu):
    expected = json.dumps(_jsonable(dataclasses.asdict(gpu)), sort_keys=True)
    first = _jsonable(gpu)
    assert json.dumps(first, sort_keys=True) == expected
    first["num_sms"] = -1  # a caller's edit must not reach the memo
    assert json.dumps(_jsonable(gpu), sort_keys=True) == expected
