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
from repro.analysis.persistence import (
    CACHE_SCHEMA_VERSION,
    RunKey,
    _jsonable,
    dump_run,
    dump_selection,
    fingerprint,
    launches_digest,
    run_digest,
)
from repro import __version__
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

#: ``EvaluationHarness().cell_digest_for(workload, method, gpu)`` for every
#: cell method on every generation, plus silicon on the half-SM V100.
#: Cells that return None (MLPerf off Volta, a non-completable full sim,
#: a ``sim_kernel_mismatch`` sampled sim) are pinned too: the serving
#: scheduler addresses them by the same digest.
CELL_DIGESTS = {
    "gramschmidt": {
        "silicon@volta": "95ba9d6e9c00388138b3ae94edf76c93b96a0036eec2fa7a6885929d5639757d",
        "pka_sim@volta": "229fecd8bcad1c9e12524b20fd64c4f0495c0f9d654339f9587606a6f7e2ccf3",
        "silicon@turing": "9ad2d522a73a77784e7dd623454d43e57043e9ddcf0680379b9f783a41323495",
        "pka_sim@turing": "7a3a9db74366f1ab4018f0e232156d73089755fdfca03d4b60a7f2b9f93027ac",
        "silicon@ampere": "4e2d28998bb3ce2973cf106c77f4e9ac9f3af9c68443af480cf15be968c427f2",
        "pka_sim@ampere": "d160f38e6cad8f693dafadfc7afe03c71ac1430f6a2207114171e5779c0770b9",
        "selection": "6fee178603ea8c63c784a9126567d5d79a660f80f7f4b260091078a453b7cd89",
        "pks_silicon@volta": "3871af95b5cd246c9cc1f61d5fe0c93396b9d00a4cb783ce3169c948b8af4b4a",
        "pks_silicon@turing": "f84ead98b5828d4e3ac2d15901abd06ea73488d973e063d38b49445abaf996b9",
        "pks_silicon@ampere": "a7844a9afa3d230a46f409994617838479198dc56bbf483538c019679deec0f6",
        "full_sim@volta": "f9b9839a815bd4472f3f272b7ced78aba48c94ae359666733c22f40d686478ab",
        "full_sim@turing": "d745e1c2e01dea068e0c2fe1224e29a2a39051c9de1895029efa9671730c336c",
        "full_sim@ampere": "121954cdb41fad540438cf15bccdd93694cc171dd2708be9c213af81b5a67785",
        "pks_sim@volta": "510bab4af742e74c7086f6f7a1326ab3c0eb0568f9e3615a566a6b76d9289372",
        "pks_sim@turing": "ca6576f471207af6d6d24f51df69870dfc7bf747e2ae5fa05947c92c7b05ca45",
        "pks_sim@ampere": "7f277385060fb0df52ed689cc53e61ea8d05bd40e5311d075cdafc6152bf70a6",
        "first_1b@volta": "1b36dad593114e19fc0d89c2ccd7af81110c2aec06b14a6e788a6c07b5b1e832",
        "first_1b@turing": "4ce7bcb1c500e9616449b7d674fe036ddb5749c5518ec99bd117dc760988bada",
        "first_1b@ampere": "6525e11dd22077ee9ddbb43d85278c1c9975e9398dcf5b40ae51f9aeff3e3efa",
        "tbpoint_sim@volta": "698404a6dd058056dbac7d5ac98b704790f27bfb0e3f084d25146f2b7d993779",
        "tbpoint_sim@turing": "d4b15e00e6cdeec0343e76a5347e9241c68d053b8973c0eaca6352aef675dc8b",
        "tbpoint_sim@ampere": "0c5ba7067860672fa8e3a67e9880de8cc2595d34288e57bcd9ff11330ab58c0f",
        "pka_sim_faithful@volta": "7b0327bdc53c592a33af31a69811f0f1098221d1e909f6fc66149078e40d6bbc",
        "pka_sim_faithful@turing": "7b0327bdc53c592a33af31a69811f0f1098221d1e909f6fc66149078e40d6bbc",
        "pka_sim_faithful@ampere": "7b0327bdc53c592a33af31a69811f0f1098221d1e909f6fc66149078e40d6bbc",
        "silicon@half_sms": "cdd657b2f569c0e26cd337f242db06283f777445569cd933edf5856fee7a7d8d",
    },
    "mlperf_resnet50_64b": {
        "silicon@volta": "46a516dffe1ccc067ad7d0ef45e05a52b38cf70c04f9b6231829a7131e4c1e2a",
        "pka_sim@volta": "659fc5c922073057058e2a94b42467b91a7cb0ae8aa62dc9859ef49d65c73f21",
        "silicon@turing": "8f8c9fd5e840e0bfad9496f76143599a8fd458218d82ce386332171ee2e3067b",
        "pka_sim@turing": "d674b1fe608efe0fc501b388f43781eba08fb1477af2719d976599a979a5a1ff",
        "silicon@ampere": "d55b599cccbc9549f149a99cda0b58d83cc1c747ead4023f42970e2629419f07",
        "pka_sim@ampere": "7ab4691d7450f9e4ac458d2f1d47808933aa4ff43f3dfb4a3999593c2c42efbf",
        "selection": "5881e0eb093e4faad94759b82f7c46bba0a5666d7d61173be9454db14eacd1ff",
        "pks_silicon@volta": "7d7ceb7d5df148b1b82f918bf748e1da910690db2cafe23897b532b5eb3dd3f3",
        "pks_silicon@turing": "14bfc3c5dcca100480ebba77b1961eadf69bc6240c2649128739b40153a4cc18",
        "pks_silicon@ampere": "a81e95e27a8fff964347d8b3fe6823578dfe0202a9bc754cc353846779ae24eb",
        "full_sim@volta": "aaa0175380daa62d6c3030f49e0131d189fc73026e46ab6f2eafec804a56cf7a",
        "full_sim@turing": "00bd924a0a6ed7c901ae9db28400f797175edab6c8a5859f144eb867bfc89dc2",
        "full_sim@ampere": "8e63d2d2462f1628a83f35b1308d914257defb3757589bdd9f07274504fc9642",
        "pks_sim@volta": "1334f2a3d30f14a0674301d95055e0ffbcee4a9c7eac481450f3b2afb09e0966",
        "pks_sim@turing": "aca8df3e241098072c5d2106e527fd38010a148ef93e56ee66483e75f7a83f57",
        "pks_sim@ampere": "ea938ea1ce14dad41bc78e8d1c243c2f0b5cb379acf4d42ffe261e796ed5b555",
        "first_1b@volta": "fabe17ead869471c76295d655961ac7e344cf3ab1439ee7cd79ec44a5acf35da",
        "first_1b@turing": "49605717ad9c081b87fb750c4585eeaf9b08e51218d7d76bdf74e76aed0677c2",
        "first_1b@ampere": "4bd7418c8f6daff0c8bc2d0467a1652e360d6c385725f437ec6903dee261302c",
        "tbpoint_sim@volta": "2a574cdc7fce65eb9141e5a4aaec3eaf90d5516e988a475e7fd27354b8c0eb63",
        "tbpoint_sim@turing": "09eb4030e25a951ca535a45192b9d28cfee93cb1b1ad0be105ebc8a6ef83469b",
        "tbpoint_sim@ampere": "7b490737c072ad0cd95ef8776053ce4189e2de287112727ac66247e703d7d572",
        "pka_sim_faithful@volta": "db4432d70ae4d79f76183c4876d33bb1e9298171cdb1a17ec06ff12417c47cdc",
        "pka_sim_faithful@turing": "db4432d70ae4d79f76183c4876d33bb1e9298171cdb1a17ec06ff12417c47cdc",
        "pka_sim_faithful@ampere": "db4432d70ae4d79f76183c4876d33bb1e9298171cdb1a17ec06ff12417c47cdc",
        "silicon@half_sms": "e7197ee2f2fe915da2c6f9c4b4b3605609903cf267a07ff54abc0c4d429c5265",
    },
    "db_conv_train_fp32_0": {
        "silicon@volta": "9bb2385750198087c476ef13fb1a8987c4374c883ca638b552587336a9c15f56",
        "pka_sim@volta": "0ff26da3786e1ecd1366d4a081246e2a7fb69121e87936b9b6b3e68c8c67850c",
        "silicon@turing": "2b54d6e2097f51912b6d3b6b7fd04a23a8cd8306e7b58f0b9af02b6448574206",
        "pka_sim@turing": "d8a5bbeee46d45024ccc1962ef1b5330295753434de0bbd15e0035ea2c74f5c5",
        "silicon@ampere": "45947c1648b58f431cac47423b416cbfd22dbaaa8f10ee0a15dbe961ce5266b2",
        "pka_sim@ampere": "c4674f7f82b0c5e0d6b2884887b65cee3ba5180218ffe234a342bbceb76a81ca",
        "selection": "01b5bbaefd15094a0c359af36058942679ac9230b0b6ed589fbda9fc24905698",
        "pks_silicon@volta": "edbf68872a028ba75399e9e3a2d08d880e6001a48f933402625de447f841d937",
        "pks_silicon@turing": "492ebbe6e38316d51e5c1794317ccf3b9f23cb9af26d67c3014b11d158be0778",
        "pks_silicon@ampere": "bc5c2708ac6ff8d842daaf79663f0aa9d6c09d856ef481a069c34e074c198239",
        "full_sim@volta": "6a1b9b58a98aab92233bf9aa875556c1520a82fa7b45cbfa9e1763d6e03becd5",
        "full_sim@turing": "894f2924abd98b1e1283a71876b6ff7e785ad194ea37ed502f30e1c108d01da8",
        "full_sim@ampere": "2a53a22ac3a41ca7e1ef063314ad0900855ad0335f0d0e508abc68c8701dadb9",
        "pks_sim@volta": "ad8947e65264c8cd34bbf56691bfb9d8737fcadd268cd002f1fee73944d181b2",
        "pks_sim@turing": "69fbff1037fda02323a83a286eb63fe4f2e5f370f0501a7bdb3cbbdfbf301af0",
        "pks_sim@ampere": "4d0a5fc8e7fb22cda5689a5bd671728980c534dd73b4ccb93b5e4df490a34981",
        "first_1b@volta": "17ba8e63823542caaf93d5180a1de5b4c48cf446478dbb927313846ff016a050",
        "first_1b@turing": "139a380c4278b46fd7b0443e1d5af5915dbdfb9b86e0c09fca4adc9d093da480",
        "first_1b@ampere": "0773870f316073ed4566e67561acc201b2d7885465a5772b76d9eee1268904e0",
        "tbpoint_sim@volta": "3a9852fc2445c4b6b517c16b71e2e4afa115582d420fff8185b6f08c32b6116a",
        "tbpoint_sim@turing": "cf9b669b6526177eebc6ff300de4d6de96b313145b65352b770ae236074a4185",
        "tbpoint_sim@ampere": "06624e7bc5f36496764388e697e434f8fd5c6f39e432b847231769d517dfadce",
        "pka_sim_faithful@volta": "0e1bf20b57ad551243d039361b72cf03ec161489574e809e275e9284c82272a2",
        "pka_sim_faithful@turing": "0e1bf20b57ad551243d039361b72cf03ec161489574e809e275e9284c82272a2",
        "pka_sim_faithful@ampere": "0e1bf20b57ad551243d039361b72cf03ec161489574e809e275e9284c82272a2",
        "silicon@half_sms": "f281871119f489146658e499c17e24d5f21cff539a439591b6ad67d2870554af",
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


#: Pinned GPUs ``get_gpu`` cannot name.
_PINNED_GPUS = {"half_sms": volta_v100_half_sms()}


@pytest.mark.parametrize("name", sorted(CELL_DIGESTS))
def test_cell_digests_pinned(fresh_harness, name):
    for cell, pinned in CELL_DIGESTS[name].items():
        method, _, gpu = cell.partition("@")
        gpu = _PINNED_GPUS.get(gpu, gpu or None)
        digest = fresh_harness.cell_digest_for(name, method, gpu)
        assert digest == pinned, cell


#: Every cell method, on the GPUs it distinguishes.
_WRITTEN_CELLS = [
    ("silicon", "volta"),
    ("silicon", volta_v100_half_sms()),
    ("pks_silicon", "turing"),
    ("selection", None),
    ("full_sim", "volta"),
    ("pks_sim", "ampere"),
    ("pka_sim", "volta"),
    ("pka_sim_faithful", None),
    ("first_1b", "turing"),
    ("tbpoint_sim", "volta"),
]


@pytest.mark.parametrize(
    ("method", "gpu"), _WRITTEN_CELLS,
    ids=[f"{m}@{getattr(g, 'name', g)}" for m, g in _WRITTEN_CELLS],
)
def test_computed_cell_is_written_under_its_external_digest(tmp_path, method, gpu):
    """The digest a computed cell is stored under is ``cell_digest_for``'s."""
    harness = EvaluationHarness(cache_dir=tmp_path)
    written: list[str] = []
    for put in ("put_run", "put_selection"):
        original = getattr(harness.run_cache, put)

        def spy(digest, value, original=original):
            written.append(digest)
            return original(digest, value)

        setattr(harness.run_cache, put, spy)
    result = harness.evaluation("atax").compute_cell(method, gpu)
    assert result is not None
    digest = harness.cell_digest_for("atax", method, gpu)
    assert digest in written
    cache = EvaluationHarness(cache_dir=tmp_path).run_cache
    if method == "selection":
        assert dump_selection(cache.get_selection(digest)) == dump_selection(result)
    else:
        assert dump_run(cache.get_run(digest)) == dump_run(result)


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
    # The rendering run_digest splices is the canonical one, compact.
    assert json.loads(gpu.field_json) == json.loads(expected)
    assert gpu.field_json == json.dumps(
        json.loads(expected), sort_keys=True, separators=(",", ":")
    )


@given(
    gpu=st.sampled_from([None, *ALL_GPUS, volta_v100_half_sms()]),
    method=st.text(max_size=12),
    workload=st.text(max_size=12),
    launch_digests=st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=3),
    context=st.text(max_size=12),
)
@settings(max_examples=80, deadline=None)
def test_run_digest_is_the_fingerprint_of_its_payload(
    gpu, method, workload, launch_digests, context
):
    """The spliced GPU rendering gives the bytes of the whole payload's
    canonical rendering, quotes, escapes and non-ASCII text included."""
    key = RunKey(method, None if gpu is None else gpu.name)
    reference = fingerprint(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "version": __version__,
            "key": {"method": key.method, "gpu": key.gpu},
            "workload": workload,
            "launches": launch_digests,
            "gpu": gpu,
            "context": context,
        }
    )
    assert reference == run_digest(
        key,
        workload=workload,
        launch_digests=launch_digests,
        gpu=gpu,
        context=context,
    )
