"""The columnar launch table: its sequence contract and its equivalence
with the list-based builder and near-duplicate derivation it replaced.

The differential cases replay every suite builder's ``add`` calls into
both :class:`~repro.workloads.LaunchBuilder` and the list-based
``ReferenceLaunchBuilder`` of ``tests/_diff.py``, then compare the
materialised launches field by field.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.gpu import KernelLaunch
from repro.gpu.architectures import GENERATIONS
from repro.gpu.kernels import NO_ANNOTATIONS
from repro.workloads import (
    LaunchBuilder,
    LaunchTable,
    cutlass,
    deepbench,
    get_workload,
    mlperf,
    parboil,
    polybench,
    rodinia,
    tiny_spec,
    workload_names,
)
from repro.workloads.spec import _perturb_launches
from tests._diff import ReferenceLaunchBuilder, reference_perturb_launches

SUITE_MODULES = (rodinia, parboil, polybench, cutlass, deepbench, mlperf)


def _table() -> LaunchTable:
    builder = LaunchBuilder()
    a, b = tiny_spec("a"), tiny_spec("b")
    builder.add(a, 4, repeat=3, nvtx={"layer": "x"})
    builder.add(b, 8)
    builder.add(a, 4, nvtx={"layer": "x"})
    return builder.table()


def _bare(table: LaunchTable) -> LaunchTable:
    """The same columns, without any materialised launches."""
    return LaunchTable(
        table.specs, table.annotations, table.row_specs, table.row_grids,
        table.row_annotations, table.row_index, table.launch_ids,
    )


def assert_annotations_unshared(launches) -> None:
    """No launch can change another's annotations.

    Every non-empty annotation dict is its launch's own, and every empty
    one is the shared mapping, which takes no writes.
    """
    annotated = [launch.nvtx for launch in launches if launch.nvtx]
    assert len({id(nvtx) for nvtx in annotated}) == len(annotated)
    assert all(type(nvtx) is dict for nvtx in annotated)
    assert all(launch.nvtx is NO_ANNOTATIONS for launch in launches if not launch.nvtx)
    with pytest.raises(TypeError):
        NO_ANNOTATIONS["layer"] = "x"
    assert NO_ANNOTATIONS == {}


def assert_same_launches(launches, reference, *, same_specs=True) -> None:
    """Field-for-field equality; no launch shares another's annotations.

    ``same_specs`` demands the very spec objects of the reference;
    otherwise specs must be equal and shared by the same launches.
    """
    assert len(launches) == len(reference)
    spec_pairs: dict[int, int] = {}
    for launch, expected in zip(launches, reference, strict=True):
        assert launch.launch_id == expected.launch_id
        assert launch.grid_blocks == expected.grid_blocks
        assert launch.nvtx == expected.nvtx
        if same_specs:
            assert launch.spec is expected.spec
        else:
            assert launch.spec == expected.spec
            assert spec_pairs.setdefault(id(expected.spec), id(launch.spec)) == id(
                launch.spec
            )
    assert_annotations_unshared(launches)
    if not same_specs:
        assert len(set(spec_pairs.values())) == len(spec_pairs)


class TestSequence:
    def test_len_materialises_nothing(self, launch_constructions):
        table = _table()
        assert len(table) == 5
        assert table  # truthiness reads len() too
        assert not launch_constructions

    def test_materialises_once(self, launch_constructions):
        table = _table()
        first = list(table)
        assert sum(launch_constructions.values()) == 5
        assert all(a is b for a, b in zip(first, table, strict=True))
        assert table[1] is first[1]
        assert table[-1] is first[-1]
        assert table[1:3] == first[1:3]
        assert list(reversed(table)) == first[::-1]
        assert sum(launch_constructions.values()) == 5

    def test_launches_fields(self):
        launches = _table().launches()
        assert [launch.launch_id for launch in launches] == [0, 1, 2, 3, 4]
        assert [launch.grid_blocks for launch in launches] == [4, 4, 4, 8, 4]
        assert [launch.spec.name for launch in launches] == ["a", "a", "a", "b", "a"]
        assert launches[0].nvtx == {"layer": "x"} and launches[3].nvtx == {}
        assert_annotations_unshared(launches)

    def test_launches_is_a_fresh_list(self):
        table = _table()
        first = table.launches()
        first.clear()
        assert len(table.launches()) == 5

    def test_read_only(self):
        table = _table()
        with pytest.raises(TypeError):
            table[0] = table[1]
        assert not hasattr(table, "append")

    def test_a_materialised_launch_is_small(self):
        """A launch costs at most 120 B: its slotted object, its id and
        its list slot; an unannotated launch owns no annotation dict."""
        builder = LaunchBuilder()
        for index in range(8):
            builder.add(tiny_spec(f"k{index}"), 4 + index, repeat=25_000)
        table = builder.table()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table[0]  # materialises every launch
            cost = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table) == 200_000
        assert cost / len(table) <= 120, cost / len(table)

    def test_equals_a_list_of_the_same_launches(self):
        table = _table()
        assert table == table.launches()
        assert table == _table()
        assert table != table.launches()[:-1]


class TestFromLaunches:
    def test_keeps_arbitrary_ids(self):
        launches = _table().launches()
        for permuted in (launches[::-1], launches[1:4], launches[::2]):
            table = LaunchTable.from_launches(permuted)
            assert table.launch_ids is not None
            assert list(table.ids()) == [launch.launch_id for launch in permuted]
            # Without the given objects, the rows rebuild the same launches.
            assert_same_launches(_bare(table).launches(), permuted)

    def test_sequential_ids_need_no_column(self):
        table = LaunchTable.from_launches(_table().launches())
        assert table.launch_ids is None

    def test_iterates_the_given_objects(self):
        launches = _table().launches()
        table = LaunchTable.from_launches(iter(launches))
        assert all(a is b for a, b in zip(table, launches, strict=True))

    def test_table_passes_through(self):
        table = _table()
        assert LaunchTable.from_launches(table) is table

    def test_rows_deduplicate(self):
        table = LaunchTable.from_launches(_table().launches())
        assert list(table.rows()) == [(0, 4, 0), (1, 8, 1)]
        assert list(table.row_index) == [0, 0, 0, 1, 0]

    def test_equal_but_differently_typed_annotations_stay_apart(self):
        spec = tiny_spec("a")
        values = [1, 1.0, True, "1", 0.0, -0.0, 1]
        launches = [
            KernelLaunch(spec, 4, index, {"v": value})
            for index, value in enumerate(values)
        ]
        table = LaunchTable.from_launches(launches)
        assert len(table.row_grids) == len(values)
        for launch, value in zip(_bare(table), values, strict=True):
            assert type(launch.nvtx["v"]) is type(value)
            assert repr(launch.nvtx["v"]) == repr(value)


# ---------------------------------------------------------------------------
# Differential: the corpus against the list-based reference.
# ---------------------------------------------------------------------------


class _TwinBuilder:
    """Sends every ``add`` to a table builder and to the reference."""

    built: list[tuple[LaunchTable, list[KernelLaunch]]] = []

    def __init__(self) -> None:
        self.builder = LaunchBuilder()
        self.reference = ReferenceLaunchBuilder()

    def add(self, *args, **kwargs) -> None:
        self.builder.add(*args, **kwargs)
        self.reference.add(*args, **kwargs)

    def table(self) -> LaunchTable:
        table = self.builder.table()
        _TwinBuilder.built.append((table, self.reference.launches()))
        return table


@pytest.fixture
def twin_builders(monkeypatch):
    """Suite builders build twins; yields the (table, reference) pairs."""
    for module in SUITE_MODULES:
        monkeypatch.setattr(module, "LaunchBuilder", _TwinBuilder)
    _TwinBuilder.built = []
    return _TwinBuilder.built


@pytest.mark.parametrize("name", workload_names())
def test_corpus_tables_match_reference_builder(name, twin_builders):
    """Each suite builder's table materialises the reference's launches.

    Covers every per-generation builder and one near duplicate, whose
    list-based derivation runs over the reference launches.
    """
    spec = get_workload(name)
    builders = {id(spec.builder_for(g)): g for g in GENERATIONS}
    for generation in builders.values():
        table = spec.build(generation)
        built, reference = twin_builders.pop()
        assert built is table
        assert_same_launches(table.launches(), reference)
    derived = f"{name}~nd1"
    table = get_workload(derived).build()
    _, reference = twin_builders.pop()
    assert_same_launches(
        table.launches(),
        reference_perturb_launches(reference, derived),
        same_specs=False,
    )
    assert not twin_builders


@pytest.mark.parametrize(
    "base", ["atax", "mlperf_resnet50_128b", "db_conv_train_fp32_0"]
)
@pytest.mark.parametrize("variant", [1, 2, 17])
def test_near_duplicates_match_reference(base, variant):
    """Table-based derivation equals the list-based one, draw for draw."""
    derived = f"{base}~nd{variant}"
    spec = get_workload(base)
    builders = {id(spec.builder_for(g)): g for g in GENERATIONS}
    for generation in builders.values():
        launches = spec.build(generation).launches()
        assert_same_launches(
            _perturb_launches(launches, derived).launches(),
            reference_perturb_launches(launches, derived),
            same_specs=False,
        )


def test_near_duplicate_of_a_list_keeps_its_ids():
    launches = _table().launches()[::-1]
    derived = _perturb_launches(launches, "reversed~nd1")
    assert list(derived.ids()) == [4, 3, 2, 1, 0]
    assert_same_launches(
        derived.launches(),
        reference_perturb_launches(launches, "reversed~nd1"),
        same_specs=False,
    )
