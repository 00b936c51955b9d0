"""A columnar launch list: distinct rows plus a per-launch row index.

A scaled workload is a few kernel shapes repeated many times, so a launch
list is stored as columns:

* ``specs`` — the distinct :class:`~repro.gpu.kernels.KernelSpec`
  objects, by identity, in order of first occurrence;
* ``annotations`` — the distinct NVTX annotation sets, each a tuple of
  ``(key, value)`` pairs in the annotating dict's order;
* ``row_specs`` / ``row_grids`` / ``row_annotations`` — one entry per
  distinct ``(spec, grid, nvtx)`` triple, in order of first occurrence:
  the spec's column, the grid and the annotation set's column;
* ``row_index`` — one int32 row number per launch, in launch order;
* ``launch_ids`` — the launch ids, kept only when they are not
  ``0..n-1``.

:class:`LaunchTable` is a read-only ``Sequence[KernelLaunch]``: ``len()``
reads the row index, while iteration, indexing and slicing materialise
the :class:`KernelLaunch` list once and reuse it.  An annotated launch
gets a fresh dict of its own; an unannotated one the shared read-only
:data:`~repro.gpu.kernels.NO_ANNOTATIONS`.  Per-row work (cache-key
digests) runs over the rows and never builds a launch.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence

from repro.gpu.kernels import NO_ANNOTATIONS, KernelLaunch, KernelSpec

__all__ = ["LaunchTable"]


class _RowInterner:
    """Assigns row numbers to ``(spec, grid, nvtx items)`` as they arrive.

    Specs are interned by identity.  Annotation sets are interned only
    when every key and value is exactly a ``str``: ``{"v": 1}``,
    ``{"v": 1.0}`` and ``{"v": True}`` compare equal but render
    differently, so any other set gets a column (and so a row) of its
    own.  A lookup with such a set can never hit, because the interned
    keys are all-string and no non-string builtin equals a string.
    """

    def __init__(self) -> None:
        self.specs: list[KernelSpec] = []
        self.annotations: list[tuple] = []
        self.row_specs = array("i")
        self.row_grids = array("q")
        self.row_annotations = array("i")
        self._spec_columns: dict[int, int] = {}
        self._annotation_columns: dict[tuple, int] = {}
        self._row_numbers: dict[tuple[int, int, int], int] = {}

    def row(self, spec: KernelSpec, grid: int, items: tuple) -> int:
        """The row number of a launch; ``items`` is ``tuple(nvtx.items())``."""
        try:
            annotation = self._annotation_columns.get(items)
        except TypeError:  # an unhashable annotation value
            annotation = None
        if annotation is None:
            annotation = len(self.annotations)
            self.annotations.append(items)
            if all(type(key) is str and type(value) is str for key, value in items):
                self._annotation_columns[items] = annotation
        key = (id(spec), grid, annotation)
        row = self._row_numbers.get(key)
        if row is None:
            spec_column = self._spec_columns.get(id(spec))
            if spec_column is None:
                spec_column = self._spec_columns[id(spec)] = len(self.specs)
                self.specs.append(spec)
            row = self._row_numbers[key] = len(self.row_grids)
            self.row_specs.append(spec_column)
            self.row_grids.append(grid)
            self.row_annotations.append(annotation)
        return row

    def table(self, row_index: array, launch_ids: array | None = None) -> LaunchTable:
        """A table over copies of the columns interned so far."""
        return LaunchTable(
            list(self.specs),
            list(self.annotations),
            array("i", self.row_specs),
            array("q", self.row_grids),
            array("i", self.row_annotations),
            row_index,
            launch_ids,
        )


class LaunchTable(Sequence[KernelLaunch]):
    """A read-only launch list stored as distinct rows plus a row index.

    Build one with :class:`~repro.workloads.LaunchBuilder` or
    :meth:`from_launches`.  The columns are shared, not copied: callers
    must not mutate them.
    """

    def __init__(
        self,
        specs: list[KernelSpec],
        annotations: list[tuple],
        row_specs: array,
        row_grids: array,
        row_annotations: array,
        row_index: array,
        launch_ids: array | None = None,
    ) -> None:
        if not len(row_specs) == len(row_grids) == len(row_annotations):
            raise ValueError("row columns must have one entry per row")
        if launch_ids is not None and len(launch_ids) != len(row_index):
            raise ValueError("launch_ids must have one id per launch")
        self.specs = specs
        self.annotations = annotations
        self.row_specs = row_specs
        self.row_grids = row_grids
        self.row_annotations = row_annotations
        self.row_index = row_index
        self.launch_ids = launch_ids
        self._launches: list[KernelLaunch] | None = None

    @classmethod
    def from_launches(cls, launches: Iterable[KernelLaunch]) -> LaunchTable:
        """The table of a launch sequence (a table is returned as is).

        Launch ids are kept as given.  The given launch objects become
        the table's materialised list, so iterating it yields them.
        """
        if isinstance(launches, LaunchTable):
            return launches
        launches = list(launches)
        interner = _RowInterner()
        row_index = array(
            "i",
            [
                interner.row(
                    launch.spec, launch.grid_blocks, tuple(launch.nvtx.items())
                )
                for launch in launches
            ],
        )
        ids = array("q", [launch.launch_id for launch in launches])
        if ids == array("q", range(len(ids))):
            ids = None
        table = interner.table(row_index, ids)
        table._launches = launches
        return table

    def rows(self) -> Iterator[tuple[int, int, int]]:
        """``(spec column, grid, annotation column)`` per distinct row."""
        return zip(self.row_specs, self.row_grids, self.row_annotations)

    def shapes(self) -> list[tuple[KernelSpec, int, tuple]]:
        """``(spec, grid, annotation items)`` per distinct row."""
        specs, annotations = self.specs, self.annotations
        return [
            (specs[spec], grid, annotations[annotation])
            for spec, grid, annotation in self.rows()
        ]

    def ids(self) -> Iterable[int]:
        """Launch ids in launch order."""
        if self.launch_ids is None:
            return range(len(self.row_index))
        return self.launch_ids

    def launches(self) -> list[KernelLaunch]:
        """A fresh list of the table's launches."""
        return list(self._materialise())

    def _materialise(self) -> list[KernelLaunch]:
        launches = self._launches
        if launches is None:
            shapes = self.shapes()
            launches = self._launches = [
                KernelLaunch(
                    spec, grid, launch_id, dict(items) if items else NO_ANNOTATIONS
                )
                for launch_id, (spec, grid, items) in zip(
                    self.ids(), map(shapes.__getitem__, self.row_index)
                )
            ]
        return launches

    def __len__(self) -> int:
        return len(self.row_index)

    def __iter__(self) -> Iterator[KernelLaunch]:
        return iter(self._materialise())

    def __reversed__(self) -> Iterator[KernelLaunch]:
        return reversed(self._materialise())

    def __getitem__(self, item):
        return self._materialise()[item]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (LaunchTable, list)):
            return self._materialise() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"LaunchTable({len(self.row_index)} launches, "
            f"{len(self.row_grids)} rows, {len(self.specs)} specs)"
        )
