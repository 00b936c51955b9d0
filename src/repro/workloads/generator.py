"""Helpers for synthesizing deterministic kernel-launch sequences.

The suite modules describe workloads in terms of a few archetypal kernel
behaviours — dense compute, streaming memory, irregular graph traversal,
tensor-core GEMM — and a launch schedule.  This module provides those
archetypes plus a :class:`LaunchBuilder` that assigns chronological launch
ids and collects the launches into a :class:`LaunchTable`.
"""

from __future__ import annotations

import zlib
from array import array

import numpy as np

from repro.errors import WorkloadError
from repro.gpu.kernels import InstructionMix, KernelLaunch, KernelSpec
from repro.workloads.table import LaunchTable, _RowInterner

__all__ = [
    "LaunchBuilder",
    "compute_spec",
    "streaming_spec",
    "irregular_spec",
    "tensor_spec",
    "tiny_spec",
    "workload_rng",
]

KIB = 1024
MIB = 1024 * 1024


def workload_rng(workload_name: str, stream: str = "") -> np.random.Generator:
    """A deterministic RNG scoped to one workload (and optional stream)."""
    seed = zlib.crc32(f"{workload_name}/{stream}".encode("utf-8"))
    return np.random.default_rng(seed)


class LaunchBuilder:
    """Accumulates launches into a :class:`LaunchTable`.

    Launch ids are chronological (``0..n-1``).  ``add`` builds no launch
    object: it interns the ``(spec, grid, nvtx)`` row and appends its
    number to the row index.
    """

    def __init__(self) -> None:
        self._rows = _RowInterner()
        self._row = self._rows.row  # bound once: add() is the hot path
        self._row_index = array("i")

    def add(
        self,
        spec: KernelSpec,
        grid_blocks: int,
        *,
        repeat: int = 1,
        nvtx: dict[str, str] | None = None,
    ) -> None:
        """Append ``repeat`` launches of ``spec`` with the given grid.

        The grid floors at one block.  A negative ``repeat`` or a NaN or
        infinite ``grid_blocks`` raises :class:`WorkloadError`.
        """
        if repeat < 0:
            raise WorkloadError(f"repeat must be >= 0, got {repeat!r}")
        try:
            grid = int(grid_blocks)
        except (ValueError, OverflowError) as error:
            raise WorkloadError(
                f"grid_blocks must be a finite number, got {grid_blocks!r}"
            ) from error
        if grid < 1:
            grid = 1
        items = tuple(nvtx.items()) if nvtx else ()
        if repeat == 1:
            self._row_index.append(self._row(spec, grid, items))
        elif repeat:
            row = self._row(spec, grid, items)
            self._row_index.extend(array("i", (row,)) * repeat)

    def table(self) -> LaunchTable:
        """The launches added so far, as a table of their own."""
        return self._rows.table(array("i", self._row_index))

    def launches(self) -> list[KernelLaunch]:
        """A fresh list of the launches added so far."""
        # The table is new and private, so its own list needs no copy.
        return self.table()._materialise()

    def __len__(self) -> int:
        return len(self._row_index)


def compute_spec(
    name: str,
    *,
    threads_per_block: int = 256,
    flops: float = 400.0,
    loads: float = 20.0,
    stores: float = 8.0,
    shared: float = 40.0,
    locality: float = 0.7,
    working_set: float = 24 * MIB,
    regs: int = 48,
    shared_mem: int = 8 * KIB,
    duration_cv: float = 0.04,
    phase_drift: float = 0.0,
    cold_start: float = 0.2,
) -> KernelSpec:
    """A compute-bound kernel: dense arithmetic over tiled shared memory."""
    mix = InstructionMix(
        fp_ops=flops,
        int_ops=flops * 0.25,
        global_loads=loads,
        global_stores=stores,
        shared_loads=shared,
        shared_stores=shared * 0.5,
        control_ops=flops * 0.05,
    )
    return KernelSpec(
        name=name,
        threads_per_block=threads_per_block,
        mix=mix,
        regs_per_thread=regs,
        shared_mem_per_block=shared_mem,
        sectors_per_global_access=4.0,
        l2_locality=locality,
        working_set_bytes=working_set,
        duration_cv=duration_cv,
        phase_drift=phase_drift,
        cold_start_factor=cold_start,
    )


def streaming_spec(
    name: str,
    *,
    threads_per_block: int = 256,
    loads: float = 24.0,
    stores: float = 12.0,
    flops: float = 30.0,
    locality: float = 0.15,
    working_set: float = 256 * MIB,
    sectors: float = 4.0,
    duration_cv: float = 0.05,
    phase_drift: float = 0.0,
    cold_start: float = 0.15,
) -> KernelSpec:
    """A bandwidth-bound kernel: streaming loads/stores, little reuse."""
    mix = InstructionMix(
        fp_ops=flops,
        int_ops=flops * 0.5,
        global_loads=loads,
        global_stores=stores,
        control_ops=4.0,
    )
    return KernelSpec(
        name=name,
        threads_per_block=threads_per_block,
        mix=mix,
        regs_per_thread=32,
        sectors_per_global_access=sectors,
        l2_locality=locality,
        working_set_bytes=working_set,
        duration_cv=duration_cv,
        phase_drift=phase_drift,
        cold_start_factor=cold_start,
    )


def irregular_spec(
    name: str,
    *,
    threads_per_block: int = 256,
    loads: float = 30.0,
    stores: float = 6.0,
    flops: float = 25.0,
    atomics: float = 2.0,
    divergence: float = 0.4,
    sectors: float = 16.0,
    locality: float = 0.25,
    working_set: float = 128 * MIB,
    duration_cv: float = 0.5,
    phase_drift: float = 0.0,
    cold_start: float = 0.3,
) -> KernelSpec:
    """A graph/sort-style kernel: divergent, scattered, uneven blocks."""
    mix = InstructionMix(
        fp_ops=flops * 0.3,
        int_ops=flops,
        global_loads=loads,
        global_stores=stores,
        global_atomics=atomics,
        control_ops=flops * 0.4,
    )
    return KernelSpec(
        name=name,
        threads_per_block=threads_per_block,
        mix=mix,
        regs_per_thread=32,
        divergence_efficiency=divergence,
        sectors_per_global_access=sectors,
        l2_locality=locality,
        working_set_bytes=working_set,
        duration_cv=duration_cv,
        phase_drift=phase_drift,
        cold_start_factor=cold_start,
    )


def tensor_spec(
    name: str,
    *,
    threads_per_block: int = 256,
    tensor_ops: float = 300.0,
    loads: float = 24.0,
    stores: float = 8.0,
    shared: float = 80.0,
    locality: float = 0.8,
    working_set: float = 48 * MIB,
    duration_cv: float = 0.03,
) -> KernelSpec:
    """A tensor-core GEMM kernel (CUTLASS WMMA / cuDNN style)."""
    mix = InstructionMix(
        fp_ops=tensor_ops * 0.1,
        int_ops=tensor_ops * 0.15,
        tensor_ops=tensor_ops,
        global_loads=loads,
        global_stores=stores,
        shared_loads=shared,
        shared_stores=shared * 0.5,
        control_ops=tensor_ops * 0.03,
    )
    return KernelSpec(
        name=name,
        threads_per_block=threads_per_block,
        mix=mix,
        regs_per_thread=64,
        shared_mem_per_block=32 * KIB,
        sectors_per_global_access=4.0,
        l2_locality=locality,
        working_set_bytes=working_set,
        duration_cv=duration_cv,
        uses_tensor_cores=True,
    )


def tiny_spec(
    name: str,
    *,
    threads_per_block: int = 128,
    work: float = 60.0,
    duration_cv: float = 0.08,
) -> KernelSpec:
    """A latency-bound helper kernel (reductions, argmax, bookkeeping)."""
    mix = InstructionMix(
        fp_ops=work * 0.4,
        int_ops=work * 0.4,
        global_loads=work * 0.15,
        global_stores=work * 0.05,
        control_ops=work * 0.1,
    )
    return KernelSpec(
        name=name,
        threads_per_block=threads_per_block,
        mix=mix,
        regs_per_thread=24,
        l2_locality=0.6,
        working_set_bytes=1 * MIB,
        duration_cv=duration_cv,
        cold_start_factor=0.1,
    )
