"""The ``million-launch`` workload: the full-kernel DES path at scale.

Set-up builds a seeded stream of 10^6 launches over 384 large-grid
kernels — the stream of ``benchmarks/test_scaling_million_kernels.py``
with the seed added to its ``workload_rng`` key and grids a quarter of
its size, so several runs fit the time budget.

A run is ``SETUPS`` parts in turn, each a fresh process with an equal
share of ``--seconds``.  A part builds the stream — the median build is
the set-up time — and then runs rounds until its share has passed (at
least one).  A round calls ``Simulator(VOLTA_V100).run_full`` on a fresh
simulator — the cold answer — and then ``WARM_PER_ROUND`` more times on
the same simulator, whose kernel memo is then full — the warm answer,
the per-launch stream accounting.  Cold and warm calls are interleaved
over the whole run, and over several processes, because the speed of
the memory-bound warm calls changes with the host's spells and, for
seconds at a time, from one process to the next.  No other workload
spends real time in ``run_full``.

Every build and call is timed at the reference speed of
``common.SpeedProbe``, which runs for the whole part; ``cold_ms`` and
``warm_ms`` are the mean cold and warm call of the run.

Usage (``bench/run.py`` drives the first form)::

    python bench/million_launch.py run --seed N --seconds S --trace 0|1 --result F
    python bench/million_launch.py part --seed N --seconds S --trace 0|1 --result F
"""

from __future__ import annotations

import argparse
import hashlib
import math
import statistics
import subprocess
import sys

import common
import spans
from common import median, now_us, read_json, write_json

DISTINCT_KERNELS = 384
LAUNCHES = 1_000_000
GRID_BLOCKS = (100_000, 150_000)
SETUPS = 3
WARM_PER_ROUND = 3
NAME = "bench_cold_million"


def build_stream(seed: int) -> list:
    """The seeded launch stream; the same seed gives the same launches."""
    from repro.workloads.generator import (
        LaunchBuilder,
        compute_spec,
        irregular_spec,
        streaming_spec,
        workload_rng,
    )

    rng = workload_rng(f"{NAME}/{seed}", "grids")
    factories = (compute_spec, streaming_spec, irregular_spec)
    builder = LaunchBuilder()
    base, extra = divmod(LAUNCHES, DISTINCT_KERNELS)
    for index in range(DISTINCT_KERNELS):
        spec = factories[index % len(factories)](f"bench_cold_{index}")
        grid = int(rng.integers(*GRID_BLOCKS))
        builder.add(spec, grid, repeat=base + (1 if index < extra else 0))
    return builder.launches()


def _timed_run(simulator, launches) -> tuple[tuple[float, float], object]:
    start = now_us()
    result = simulator.run_full(NAME, launches)
    return (start, now_us()), result


def _digest(result) -> str:
    from repro.analysis.persistence import dump_run

    return hashlib.sha256(dump_run(result).encode("utf-8")).hexdigest()


def run_part(seed: int, seconds: float, trace: bool) -> dict:
    """One part in this (fresh) process: build the stream, then rounds
    until ``seconds`` pass (one when traced, then a traced cold and warm
    call).  Spans are timed at the reference speed and on the wall."""
    common.use_repo_sources()
    from repro.gpu import VOLTA_V100
    from repro.sim import Simulator

    with common.SpeedProbe() as probe:
        start = now_us()
        launches = build_stream(seed)
        build = (start, now_us())
        expected = math.fsum(launch.warp_instructions for launch in launches)

        cold, warm, results = [], [], []
        started = now_us()
        while not cold or (not trace and (now_us() - started) / 1e6 < seconds):
            simulator = Simulator(VOLTA_V100)
            span, result = _timed_run(simulator, launches)
            cold.append(span)
            results.append(result)
            for _ in range(1 if trace else WARM_PER_ROUND):
                span, result = _timed_run(simulator, launches)
                warm.append(span)
                results.append(result)
        if trace:
            spans.install_sweep_spans()
            tables, traced = [], []
            for sim in (Simulator(VOLTA_V100), simulator):  # cold, then warm memo
                root = spans.RECORDER.open(spans.ROOT_SPAN)
                span, _ = _timed_run(sim, launches)
                spans.RECORDER.close(root)
                traced.append(span)
                tables.append(spans.layer_table(spans.RECORDER.spans, root))
    part = {
        "build_ms": probe.scaled_ms(*build),
        "build_wall_ms": (build[1] - build[0]) / 1000.0,
        "cold_ms": [probe.scaled_ms(*span) for span in cold],
        "warm_ms": [probe.scaled_ms(*span) for span in warm],
        "cold_wall_ms": [(end - begin) / 1000.0 for begin, end in cold],
        "warm_wall_ms": [(end - begin) / 1000.0 for begin, end in warm],
        "digests": sorted({_digest(result) for result in results}),
        "calls": len(results),
        "launches": len(launches),
        "expected_instructions": expected,
        "total_instructions": results[0].total_instructions,
        "total_cycles": results[0].total_cycles,
        "rss_mb": common.peak_rss_mb(),
    }
    if trace:
        part["traced_cold_ms"] = probe.scaled_ms(*traced[0])
        part["tables"] = tables
    return part


def _spawn_part(seed: int, seconds: float, trace: bool, result) -> dict:
    command = common.script("million_launch.py") + [
        "part", "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(int(trace)), "--result", str(result),
    ]
    subprocess.run(command, env=common.child_env(), check=True, timeout=170)
    return read_json(result)


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    """``SETUPS`` parts (one when traced), each a fresh process with its
    share of ``seconds``."""
    count = 1 if trace else SETUPS
    parts = [
        _spawn_part(seed, seconds / count, trace, workdir / f"part-{index}.json")
        for index in range(count)
    ]
    cold = [ms for part in parts for ms in part["cold_ms"]]
    warm = [ms for part in parts for ms in part["warm_ms"]]
    first = parts[0]
    document = {
        # Calls are timed by their mean, the total over the count: call
        # times are bimodal with the host's state, and a median of them
        # jumps between the modes where the mean follows their shares.
        "metrics": {
            "setup_s": median(part["build_ms"] for part in parts) / 1000.0,
            "cold_ms": statistics.fmean(cold),
            "warm_ms": statistics.fmean(warm),
            "peak_rss_mb": max(part["rss_mb"] for part in parts),
        },
        "attempted": sum(part["calls"] for part in parts),
        "failed": 0,
        "gates": {
            "instructions_match_stream": all(
                math.isclose(part["total_instructions"], part["expected_instructions"], rel_tol=1e-9)
                for part in parts
            ),
            "digest_repeats": len({d for part in parts for d in part["digests"]}) == 1,
        },
        "outputs": {
            "launches": first["launches"],
            "total_cycles": first["total_cycles"],
            "total_instructions": first["total_instructions"],
        },
        "diagnostics": {
            "cold_runs_ms": cold,
            "warm_runs_ms": warm,
            "builds_s": [part["build_ms"] / 1000.0 for part in parts],
            "cold_runs_wall_ms": [ms for part in parts for ms in part["cold_wall_ms"]],
            "warm_runs_wall_ms": [ms for part in parts for ms in part["warm_wall_ms"]],
            "builds_wall_s": [part["build_wall_ms"] / 1000.0 for part in parts],
        },
    }
    if trace:
        tables = first["tables"]
        layers = spans.sweep_metrics(tables)
        layers["obs.trace_overhead_pct"] = spans.overhead_pct(first["traced_cold_ms"], cold[0])
        layers["sim.winst_per_s"] = first["total_instructions"] / (cold[0] / 1000.0)
        document["layers"] = layers
        document["layer_tables"] = {"cold": tables[0], "warm": tables[1]}
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "part"):
        command = commands.add_parser(name)
        command.add_argument("--seed", type=int, required=True)
        command.add_argument("--seconds", type=float, required=True)
        command.add_argument("--trace", type=int, choices=(0, 1), default=0)
        command.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    if args.command == "part":
        write_json(args.result, run_part(args.seed, args.seconds, bool(args.trace)))
        return 0
    workdir = common.new_run_dir("million-launch")
    try:
        write_json(args.result, run(args.seed, args.seconds, bool(args.trace), workdir))
    finally:
        common.remove_run_dir(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
