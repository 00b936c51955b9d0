"""The ``paper`` workload: what a researcher pays to regenerate the paper.

A *pass* evaluates every cell ``collect_headline_metrics`` reads for a
fixed slice of the paper corpus — serially, through
``EvaluationHarness(cache_dir=D).evaluate_cells`` — in an order the seed
shuffles, then runs ``collect_headline_metrics`` on the same harness.
Each pass is a fresh process.

* **Cold passes** start from an empty cache directory and repeat until
  ``--seconds`` have passed (at least one).  TBPoint selection, the DES,
  ``characterize`` and cache writes do the work.
* **Five warm passes** then rerun over the last cold pass's cache:
  launch rebuilds, digests and cache reads do the work.

Each pass times its set-up and itself at the reference speed of
``common.SpeedProbe``, which runs for the whole pass process.

The slice is every third workload of the corpus in registry order,
starting with the third (``SUBSET_STRIDE``, ``SUBSET_OFFSET``), so a
run fits the benchmark's time budget: about 900 of the 2,665 cells.  It
keeps ``gramschmidt``, whose TBPoint selection is half of a full-corpus
cold pass (see README.md).  ``paper_reference.json`` pins the slice's
cells and its headline values.

Usage (``bench/run.py`` drives the first form)::

    python bench/paper.py run --seed N --seconds S --trace 0|1 --result F
    python bench/paper.py reference   # rewrite paper_reference.json
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import random
import subprocess
import sys

import common
import spans
from common import median, now_us, read_json, write_json

REFERENCE = common.BENCH / "paper_reference.json"
SUBSET_STRIDE = 3
SUBSET_OFFSET = 2
WARM_PASSES = 5

#: Relative tolerances of tests/analysis/test_goldens.py, by key prefix.
GOLDEN_TOLERANCES = {
    "fig7.": 0.10,
    "fig8.": 0.15,
    "fig9.": 0.05,
    "fig10.": 0.25,
    "table4.": 0.15,
}


def golden_tolerance(key: str) -> float:
    for prefix, tolerance in GOLDEN_TOLERANCES.items():
        if key.startswith(prefix):
            return tolerance
    return 0.10


def headline_drift(actual: dict, expected: dict) -> list[str]:
    """Keys whose value left its golden tolerance (or went missing)."""
    drifted = []
    for key, value in expected.items():
        if key not in actual:
            drifted.append(key)
            continue
        reference = max(abs(value), 1e-9)
        if abs(actual[key] - value) / reference > golden_tolerance(key):
            drifted.append(key)
    return drifted


# ---------------------------------------------------------------------------
# Inside a pass process (repro imported).
# ---------------------------------------------------------------------------


def _subset_harness(workloads, **kwargs):
    from repro.analysis import EvaluationHarness

    names = set(workloads)

    class SubsetHarness(EvaluationHarness):
        """A harness whose corpus views see only the benchmark's slice."""

        def evaluations(self, suite=None):
            return [e for e in super().evaluations(suite) if e.spec.name in names]

    return SubsetHarness(**kwargs)


def _gpus() -> dict:
    from repro.gpu.architectures import ALL_GPUS, volta_v100_half_sms

    gpus = {gpu.name: gpu for gpu in ALL_GPUS}
    half = volta_v100_half_sms()
    gpus[half.name] = half
    return gpus


def results_digest(labels: list[str], results: list) -> str:
    """sha256 over every cell result, in label order."""
    from repro.analysis.harness import CellFailure
    from repro.analysis.persistence import dump_run, dump_selection
    from repro.core.pka import KernelSelection

    hasher = hashlib.sha256()
    for label, result in sorted(zip(labels, results, strict=True)):
        if result is None:
            text = "none"
        elif isinstance(result, CellFailure):
            text = f"failure:{result.error_type}"
        elif isinstance(result, KernelSelection):
            text = dump_selection(result)
        else:
            text = dump_run(result)
        hasher.update(f"{label}\n{text}\n".encode("utf-8"))
    return hasher.hexdigest()


def run_pass(args) -> None:
    """One pass in this (fresh) process; writes its measurements, timed
    at the reference speed of ``common.SpeedProbe`` and on the wall."""
    common.use_repo_sources()
    with common.SpeedProbe() as probe:
        document, (ready, start, end) = _timed_pass(args)
    document.update(
        setup_s=probe.scaled_ms(args.spawned_us, ready) / 1000.0,
        pass_ms=probe.scaled_ms(start, end),
        setup_wall_s=(ready - args.spawned_us) / 1e6,
        pass_wall_ms=(end - start) / 1000.0,
    )
    write_json(args.result, document)


def _timed_pass(args) -> tuple[dict, tuple[float, float, float]]:
    from repro.analysis.goldens import collect_headline_metrics
    from repro.analysis.harness import CellFailure, cell_label

    if args.trace:
        spans.install_sweep_spans()
    reference = read_json(REFERENCE)
    gpus = _gpus()
    cells = [(w, m, gpus[g] if g else None) for w, m, g in reference["cells"]]
    random.Random(f"{args.seed}/{args.label}").shuffle(cells)
    labels = [cell_label(w, m, g) for w, m, g in cells]
    harness = _subset_harness(reference["workloads"], cache_dir=args.cache_dir)
    cache = harness.run_cache
    ready = now_us()

    root = spans.RECORDER.open(spans.ROOT_SPAN) if args.trace else None
    start = now_us()
    results = harness.evaluate_cells(cells)
    misses, writes = cache.misses, cache.writes
    headline = collect_headline_metrics(harness)
    end = now_us()
    if root is not None:
        spans.RECORDER.close(root)
    document = {
        "cells": len(cells),
        "failures": sum(isinstance(r, CellFailure) for r in results),
        # collect_headline_metrics must only read memoized cells; a cache
        # miss here means the reference cell list is stale.
        "stale_cells": cache.misses - misses + cache.writes - writes,
        "digest": results_digest(labels, results),
        "hit_ratio": cache.hits / max(1, cache.hits + cache.misses),
        "headline": headline,
        "rss_mb": common.peak_rss_mb(),
    }
    if root is not None:
        document["layers"] = spans.layer_table(spans.RECORDER.spans, root)
    return document, (ready, start, end)


def write_reference(_args) -> None:
    """Enumerate the slice's cells and pin its headline values."""
    common.use_repo_sources()
    from repro.analysis.goldens import collect_headline_metrics
    from repro.analysis.harness import WorkloadEvaluation
    from repro.gpu.architectures import GENERATIONS, VOLTA_V100
    from repro.workloads.spec import iter_workloads

    workloads = [
        spec.name
        for index, spec in enumerate(iter_workloads())
        if index % SUBSET_STRIDE == SUBSET_OFFSET
    ]
    seen: dict[tuple, None] = {}

    def record(accessor, to_cell):
        original = getattr(WorkloadEvaluation, accessor)

        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            seen.setdefault((self.spec.name, *to_cell(*args, **kwargs)), None)
            return original(self, *args, **kwargs)

        setattr(WorkloadEvaluation, accessor, wrapper)

    on = lambda gpu=None: (gpu or VOLTA_V100).name  # noqa: E731
    record("silicon_on", lambda gpu: ("silicon", gpu.name))
    for method in ("full_sim", "pks_sim", "pka_sim", "first_1b", "tbpoint_sim"):
        record(method, lambda gpu=None, m=method: (m, on(gpu)))
    record("selection", lambda: ("selection", None))
    record("pka_sim_faithful", lambda: ("pka_sim_faithful", None))
    record(
        "pks_silicon",
        lambda generation="volta": ("pks_silicon", GENERATIONS[generation].name),
    )
    headline = collect_headline_metrics(_subset_harness(workloads))
    write_json(
        REFERENCE,
        {
            "stride": SUBSET_STRIDE,
            "offset": SUBSET_OFFSET,
            "workloads": workloads,
            "cells": [list(cell) for cell in seen],
            "headline": headline,
        },
    )
    print(f"{len(seen)} cells over {len(workloads)} workloads -> {REFERENCE}")


# ---------------------------------------------------------------------------
# Running the passes (no repro import here: every pass is its own process).
# ---------------------------------------------------------------------------


def _spawn_pass(label, cache_dir, seed, trace, workdir) -> dict:
    result = workdir / f"{label}.json"
    command = common.script("paper.py") + [
        "pass", "--label", label, "--cache-dir", str(cache_dir),
        "--seed", str(seed), "--result", str(result),
        "--spawned-us", repr(now_us()),
    ] + (["--trace"] if trace else [])
    subprocess.run(command, env=common.child_env(), check=True, timeout=170)
    return read_json(result)


def measure(seed: int, seconds: float, workdir) -> tuple[list, list]:
    """Cold passes until ``seconds`` elapse, then the warm passes."""
    cold, warm = [], []
    started = now_us()
    cache_dir = None
    while not cold or (now_us() - started) / 1e6 < seconds:
        cache_dir = workdir / f"cache-{len(cold)}"
        cold.append(_spawn_pass(f"cold-{len(cold)}", cache_dir, seed, False, workdir))
    for index in range(WARM_PASSES):
        warm.append(_spawn_pass(f"warm-{index}", cache_dir, seed, False, workdir))
    return cold, warm


def summarize(cold: list, warm: list) -> dict:
    passes = cold + warm
    reference = read_json(REFERENCE)
    headline = cold[0]["headline"]
    drifted = headline_drift(headline, reference["headline"])
    digests = {p["digest"] for p in passes}
    return {
        "metrics": {
            "setup_s": median(p["setup_s"] for p in passes),
            "cold_ms": median(p["pass_ms"] for p in cold),
            "warm_ms": median(p["pass_ms"] for p in warm),
            "peak_rss_mb": max(p["rss_mb"] for p in passes),
        },
        "attempted": sum(p["cells"] for p in passes),
        "failed": sum(p["failures"] for p in passes),
        "gates": {
            "headline_within_golden_tolerance": not drifted,
            "cell_list_current": all(p["stale_cells"] == 0 for p in passes),
            "digest_repeats_across_passes": len(digests) == 1,
        },
        "outputs": {
            "results_digest": sorted(digests)[0],
            "cells": len(reference["cells"]),
            "pka_error_pct": headline["fig8.pka_mean_error"],
            "sim_error_pct": headline["fig8.full_mean_error"],
            "pka_speedup_x": headline["fig7.pka_speedup_geomean"],
        },
        "diagnostics": {
            "cold_passes_ms": [p["pass_ms"] for p in cold],
            "warm_passes_ms": [p["pass_ms"] for p in warm],
            "cold_passes_wall_ms": [p["pass_wall_ms"] for p in cold],
            "warm_passes_wall_ms": [p["pass_wall_ms"] for p in warm],
            "setups_wall_s": [p["setup_wall_s"] for p in passes],
            "drifted_headline_keys": drifted,
        },
    }


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    if not trace:
        return summarize(*measure(seed, seconds, workdir))
    # Traced: one untraced cold pass as the overhead baseline, then a
    # traced cold pass and a traced warm pass over its cache.
    plain = _spawn_pass("plain", workdir / "cache-plain", seed, False, workdir)
    cache_dir = workdir / "cache-traced"
    cold = _spawn_pass("traced-cold", cache_dir, seed, True, workdir)
    warm = _spawn_pass("traced-warm", cache_dir, seed, True, workdir)
    document = summarize([plain, cold], [warm])
    layers = spans.sweep_metrics([cold["layers"], warm["layers"]])
    layers["persistence.hit_ratio"] = warm["hit_ratio"]
    layers["obs.trace_overhead_pct"] = spans.overhead_pct(cold["pass_ms"], plain["pass_ms"])
    document["layers"] = layers
    document["layer_tables"] = {"cold": cold["layers"], "warm": warm["layers"]}
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    runner = commands.add_parser("run")
    runner.add_argument("--seed", type=int, required=True)
    runner.add_argument("--seconds", type=float, required=True)
    runner.add_argument("--trace", type=int, choices=(0, 1), default=0)
    runner.add_argument("--result", required=True)
    one = commands.add_parser("pass")
    one.add_argument("--label", required=True)
    one.add_argument("--cache-dir", required=True)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--result", required=True)
    one.add_argument("--spawned-us", type=float, required=True)
    one.add_argument("--trace", action="store_true")
    commands.add_parser("reference")
    args = parser.parse_args(argv)
    if args.command == "pass":
        run_pass(args)
    elif args.command == "reference":
        write_reference(args)
    else:
        workdir = common.new_run_dir("paper")
        try:
            write_json(args.result, run(args.seed, args.seconds, bool(args.trace), workdir))
        finally:
            common.remove_run_dir(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
