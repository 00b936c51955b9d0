"""Run the repository benchmark: each workload in a fresh child process.

    python bench/run.py [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Without ``--workload`` every workload in ``BENCHMARK.json`` runs in turn.
Each metric is printed with its name and unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — the ``end_to_end`` metrics, or with ``--trace 1`` the
``per_layer`` ones from a traced repeat of the workload.  ``--out FILE``
adds the full record (gates, deterministic outputs, diagnostics, layer
tables, git sha, python and numpy versions, CPU count) to the JSON
document in FILE, which ``bench/compare.py`` reads.

Exit status: 0 when every correctness gate passed; 1 when one failed (the
result line still says ``"correct": false``); 2 when the checkout has no
program to measure or a workload crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

import common

MODULES = {
    "paper": "paper.py",
    "million-launch": "million_launch.py",
    "serve-mix": "serve_mix.py",
}
CHILD_TIMEOUT_S = 175.0


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh process group, killed whole on timeout."""
    workdir = common.new_run_dir("run")
    result = workdir / "result.json"
    command = common.script(MODULES[workload]) + [
        "run", "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--result", str(result),
    ]
    child = subprocess.Popen(command, env=common.child_env(), start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        common.remove_run_dir(workdir)
        raise
    try:
        if code != 0:
            raise RuntimeError(f"workload {workload} exited with status {code}")
        return common.read_json(result)
    finally:
        common.remove_run_dir(workdir)


def provenance() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def measure(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """Run one workload and shape its record."""
    started = time.time()
    child = run_child(workload, seed, seconds, trace)
    # An end-to-end metric the run could not measure fails the run; a
    # per-layer metric the workload does not exercise reads 0.
    gates = dict(child["gates"])
    gates["end_to_end_measured"] = all(
        child["metrics"].get(entry["name"]) is not None for entry in spec["end_to_end"]
    )
    if trace:
        layers = child.get("layers", {})
        metrics = {
            entry["name"]: {"value": float(layers.get(entry["name"]) or 0.0), "unit": entry["unit"]}
            for entry in spec["per_layer"]
        }
    else:
        metrics = {
            entry["name"]: {"value": float(child["metrics"][entry["name"]]), "unit": entry["unit"]}
            for entry in spec["end_to_end"]
            if child["metrics"].get(entry["name"]) is not None
        }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started_at": started,
        **provenance(),
        "correct": all(gates.values()),
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "metrics": metrics,
        "end_to_end": child["metrics"],
        "gates": gates,
        "outputs": child["outputs"],
        "diagnostics": child.get("diagnostics", {}),
        "layer_tables": child.get("layer_tables", {}),
    }


def print_record(record: dict) -> None:
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:15s} {name:32s} {metric['value']:16.4f} {metric['unit']}")
    failed = [gate for gate, ok in record["gates"].items() if not ok]
    verdict = "all gates passed" if not failed else f"FAILED gates: {', '.join(failed)}"
    print(f"{record['workload']:15s} {verdict}", flush=True)


def append_record(path: str, record: dict) -> None:
    document = {"records": []}
    if os.path.exists(path):
        document = common.read_json(path)
    document["records"].append(record)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=1, sort_keys=True)
        stream.write("\n")


def main(argv=None) -> int:
    common.use_repo_sources()
    spec = common.read_json(common.ROOT / "BENCHMARK.json")
    workloads = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    records = []
    for workload in [args.workload] if args.workload else workloads:
        try:
            record = measure(workload, args.seed, args.seconds, args.trace, spec)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print_record(record)
        if args.out:
            append_record(args.out, record)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{name}": metric for r in records for name, metric in r["metrics"].items()
        }
    correct = all(record["correct"] for record in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
