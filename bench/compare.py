"""Compare two sets of benchmark records, one row per workload.

    python bench/compare.py PARENT.json CHANGE.json

Each file is a document written by ``bench/run.py --out`` (untraced
records are compared; traced ones are ignored).  For every workload and
``end_to_end`` metric of ``BENCHMARK.json``, runs are paired in seed
order and judged by the rules of choosing-metrics §8:

* ``better``     the change wins at least 9 of 10 pairs (ties count for
                 neither) and the medians differ by more than the
                 parent's interquartile range;
* ``unresolved`` the parent's interquartile range, as a share of its
                 median, is wider than the bound — unless every change
                 run beats every parent run;
* ``worse``      the change's median is worse than the parent's by more
                 than the bound;
* ``same``       otherwise.

Deterministic outputs (accuracy, result digests, the serve-mix source
split) must be identical for every seed both sets ran.  Exit status 1
when any metric is worse or missing from a record, any output differs,
or any record failed a correctness gate.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import common

WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Judge one metric; ``better`` is "lower" or "higher"."""
    if len(parent) < 2 or len(change) < 2:
        return {"verdict": "unresolved", "reason": "fewer than two runs"}
    sign = 1.0 if better == "lower" else -1.0  # > 0 means the change is worse
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    gap = change_median - parent_median
    worse_by = sign * gap / parent_median if parent_median else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if sign * (new - old) < 0)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    spread = iqr / parent_median if parent_median else float("inf")
    # Best run first; then: every change run beats (loses to) every parent run.
    new = sorted(change, key=lambda value: sign * value)
    old = sorted(parent, key=lambda value: sign * value)
    beats_all = sign * (new[-1] - old[0]) < 0
    loses_all = sign * (new[0] - old[-1]) > 0
    result = {
        "parent_median": parent_median,
        "change_median": change_median,
        "change_pct": 100.0 * gap / parent_median if parent_median else None,
        "wins": wins,
        "pairs": len(pairs),
        "parent_spread": spread,
    }
    if sign * gap < 0 and wins >= WIN_SHARE * len(pairs) and abs(gap) > iqr:
        result["verdict"] = "better"
    elif worse_by > bound and (spread <= bound or loses_all):
        result["verdict"] = "worse"
    elif spread > bound and not beats_all:
        result["verdict"] = "unresolved"
    else:
        result["verdict"] = "same"
    return result


def untraced_by_workload(path: str) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for record in common.read_json(path)["records"]:
        if not record["trace"]:
            grouped.setdefault(record["workload"], []).append(record)
    for records in grouped.values():
        records.sort(key=lambda record: (record["seed"], record["started_at"]))
    return grouped


def output_differences(parent: list[dict], change: list[dict]) -> list[int]:
    """Seeds whose deterministic outputs differ between the two sets."""
    before = {record["seed"]: record["outputs"] for record in parent}
    return sorted(
        record["seed"]
        for record in change
        if record["seed"] in before and before[record["seed"]] != record["outputs"]
    )


def compare(parent_path: str, change_path: str, spec: dict) -> tuple[list[str], bool]:
    parent = untraced_by_workload(parent_path)
    change = untraced_by_workload(change_path)
    rows, ok = [], True
    for workload in (entry["name"] for entry in spec["workloads"]):
        old, new = parent.get(workload, []), change.get(workload, [])
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if any(name not in r["metrics"] for r in old + new):
                ok = False
                cells.append(f"{name} missing")
                continue
            judged = verdict(
                [r["metrics"][name]["value"] for r in old],
                [r["metrics"][name]["value"] for r in new],
                metric["better"],
                metric["bound"],
            )
            ok = ok and judged["verdict"] != "worse"
            detail = ""
            if judged.get("change_pct") is not None:
                detail = f" ({judged['change_pct']:+.1f}%, {judged['wins']}/{judged['pairs']} wins)"
            cells.append(f"{name} {judged['verdict']}{detail}")
        differing = output_differences(old, new)
        incorrect = sorted(r["seed"] for r in old + new if not r["correct"])
        ok = ok and not differing and not incorrect
        if differing:
            outputs = f"outputs differ for seeds {differing}"
        elif {r["seed"] for r in old} & {r["seed"] for r in new}:
            outputs = "outputs identical"
        else:
            outputs = "no common seeds to compare outputs"
        if incorrect:
            outputs += f"; gates failed for seeds {incorrect}"
        rows.append(f"{workload:15s} " + "; ".join(cells) + f"; {outputs}")
    return rows, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    rows, ok = compare(args.parent, args.change, common.read_json(common.ROOT / "BENCHMARK.json"))
    print("\n".join(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
