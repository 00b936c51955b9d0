#!/usr/bin/env python
"""Check one approximate tier's answers and ledger in a loadgen report.

Reads the JSON report ``pka loadgen --report`` writes (which embeds the
server's ``/metricsz`` document) and asserts, for the tier's ``SECTION``
(``semcache`` or ``predict``):

* every submitted job completed without an error or a failure;
* at least one job was answered by the tier, the server's probe-hit
  counter moved, and the client-side count never undercuts it
  (duplicate submissions attach to an answered job and report its
  source too, so the client count may exceed the counter);
* the tier is enabled and its lookup ledger reconciles:
  ``answers + escalations == lookups``;
* for ``semcache``: every transfer was a submit-time probe hit;
* for ``predict``: no observed prediction exceeded its bound.

Usage: ``python scripts/check_tier_ledger.py REPORT SECTION [--submitted N]``
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Per section: the report's answered-job count, the server's probe-hit
#: counter, the ledger's answer key, the observed-error block, and which
#: of the two tier-specific checks apply.
SECTIONS = {
    "semcache": {
        "answered": "transferred",
        "hits": "service.transfer_hits",
        "answers": "transfers",
        "error": "transfer_error",
        "answers_are_hits": True,
        "no_violations": False,
    },
    "predict": {
        "answered": "predicted",
        "hits": "service.predict_hits",
        "answers": "predictions",
        "error": "prediction_error",
        "answers_are_hits": False,
        "no_violations": True,
    },
}


def check(report: dict, section: str, submitted: int | None) -> str:
    """Assert the tier's contract on one report; return a summary line."""
    spec = SECTIONS[section]
    if submitted is not None:
        assert report["submitted"] == submitted, report
    assert report["completed"] == report["accepted"], report
    assert report["errors"] == 0 and report["failed"] == 0, report
    answered = report[spec["answered"]]
    assert answered >= 1, report
    counters = report["server_metrics"]["counters"]
    hits = counters[spec["hits"]]
    assert hits >= 1, counters
    assert answered >= hits, (answered, hits)
    ledger = report["server_metrics"][section]
    assert ledger["enabled"] is True, ledger
    assert ledger["reconciles"] is True, ledger
    answers = ledger[spec["answers"]]
    assert answers + ledger["escalations"] == ledger["lookups"], ledger
    if spec["answers_are_hits"]:
        assert answers == hits, (answers, hits)
    if spec["no_violations"]:
        assert ledger[spec["error"]]["violations"] == 0, ledger
    return (
        f"{section}: {answered}/{report['completed']} jobs {spec['answered']}; "
        f"ledger reconciles ({ledger['lookups']} lookups = "
        f"{answers} {spec['answers']} + {ledger['escalations']} escalations)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=Path)
    parser.add_argument("section", choices=sorted(SECTIONS))
    parser.add_argument(
        "--submitted", type=int, default=None, metavar="N",
        help="also assert the replay submitted exactly N jobs",
    )
    args = parser.parse_args(argv)
    report = json.loads(args.report.read_text(encoding="utf-8"))
    print(check(report, args.section, args.submitted))
    return 0


if __name__ == "__main__":
    sys.exit(main())
