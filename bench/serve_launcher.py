"""Run ``pka serve`` with the benchmark's spans installed.

Used by the traced ``serve-mix`` run in place of ``python -m repro.cli
serve``::

    python bench/serve_launcher.py SPANS_DIR serve --port 0 --workers 1 ...

The coordinator gets the serving and sweep wrappers of ``spans.py``.
``repro.service.supervisor._worker_main`` is replaced by a wrapper that
tags each task's spans with its job id, calls the original, and writes
the worker's spans when its task loop ends.  The coordinator writes its
own spans after the drain.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import common

common.use_repo_sources()

import spans  # noqa: E402


class _TaskQueue:
    """The worker's task queue, marking when each job reaches the worker."""

    def __init__(self, queue) -> None:
        self._queue = queue

    def get(self, *args, **kwargs):
        task = self._queue.get(*args, **kwargs)
        if task is not None:
            spans.RECORDER.set_request(task[0])
            spans.RECORDER.close(spans.RECORDER.open("service.task_received"))
        return task

    def __getattr__(self, name):
        return getattr(self._queue, name)


def traced_worker_main(original, spans_dir: Path):
    def worker_main(worker_id, generation, task_queue, *rest):
        spans.RECORDER.reset()  # drop the coordinator spans inherited by fork
        try:
            original(worker_id, generation, _TaskQueue(task_queue), *rest)
        finally:
            spans.RECORDER.dump(
                spans_dir / f"worker-{os.getpid()}.json",
                role="worker",
                rss_mb=common.peak_rss_mb(),
            )

    return worker_main


def main(argv: list[str]) -> int:
    spans_dir = Path(argv[0])
    from repro import cli, obs
    from repro.service import supervisor

    spans.install_serve_spans()
    supervisor._worker_main = traced_worker_main(supervisor._worker_main, spans_dir)
    try:
        return cli.main(argv[1:])
    finally:
        spans.RECORDER.dump(
            spans_dir / "coordinator.json",
            role="coordinator",
            tracer_events=len(obs.get_tracer().events),
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
