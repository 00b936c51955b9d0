"""Benchmark-side tracing: spans around the public calls into each layer.

The traced runs change no file under ``src/``.  They replace public
functions and methods of ``repro`` with wrappers that record a span per
call: a name, a start and end on the CLOCK_MONOTONIC microsecond clock
(shared by every process on the host, so coordinator and worker spans
line up), the enclosing span, and a request id shared by every span of
one request (the cell label in sweeps, the job id in ``pka serve``).
Spans stay in memory and are written out when the process ends.

A span's *self time* is its duration minus the part of that interval its
child spans cover; self times of every span inside a root add up to the
root's duration, which is how a traced run shows where wall time went.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from pathlib import Path

from common import now_us

#: Public calls every traced process wraps: (module, owner, attribute, span).
#: ``owner`` None means a module-level function, which is also replaced in
#: every module that imported it by name.
SWEEP_LAYERS = (
    ("repro.analysis.harness", "EvaluationHarness", "evaluate_cells", "harness.evaluate_cells"),
    ("repro.analysis.persistence", None, "launches_digest", "persistence.launches_digest"),
    ("repro.analysis.persistence", "RunCache", "get_run", "persistence.get"),
    ("repro.analysis.persistence", "RunCache", "get_selection", "persistence.get"),
    ("repro.analysis.persistence", "RunCache", "put_run", "persistence.put"),
    ("repro.analysis.persistence", "RunCache", "put_selection", "persistence.put"),
    ("repro.analysis.persistence", "RunCache", "put_manifest", "persistence.put_manifest"),
    ("repro.analysis.semcache", "SemanticCache", "consult", "semcache.consult"),
    ("repro.analysis.semcache", "SemanticCache", "observe", "semcache.observe"),
    ("repro.predict.tiers", "PredictTiers", "consult", "predict.consult"),
    ("repro.predict.tiers", "PredictTiers", "observe", "predict.observe"),
    ("repro.workloads.spec", "WorkloadSpec", "build", "workloads.build"),
    ("repro.baselines.tbpoint", None, "select_tbpoint", "baselines.select_tbpoint"),
    ("repro.baselines.tbpoint", None, "simulate_tbpoint", "baselines.simulate_tbpoint"),
    ("repro.baselines.first_n", None, "run_first_n_instructions", "baselines.first_n"),
    ("repro.core.pka", "PrincipalKernelAnalysis", "characterize", "core.characterize"),
    ("repro.core.pka", "PrincipalKernelAnalysis", "simulate", "core.simulate"),
    ("repro.core.pka", "PrincipalKernelAnalysis", "project_silicon", "core.project_silicon"),
    ("repro.profiling.detailed", "DetailedProfiler", "profile", "profiling.detailed_profile"),
    ("repro.sim.silicon", "SiliconExecutor", "run", "sim.silicon_run"),
    ("repro.sim.simulator", "Simulator", "run_full", "sim.run_full"),
    ("repro.sim.simulator", "Simulator", "run_kernel", "sim.run_kernel"),
)

#: Coordinator-side serving calls (``pka serve`` only).
SERVE_LAYERS = (
    ("repro.analysis.harness", "EvaluationHarness", "cell_digest_for", "service.cell_digest"),
    ("repro.analysis.harness", "EvaluationHarness", "transfer_probe", "service.transfer_probe"),
    ("repro.analysis.harness", "EvaluationHarness", "predict_probe", "service.predict_probe"),
    ("repro.service.journal", "JobJournal", "append", "service.journal_append"),
)


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def reset(self) -> None:
        """Start empty; safe in a forked child whose parent held the lock."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: str | None) -> None:
        """Request id for this thread's spans that do not name their own."""
        self._local.request = request

    def open(self, name: str, request: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = getattr(self._local, "request", None)
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        span = {
            "name": name,
            "start_us": now_us(),
            "end_us": None,
            "parent": parent,
            "request": request,
        }
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index]["end_us"] = now_us()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def adopt(self, index: int, request: str) -> None:
        """Give span ``index`` and its descendants without an id ``request``.

        For calls that learn their request id only on return, such as a
        submission, which is assigned its job id inside the call.
        """
        with self._lock:
            owned = {index}
            for position in range(index, len(self.spans)):
                span = self.spans[position]
                if position == index or span["parent"] in owned:
                    owned.add(position)
                    if span["request"] is None:
                        span["request"] = request

    def dump(self, path: Path, **meta) -> None:
        with self._lock:
            spans = [span for span in self.spans if span["end_us"] is not None]
        document = {"pid": os.getpid(), "spans": spans, **meta}
        Path(path).write_text(json.dumps(document), encoding="utf-8")


RECORDER = Recorder()


def _wrapped(original, span_name: str, request_of=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = RECORDER.open(span_name)
        try:
            result = original(*args, **kwargs)
        finally:
            RECORDER.close(index)
        if request_of is not None:
            RECORDER.adopt(index, request_of(args, result))
        return result

    wrapper.__bench_original__ = original
    return wrapper


def wrap_call(module_name, owner, attribute, span_name, request_of=None) -> None:
    """Replace one public call with a span-recording wrapper.

    ``request_of(args, result)`` names the request of a call that learns
    its id only when it returns.
    """
    module = importlib.import_module(module_name)
    target = getattr(module, owner) if owner else module
    original = getattr(target, attribute)
    if hasattr(original, "__bench_original__"):
        return
    wrapper = _wrapped(original, span_name, request_of)
    if owner:
        setattr(target, attribute, wrapper)
        return
    for loaded in list(sys.modules.values()):
        if getattr(loaded, attribute, None) is original:
            setattr(loaded, attribute, wrapper)


def install_sweep_spans() -> None:
    """Wrap every sweep-layer call; cells become the request ids."""
    import repro.analysis  # noqa: F401  (loads every layer module)
    import repro.predict  # noqa: F401
    from repro.analysis.harness import WorkloadEvaluation, cell_label

    for module, owner, attribute, span in SWEEP_LAYERS:
        wrap_call(module, owner, attribute, span)

    # compute_cell names the request: every span under it carries the label.
    original = WorkloadEvaluation.compute_cell

    @functools.wraps(original)
    def compute_cell(self, method, gpu=None, **kwargs):
        gpu_name = getattr(gpu, "name", gpu)
        index = RECORDER.open(
            "harness.compute_cell", cell_label(self.spec.name, method, gpu_name)
        )
        try:
            return original(self, method, gpu, **kwargs)
        finally:
            RECORDER.close(index)

    compute_cell.__bench_original__ = original
    if not hasattr(WorkloadEvaluation.compute_cell, "__bench_original__"):
        WorkloadEvaluation.compute_cell = compute_cell


def install_serve_spans() -> None:
    """Coordinator wrappers: sweep layers plus admission and completion.

    ``service.submit`` learns its job id from the returned record;
    ``service.begin`` and ``service.finish`` take it from their argument.
    """
    install_sweep_spans()
    for module, owner, attribute, span in SERVE_LAYERS:
        wrap_call(module, owner, attribute, span)
    by_result = lambda args, result: result[0].job_id  # noqa: E731
    by_record = lambda args, result: args[1].job_id  # noqa: E731
    scheduler = "repro.service.scheduler"
    wrap_call(scheduler, "Scheduler", "submit", "service.submit", by_result)
    wrap_call(scheduler, "Scheduler", "begin", "service.begin", by_record)
    wrap_call(scheduler, "Scheduler", "finish", "service.finish", by_record)


# ---------------------------------------------------------------------------
# Reading spans back.
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    ``spans`` is one process's list; ``parent`` holds list indices.
    Children are clipped to their parent's interval, and overlapping
    children (from other threads) are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            children.setdefault(parent, []).append((span["start_us"], span["end_us"]))
    result = []
    for index, span in enumerate(spans):
        start, end = span["start_us"], span["end_us"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append(max(0.0, (end - start) - covered))
    return result


def layer_table(spans: list[dict], root: int | None = None) -> dict[str, dict]:
    """Calls, inclusive and self seconds per span name.

    With ``root``, only that span and its descendants count, and the
    root's own self time is reported under its name like any other.
    Inclusive time counts nested calls of the same name once.
    """
    selfs = self_times(spans)
    inside = set(range(len(spans)))
    if root is not None:
        inside = {root}
        for index in range(root + 1, len(spans)):
            if spans[index]["parent"] in inside:
                inside.add(index)
    table: dict[str, dict] = {}
    for index in sorted(inside):
        span = spans[index]
        entry = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[index] / 1e6
        ancestor = span["parent"]
        while ancestor is not None and spans[ancestor]["name"] != span["name"]:
            ancestor = spans[ancestor]["parent"]
        if ancestor is None:
            entry["total_s"] += (span["end_us"] - span["start_us"]) / 1e6
    return table


def read_dump(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


ROOT_SPAN = "bench.timed"


def sweep_metrics(tables: list[dict]) -> dict:
    """Per-layer metrics of traced sweep or simulation work.

    ``tables`` are :func:`layer_table` results, summed; when they are
    rooted at ``ROOT_SPAN`` spans, the root's own self time is the
    share of wall time no wrapped layer explains.
    """
    total: dict[str, dict] = {}
    for table in tables:
        for name, entry in table.items():
            slot = total.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in slot:
                slot[key] += entry[key]

    def self_s(*names):
        return sum(total.get(name, {}).get("self_s", 0.0) for name in names)

    def entry(name, key):
        return total.get(name, {}).get(key, 0)

    wall = entry(ROOT_SPAN, "total_s")
    return {
        "baselines.select_tbpoint_s": self_s("baselines.select_tbpoint"),
        "sim.run_kernel_s": self_s("sim.run_kernel"),
        "sim.run_kernel_calls": entry("sim.run_kernel", "calls"),
        "sim.run_full_s": entry("sim.run_full", "total_s"),
        "sim.run_full_self_s": self_s("sim.run_full"),
        "core.characterize_s": self_s("core.characterize"),
        "profiling.detailed_profile_s": self_s("profiling.detailed_profile"),
        "workloads.build_s": self_s("workloads.build"),
        "persistence.launches_digest_s": self_s("persistence.launches_digest"),
        "persistence.get_s": self_s("persistence.get"),
        "persistence.put_s": self_s("persistence.put", "persistence.put_manifest"),
        "persistence.puts": entry("persistence.put", "calls"),
        "harness.self_s": self_s("harness.evaluate_cells", "harness.compute_cell"),
        "trace.unattributed_pct": 100.0 * self_s(ROOT_SPAN) / wall if wall else 0.0,
    }


def overhead_pct(traced_ms: float, untraced_ms: float) -> float:
    """How much slower the traced run was than the same work untraced."""
    return 100.0 * (traced_ms - untraced_ms) / untraced_ms
