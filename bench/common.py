"""Helpers shared by the benchmark scripts: paths, clocks, percentiles.

Every script under ``bench/`` is run as a plain file (``python
bench/run.py``), so this module also puts the repository's ``src/`` on
``sys.path`` and builds the environment child processes inherit.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "bench"
#: Scratch space for caches, journals and span dumps; deleted after each run.
RUNS = ROOT / ".bench_runs"

#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 50.0)

#: Iterations of :func:`reference_loop`.
REFERENCE_ITERATIONS = 50_000
#: The reference loop's time on the 2-vCPU Xeon the baseline was recorded
#: on, in its faster spells: a scaled span reads as milliseconds on that
#: host at that speed.
REFERENCE_MS = 5.0
#: How often an entered :class:`SpeedProbe` times the reference loop.
PROBE_INTERVAL_S = 0.25
#: Ticks up to this far outside a span still describe its speed.
PROBE_WINDOW_US = 1_000_000.0


def use_repo_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``; exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child processes: ``src/`` first on PYTHONPATH."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def script(name: str) -> list[str]:
    """The command that runs ``bench/<name>`` with this interpreter."""
    return [sys.executable, str(BENCH / name)]


def now_us() -> float:
    """CLOCK_MONOTONIC microseconds; comparable across processes on Linux
    and the same clock ``repro.obs.now_us`` stamps job records with."""
    return time.perf_counter_ns() / 1_000.0


def new_run_dir(label: str) -> Path:
    RUNS.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=RUNS))


def remove_run_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        RUNS.rmdir()  # only succeeds once no other run is using it
    except OSError:
        pass


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_json(path: Path, document) -> None:
    Path(path).write_text(json.dumps(document, sort_keys=True), encoding="utf-8")


def nearest_rank(values, percentile: float) -> float | None:
    """Nearest-rank percentile, the rule ``repro.obs`` and loadgen use."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return ordered[max(0, min(len(ordered), rank) - 1)]


def samples_beyond(count: int, percentile: float) -> int:
    """How many of ``count`` samples rank above the nearest-rank percentile."""
    return count - max(1, math.ceil(percentile / 100.0 * count))


def tail_percentile(values) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, samples_beyond)``, or None when even
    the median lacks ten samples beyond it.
    """
    count = len(values)
    for percentile in TAIL_LADDER:
        beyond = samples_beyond(count, percentile)
        if beyond >= 10:
            return percentile, nearest_rank(values, percentile), beyond
    return None


def median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def reference_loop() -> None:
    """A fixed amount of pure-Python work: dict stores and float products."""
    table = {}
    for index in range(REFERENCE_ITERATIONS):
        table[index % 4099] = index * 0.5


def scale_span(ticks, start_us: float, end_us: float) -> float:
    """A span's milliseconds at the reference speed.

    ``ticks`` are ``(start_us, end_us)`` runs of :func:`reference_loop`.
    Ticks inside the span are taken out of it, and the rest is scaled by
    ``REFERENCE_MS`` over the mean tick within ``PROBE_WINDOW_US`` of the
    span.  The mean, not the median: the host flips between a fast and
    a slow state, and ticks taken at a steady interval weigh each state
    by the time it held.
    """
    inside = sum(end - start for start, end in ticks if start >= start_us and end <= end_us)
    nearby = [
        end - start
        for start, end in ticks
        if start >= start_us - PROBE_WINDOW_US and end <= end_us + PROBE_WINDOW_US
    ]
    if not nearby:
        raise ValueError("no speed probe tick near the span")
    return REFERENCE_MS * (end_us - start_us - inside) / statistics.fmean(nearby)


class SpeedProbe:
    """Measures the host's speed next to the work being timed.

    The shared host under this benchmark runs 30-70% slower for tens of
    seconds at a time, which moves whole runs.  A probe times
    :func:`reference_loop` (a *tick*) when asked, and while it is entered
    also every ``PROBE_INTERVAL_S`` from a SIGALRM handler in the main
    thread, between the timed work's own bytecodes, so the loop sees the
    speed the work sees.  :meth:`scaled_ms` turns a span into
    milliseconds at the reference speed.  Enter it only around serial
    work in this process; work in other processes is probed with
    :meth:`tick` and :meth:`burst` while they are idle.
    """

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []

    def __enter__(self) -> "SpeedProbe":
        self.tick()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()

    def tick(self) -> None:
        start = now_us()
        reference_loop()
        self.ticks.append((start, now_us()))

    def burst(self, ticks: int = 10) -> None:
        for _ in range(ticks):
            self.tick()

    def scaled_ms(self, start_us: float, end_us: float) -> float:
        return scale_span(self.ticks, start_us, end_us)


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float | None:
    """Peak RSS of a live process from ``/proc/<pid>/status``."""
    try:
        text = Path(f"/proc/{pid}/status").read_text(encoding="utf-8")
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None
