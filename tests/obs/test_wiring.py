"""Integration tests: the tracer wired through sim, harness, pool and cache."""

from __future__ import annotations

from repro import obs
from repro.analysis import EvaluationHarness
from repro.analysis.persistence import RunCache
from repro.obs import get_tracer
from repro.sim.parallel import ProcessPoolBackend, SerialBackend


def _double(item: int) -> int:
    return item * 2


class TestHarnessSweep:
    def test_sweep_counters_and_spans(self):
        obs.enable()
        harness = EvaluationHarness()
        cells = [("fdtd2d", "silicon", None), ("fdtd2d", "selection", None)]
        results = harness.evaluate_cells(cells)
        assert all(result is not None for result in results)

        tracer = get_tracer()
        counters = tracer.counters
        assert counters["harness.cells"] == 2.0
        assert counters["harness.cells_completed"] == 2.0
        assert counters.get("harness.cell_failures", 0.0) == 0.0
        # The PKS stage behind "selection" must have reported in.
        assert counters["pks.runs"] >= 1.0

        stats = tracer.span_stats()
        assert stats["harness.evaluate_cells"]["count"] == 1
        assert stats["harness.cell"]["count"] >= 2

    def test_cell_spans_carry_source_attribution(self):
        obs.enable()
        harness = EvaluationHarness()
        harness.evaluate_cells([("fdtd2d", "silicon", None)])
        harness.evaluate_cells([("fdtd2d", "silicon", None)])  # memoized
        cell_events = [
            event for event in get_tracer().events if event.name == "harness.cell"
        ]
        assert {event.args.get("source") for event in cell_events} == {"computed"}
        # The second sweep hit the in-memory memo, recorded as a counter.
        assert get_tracer().counters["harness.memo_hits"] >= 1.0

    def test_manifest_embeds_counter_snapshot(self):
        obs.enable()
        harness = EvaluationHarness()
        harness.evaluate_cells([("fdtd2d", "silicon", None)])
        manifest = harness.last_manifest
        assert manifest is not None
        embedded = manifest["observability"]["counters"]
        assert embedded["harness.cells"] == 1.0
        # The embedded snapshot and the live tracer agree on shared keys.
        for name, value in embedded.items():
            assert get_tracer().counters[name] == value

    def test_disabled_tracer_leaves_manifest_alone(self):
        harness = EvaluationHarness()
        harness.evaluate_cells([("fdtd2d", "silicon", None)])
        assert "observability" not in harness.last_manifest


class TestSimulatorCounters:
    def test_pka_simulated_vs_projected_cycles(self):
        obs.enable()
        harness = EvaluationHarness()
        harness.evaluate_cells([("fdtd2d", "pka_sim", None)])
        counters = get_tracer().counters
        assert counters["pka.simulated_cycles"] > 0.0
        # The whole point of PKA: projected cycles dwarf simulated ones.
        assert counters["pka.projected_cycles"] >= counters["pka.simulated_cycles"]
        assert counters["pkp.kernels"] >= 1.0
        assert counters["pkp.windows_observed"] >= 1.0


class TestBackends:
    def test_serial_backend_task_spans(self):
        obs.enable()
        outcomes = SerialBackend().run_tasks(_double, [1, 2, 3])
        assert [outcome.value for outcome in outcomes] == [2, 4, 6]
        task_events = [e for e in get_tracer().events if e.name == "task"]
        assert len(task_events) == 3

    def test_pool_backend_ships_worker_spans(self):
        obs.enable()
        parent_pid = __import__("os").getpid()
        outcomes = ProcessPoolBackend(2).run_tasks(_double, [1, 2, 3, 4])
        assert [outcome.value for outcome in outcomes] == [2, 4, 6, 8]
        # Each outcome carries its worker's snapshot...
        for outcome in outcomes:
            assert outcome.obs is not None
            (event,) = [e for e in outcome.obs.events if e.name == "task"]
            assert event.pid != parent_pid
            assert event.args["worker"] == event.pid
        # ...and the parent merged all of them into its own timeline.
        merged = [e for e in get_tracer().events if e.name == "task"]
        assert len(merged) == 4

    def test_pool_backend_ships_nothing_when_disabled(self):
        outcomes = ProcessPoolBackend(2).run_tasks(_double, [1, 2, 3, 4])
        assert [outcome.value for outcome in outcomes] == [2, 4, 6, 8]
        assert all(outcome.obs is None for outcome in outcomes)

    def test_serial_equals_pool_despite_telemetry(self):
        """TaskOutcome equality must ignore the shipped snapshots."""
        obs.enable()
        serial = SerialBackend().run_tasks(_double, [5, 6])
        pooled = ProcessPoolBackend(2).run_tasks(_double, [5, 6])
        assert serial == pooled


class TestCacheCounters:
    def test_hits_misses_writes_reported(self, tmp_path):
        obs.enable()
        cache = RunCache(tmp_path)
        harness = EvaluationHarness(cache_dir=tmp_path)
        harness.evaluate_cells([("fdtd2d", "silicon", None)])
        counters = get_tracer().counters
        assert counters["cache.misses"] >= 1.0
        assert counters["cache.writes"] >= 1.0
        # A fresh harness on the same cache dir reads the entry back.
        obs.reset()
        obs.enable()
        warm = EvaluationHarness(cache_dir=tmp_path)
        warm.evaluate_cells([("fdtd2d", "silicon", None)])
        assert get_tracer().counters["cache.hits"] >= 1.0
        assert cache is not None  # silence unused warning

    def test_quarantine_reported(self, tmp_path):
        obs.enable()
        cache = RunCache(tmp_path)
        cache._write("ab" * 32, "app_run", '{"bogus": true}')
        entry_path = cache._path("ab" * 32)
        entry_path.write_text("not json at all", encoding="utf-8")
        assert cache.get_run("ab" * 32) is None
        counters = get_tracer().counters
        assert counters["cache.quarantined"] == 1.0
        assert counters["cache.misses"] == 1.0
