"""Tests of the benchmark's own logic: ``python -m pytest bench -q``."""

from __future__ import annotations

import pytest

import common
import compare
import spans


# -- the highest percentile with at least ten samples beyond it -------------


@pytest.mark.parametrize(
    ("count", "percentile", "beyond"),
    [
        (1800, 99.0, 18),
        (1000, 99.0, 10),
        (999, 95.0, 49),
        (200, 95.0, 10),
        (199, 90.0, 19),
        (20, 50.0, 10),
    ],
)
def test_tail_percentile_picks_highest_with_ten_beyond(count, percentile, beyond):
    values = list(range(count, 0, -1))
    tail = common.tail_percentile(values)
    assert tail == (percentile, common.nearest_rank(values, percentile), beyond)


def test_tail_percentile_needs_ten_beyond_the_median():
    assert common.tail_percentile(list(range(19))) is None
    assert common.tail_percentile([]) is None


def test_nearest_rank_matches_the_service_rule():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert common.nearest_rank(values, 50.0) == 3.0
    assert common.nearest_rank(values, 95.0) == 5.0
    assert common.nearest_rank(values, 1.0) == 1.0
    assert common.nearest_rank([], 50.0) is None


# -- timing at the reference speed -------------------------------------------


def test_scale_span_takes_ticks_out_and_rescales_by_the_nearby_mean():
    reference_us = common.REFERENCE_MS * 1000.0
    # Host at half speed: every tick takes twice the reference time.
    ticks = [(start, start + 2 * reference_us) for start in (-500_000.0, 400_000.0, 1_500_000.0)]
    inside = 2 * reference_us  # the one tick within the span
    scaled = common.scale_span(ticks, 0.0, 1_000_000.0)
    assert scaled == pytest.approx((1_000_000.0 - inside) / 1000.0 / 2)
    # Ticks further than the window from the span say nothing about it.
    far = ticks + [(5_000_000.0, 5_000_000.0 + 100 * reference_us)]
    assert common.scale_span(far, 0.0, 1_000_000.0) == pytest.approx(scaled)
    # Half the ticks at full speed: the host ran at 2/3 speed on average.
    mixed = [(start, start + reference_us) for start in (-800_000.0, 700_000.0, 1_800_000.0)]
    assert common.scale_span(ticks + mixed, 0.0, 1_000_000.0) == pytest.approx(
        (1_000_000.0 - inside - reference_us) / 1000.0 / 1.5
    )
    with pytest.raises(ValueError):
        common.scale_span(far[-1:], 0.0, 1_000_000.0)


def test_speed_probe_ticks_while_entered_and_stops_after():
    import signal
    import time

    with common.SpeedProbe() as probe:
        start = common.now_us()
        time.sleep(3 * common.PROBE_INTERVAL_S)
        end = common.now_us()
    assert len(probe.ticks) >= 4  # entry, exit and the timer in between
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.scaled_ms(start, end) > 0.0


# -- the serve-mix plan ------------------------------------------------------


@pytest.fixture(scope="module")
def serve_mix():
    common.use_repo_sources()
    import serve_mix

    return serve_mix


def test_serve_plan_repeats_for_a_seed_and_moves_with_it(serve_mix):
    donors, plan = serve_mix.build_plan(7, 400)
    assert (donors, plan) == serve_mix.build_plan(7, 400)
    other_donors, other_plan = serve_mix.build_plan(8, 400)
    assert other_donors == donors and other_plan != plan


def test_serve_plan_mix_and_uniqueness(serve_mix):
    donors, plan = serve_mix.build_plan(3, 600)
    assert len(set(donors)) == serve_mix.DONORS
    kinds = [entry[0] for entry in plan]
    for kind, count in serve_mix.MIX:
        assert kinds.count(kind) == count * len(plan) // serve_mix.BLOCK
    fresh = [entry[2:] for entry in plan if entry[0] == "fresh"]
    first, second = fresh[: len(fresh) // 2], fresh[len(fresh) // 2 :]
    for stratum in set(fresh):
        assert abs(first.count(stratum) - second.count(stratum)) <= 1
    for kind in ("near", "fresh"):
        cells = [entry[1:] for entry in plan if entry[0] == kind]
        assert len(cells) == len(set(cells))
    for kind, workload, method, gpu in plan:
        base = workload.split("~nd")[0]
        assert method in serve_mix.METHODS and gpu in serve_mix.GPUS
        assert not base.startswith("mlperf")
        if kind == "exact":
            assert workload in donors and gpu == "volta"
        elif kind == "near":
            assert base in donors and gpu == "volta" and "~nd" in workload
        else:
            assert workload not in donors and method in serve_mix.FRESH_METHODS


def test_serve_stages_split_the_run_by_rate(serve_mix):
    counts = serve_mix.stage_counts(30.0)
    assert counts == [round(rate * 30.0 / len(serve_mix.RATES)) for rate in serve_mix.RATES]


def served(latency, state="done", kind="near"):
    return {"due_us": 0.0, "seen_us": latency * 1000.0, "state": state, "kind": kind}


def test_a_rate_holds_while_its_p95_is_within_the_limit(serve_mix):
    limit = serve_mix.LIMIT_MS
    fast = [served(1.0)] * 95 + [served(limit)] * 5
    assert serve_mix.rate_report(fast)["holds"]
    slow = [served(1.0)] * 94 + [served(limit + 1.0)] * 6
    assert not serve_mix.rate_report(slow)["holds"]
    # An unanswered job misses the limit however fast the rest were.
    lost = [served(1.0)] * 94 + [served(1.0, state="unanswered")] * 6
    report = serve_mix.rate_report(lost)
    assert not report["holds"] and report["unanswered"] == 6 and report["p95_ms"] is None


def test_a_rate_reports_the_gated_latencies_of_its_own_jobs(serve_mix):
    jobs = [served(2.0, kind="near"), served(8.0, kind="fresh"), served(1.0, kind="exact"),
            served(3.0, kind="exact"), served(50.0, state="unanswered")]
    report = serve_mix.rate_report(jobs)
    assert report["cold_ms"] == pytest.approx(4.0)  # geometric mean of 2 and 8
    assert report["warm_ms"] == pytest.approx(2.0)


def test_max_rate_stops_at_the_first_rate_that_misses(serve_mix):
    held, missed = {"holds": True}, {"holds": False}
    assert serve_mix.max_rate({30.0: held, 40.0: held, 60.0: held}) == 60.0
    assert serve_mix.max_rate({30.0: held, 40.0: missed, 60.0: held}) == 30.0
    assert serve_mix.max_rate({30.0: missed, 40.0: held}) == 0.0


# -- compare rules -----------------------------------------------------------

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def test_compare_better_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr():
    faster = [value * 0.9 for value in PARENT]
    assert compare.verdict(PARENT, faster, "lower", 0.1)["verdict"] == "better"
    eight_wins = faster[:8] + [200.0, 200.0]
    assert compare.verdict(PARENT, eight_wins, "lower", 0.1)["verdict"] != "better"


def test_compare_ties_count_for_neither_side():
    same = list(PARENT)
    result = compare.verdict(PARENT, same, "lower", 0.1)
    assert result["wins"] == 0 and result["verdict"] == "same"


def test_compare_worse_beyond_the_bound_only():
    assert compare.verdict(PARENT, [v * 1.05 for v in PARENT], "lower", 0.1)["verdict"] == "same"
    assert compare.verdict(PARENT, [v * 1.2 for v in PARENT], "lower", 0.1)["verdict"] == "worse"
    # "higher is better" flips the direction.
    assert compare.verdict(PARENT, [v * 0.8 for v in PARENT], "higher", 0.1)["verdict"] == "worse"
    assert compare.verdict(PARENT, [v * 1.2 for v in PARENT], "higher", 0.1)["verdict"] == "better"


def test_compare_unresolved_when_spread_exceeds_bound_unless_dominated():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    slower = [v * 1.3 for v in noisy]
    assert compare.verdict(noisy, slower, "lower", 0.1)["verdict"] == "unresolved"
    dominated = [200.0] * 10
    assert compare.verdict(noisy, dominated, "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(noisy, [1.0] * 10, "lower", 0.1)["verdict"] == "better"


def test_compare_single_runs_and_empty_sets_are_unresolved():
    assert compare.verdict([100.0], [150.0], "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict([], [1.0, 2.0], "lower", 0.1)["verdict"] == "unresolved"


def test_compare_noisy_parent_small_change_is_unresolved_not_same():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    shifted = [v + 5.0 for v in noisy]
    assert compare.verdict(noisy, shifted, "lower", 0.1)["verdict"] == "unresolved"


def test_output_differences_by_seed():
    parent = [{"seed": 1, "outputs": {"d": "a"}}, {"seed": 2, "outputs": {"d": "b"}}]
    change = [{"seed": 1, "outputs": {"d": "a"}}, {"seed": 2, "outputs": {"d": "c"}},
              {"seed": 3, "outputs": {"d": "z"}}]
    assert compare.output_differences(parent, change) == [2]


def test_a_missing_metric_or_failed_gate_fails_the_comparison(tmp_path):
    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.1}],
    }

    def write(name, records):
        path = tmp_path / name
        common.write_json(path, {"records": records})
        return str(path)

    def record(seed, metrics, correct=True):
        return {"workload": "w", "trace": 0, "seed": seed, "started_at": seed,
                "correct": correct, "outputs": {}, "metrics": metrics}

    measured = {"m": {"value": 1.0, "unit": "ms"}}
    parent = write("parent.json", [record(s, measured) for s in (1, 2)])
    assert compare.compare(parent, parent, spec)[1]
    missing = write("missing.json", [record(1, measured), record(2, {})])
    rows, ok = compare.compare(parent, missing, spec)
    assert not ok and "m missing" in rows[0]
    failed = write("failed.json", [record(1, measured), record(2, measured, correct=False)])
    rows, ok = compare.compare(parent, failed, spec)
    assert not ok and "gates failed for seeds [2]" in rows[0]


# -- self-time arithmetic ----------------------------------------------------


def span(name, start, end, parent=None, request=None):
    return {"name": name, "start_us": start, "end_us": end, "parent": parent, "request": request}


def test_self_time_subtracts_children_once():
    spans_list = [
        span("root", 0, 100),
        span("a", 10, 40, parent=0),
        span("b", 50, 90, parent=0),
        span("leaf", 20, 30, parent=1),
    ]
    assert spans.self_times(spans_list) == [30.0, 20.0, 40.0, 10.0]


def test_self_time_clips_and_merges_overlapping_children():
    spans_list = [
        span("root", 0, 100),
        span("a", 10, 60, parent=0),
        span("b", 40, 80, parent=0),  # overlaps a (another thread)
        span("c", 90, 120, parent=0),  # runs past the parent's end
    ]
    assert spans.self_times(spans_list)[0] == 100.0 - 70.0 - 10.0


def test_layer_table_adds_up_to_the_root():
    spans_list = [
        span(spans.ROOT_SPAN, 0, 1_000_000),
        span("sim.run_full", 0, 800_000, parent=0),
        span("sim.run_kernel", 100_000, 700_000, parent=1),
        span("sim.run_kernel", 200_000, 300_000, parent=2),  # nested, same name
        span("outside", 2_000_000, 3_000_000),
    ]
    table = spans.layer_table(spans_list, root=0)
    assert "outside" not in table
    assert table["sim.run_kernel"]["calls"] == 2
    assert table["sim.run_kernel"]["total_s"] == pytest.approx(0.6)
    assert sum(entry["self_s"] for entry in table.values()) == pytest.approx(1.0)
    metrics = spans.sweep_metrics([table])
    assert metrics["sim.run_full_self_s"] == pytest.approx(0.2)
    assert metrics["trace.unattributed_pct"] == pytest.approx(20.0)


def test_recorder_nests_and_adopts_request_ids():
    recorder = spans.Recorder()
    outer = recorder.open("service.submit")
    inner = recorder.open("service.cell_digest")
    recorder.close(inner)
    recorder.close(outer)
    other = recorder.open("unrelated")
    recorder.close(other)
    recorder.adopt(outer, "job-1")
    assert [s["request"] for s in recorder.spans] == ["job-1", "job-1", None]
    assert recorder.spans[inner]["parent"] == outer
    recorder.set_request("cell-a")
    tagged = recorder.open("sim.run_kernel")
    recorder.close(tagged)
    assert recorder.spans[tagged]["request"] == "cell-a"
