"""Differential equivalence of the windowed (PKP) engine path.

The windowed event loop draws its noise and miss streams, and the wander
amplitudes, a block of windows at a time, and the PKP stability monitor
computes its rolling std/mean as columns of pairwise sums.  Both are pure
performance work: this suite runs the equivalence corpus through the hot
path and through ``tests._diff.reference_windowed_engine`` — one scalar
draw and one ``np.exp`` per window, one ``observe`` per sample and
``np.std / np.mean`` in the monitor — and requires bitwise-identical
results, window samples included, plus the same stop decisions and the
same rolling spread after every window.
Every per-window test collects the window series, so a single
reordered or re-rounded draw shows up as a sample mismatch.

The block-judge tests hand the engine the monitor object itself, so it
judges whole blocks of windows with ``observe_windows`` and rewinds to
the stopping window; the reference judges one sample per ``observe``.
"""

from __future__ import annotations

import pytest

from repro.core.config import PKPConfig
from repro.core.pkp import make_monitor, run_pkp
from repro.gpu import VOLTA_V100, KernelLaunch
from repro.sim import Simulator, simulate_kernel
from repro.sim.engine import DEFAULT_WINDOW_CYCLES
from repro.workloads.generator import compute_spec
from repro.obs import capture_tracer
from tests._diff import (
    ReferenceStabilityMonitor,
    assert_bitwise_equal,
    float_bits,
    monitor_state,
    reference_windowed_engine,
)
from tests.sim.test_equivalence import CORPUS, CORPUS_IDS


def _monitored_run(launch: KernelLaunch, config: PKPConfig):
    """Run under a PKP monitor, tracing its rolling spread every window."""
    monitor = make_monitor(launch, VOLTA_V100, config)
    spreads: list[str | None] = []

    def observe(sample) -> bool:
        stop = monitor.observe(sample)
        spread = monitor.relative_std()
        spreads.append(None if spread is None else float_bits(spread))
        return stop

    result = simulate_kernel(
        launch,
        VOLTA_V100,
        monitor=observe,
        collect_series=True,
        window_cycles=config.window_cycles,
    )
    return result, monitor, spreads


def _assert_same_pkp_run(launch: KernelLaunch, config: PKPConfig, label: str):
    result, monitor, spreads = _monitored_run(launch, config)
    with reference_windowed_engine():
        expected, expected_monitor, expected_spreads = _monitored_run(
            launch, config
        )
    assert_bitwise_equal(result, expected, label)
    assert spreads == expected_spreads
    assert result.stopped_early == expected.stopped_early
    assert result.blocks_finished == expected.blocks_finished
    assert monitor.stop_cycle == expected_monitor.stop_cycle
    assert monitor.stable_at_cycle == expected_monitor.stable_at_cycle
    assert monitor.windows_observed == expected_monitor.windows_observed


@pytest.mark.parametrize(("label", "launch"), CORPUS, ids=CORPUS_IDS)
def test_pkp_default_config_matches_reference(label, launch):
    _assert_same_pkp_run(launch, PKPConfig(), label)


@pytest.mark.parametrize("samples", [8, 9, 130])
@pytest.mark.parametrize(("label", "launch"), CORPUS, ids=CORPUS_IDS)
def test_pkp_rolling_window_widths_match_reference(label, launch, samples):
    """8 and 9 samples take numpy's eight-accumulator block (without and
    with a leftover tail); 130 takes its recursive halving."""
    config = PKPConfig(rolling_window_cycles=samples * DEFAULT_WINDOW_CYCLES)
    assert config.rolling_samples == samples
    _assert_same_pkp_run(launch, config, f"{label}@{samples}")


@pytest.mark.parametrize(("label", "launch"), CORPUS, ids=CORPUS_IDS)
def test_collected_series_matches_reference(label, launch):
    result = simulate_kernel(launch, VOLTA_V100, collect_series=True)
    with reference_windowed_engine():
        expected = simulate_kernel(launch, VOLTA_V100, collect_series=True)
    assert_bitwise_equal(result, expected, label)


def test_quiet_kernel_takes_no_noise_draw():
    """A ``duration_cv=0`` kernel draws only the wander stream; its
    windows must still line up draw for draw with the reference."""
    spec = compute_spec("eq_quiet", duration_cv=0.0, phase_drift=0.1)
    launch = KernelLaunch(spec=spec, grid_blocks=16_000, launch_id=0)
    result = simulate_kernel(launch, VOLTA_V100, collect_series=True)
    # Long enough to cross several draw blocks.
    assert len(result.samples) > 600
    with reference_windowed_engine():
        expected = simulate_kernel(launch, VOLTA_V100, collect_series=True)
    assert_bitwise_equal(result, expected, "quiet")
    _assert_same_pkp_run(launch, PKPConfig(), "quiet-pkp")


def test_run_pkp_projection_matches_reference():
    """End to end through the simulator (with its modeling bias): the
    projection, and the spread it reports at the stop, agree bitwise."""
    launch = dict(CORPUS)["drift_and_cold"]
    projection = run_pkp(Simulator(VOLTA_V100), launch)
    with reference_windowed_engine():
        expected = run_pkp(Simulator(VOLTA_V100), launch)
    assert projection.stopped_early
    assert_bitwise_equal(projection.result, expected.result, "result")
    assert projection == expected


def _block_judged_run(launch: KernelLaunch, config: PKPConfig, collect_series: bool):
    monitor = make_monitor(launch, VOLTA_V100, config)
    result = simulate_kernel(
        launch,
        VOLTA_V100,
        monitor=monitor,
        collect_series=collect_series,
        window_cycles=config.window_cycles,
    )
    return result, monitor


@pytest.mark.parametrize("collect_series", [False, True], ids=["bare", "series"])
@pytest.mark.parametrize("samples", [6, 8, 9, 130])
@pytest.mark.parametrize(("label", "launch"), CORPUS, ids=CORPUS_IDS)
def test_block_judge_matches_reference(label, launch, samples, collect_series):
    config = PKPConfig(rolling_window_cycles=samples * DEFAULT_WINDOW_CYCLES)
    result, monitor = _block_judged_run(launch, config, collect_series)
    with reference_windowed_engine():
        expected, expected_monitor = _block_judged_run(launch, config, collect_series)
    assert_bitwise_equal(result, expected, f"{label}@{samples}")
    assert monitor_state(monitor) == monitor_state(expected_monitor)
    # The windows simulated past the stop while the block was judged
    # never show: the run ends at the stopping window, and only windows
    # up to it were judged.
    if result.stopped_early:
        assert result.cycles == monitor.stop_cycle
        assert monitor.windows_observed * config.window_cycles == result.cycles
    if collect_series:
        assert len(result.samples) == monitor.windows_observed
        if result.stopped_early:
            assert result.samples[-1].cycle == monitor.stop_cycle
    else:
        assert result.samples == ()


def test_reference_monitor_is_judged_one_window_at_a_time():
    """The reference monitor passed to the hot engine is handed every
    sample through its own ``observe`` (it does not inherit the block
    judge), and agrees with the block-judged run."""

    class CountingReference(ReferenceStabilityMonitor):
        calls = 0

        def observe(self, sample) -> bool:
            self.calls += 1
            return super().observe(sample)

    launch = dict(CORPUS)["drift_and_cold"]
    reference = CountingReference(
        make_monitor(launch, VOLTA_V100).wave_size, launch.grid_blocks
    )
    expected = simulate_kernel(launch, VOLTA_V100, monitor=reference)
    result, monitor = _block_judged_run(launch, PKPConfig(), False)
    assert expected.stopped_early
    assert reference.calls == reference.windows_observed > 0
    assert_bitwise_equal(result, expected, "drift_and_cold")
    assert monitor_state(monitor) == monitor_state(reference)


def test_block_judge_corpus_stops_and_runs_to_completion():
    """The corpus exercises both outcomes of the block judge."""
    outcomes = {
        _block_judged_run(launch, PKPConfig(), False)[0].stopped_early
        for _, launch in CORPUS
    }
    assert outcomes == {False, True}


@pytest.mark.parametrize("label", ["drift_and_cold", "irregular", "chunk_crossing"])
def test_run_pkp_counts_judged_windows(label):
    """``run_pkp`` through the block judge: the projection is bitwise the
    reference's and ``pkp.windows_observed`` counts judged windows, not
    the ones simulated ahead of the judge."""
    launch = dict(CORPUS)[label]
    with capture_tracer() as tracer:
        projection = run_pkp(Simulator(VOLTA_V100), launch)
    with reference_windowed_engine(), capture_tracer() as expected_tracer:
        expected = run_pkp(Simulator(VOLTA_V100), launch)
    assert projection == expected
    observed = tracer.counters["pkp.windows_observed"]
    assert observed == expected_tracer.counters["pkp.windows_observed"]
    if projection.stopped_early:
        assert observed * DEFAULT_WINDOW_CYCLES == projection.result.cycles
