"""Differential equivalence of the windowed (PKP) engine path.

The windowed event loop draws its noise and miss streams, and the wander
amplitudes, a block of windows at a time, and the PKP stability monitor
computes its rolling std/mean in pure Python.  Both are pure performance
work: this suite runs the equivalence corpus through the hot path and
through ``tests._diff.reference_windowed_engine`` — one scalar draw and
one ``np.exp`` per window, ``np.std / np.mean`` in the monitor — and
requires bitwise-identical results, window samples included, plus the
same stop decisions and the same rolling spread after every window.
Every test collects the window series, so a single reordered or
re-rounded draw shows up as a sample mismatch.
"""

from __future__ import annotations

import pytest

from repro.core.config import PKPConfig
from repro.core.pkp import make_monitor, run_pkp
from repro.gpu import VOLTA_V100, KernelLaunch
from repro.sim import Simulator, simulate_kernel
from repro.sim.engine import DEFAULT_WINDOW_CYCLES
from repro.workloads.generator import compute_spec
from tests._diff import assert_bitwise_equal, float_bits, reference_windowed_engine
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
