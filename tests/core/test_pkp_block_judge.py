"""Property: judging a block of windows equals judging them one at a time.

:meth:`IPCStabilityMonitor.observe_windows` computes a whole block's
rolling spreads as numpy columns and walks the quiet flags for the streak
and the wave rule.  Against :class:`tests._diff.ReferenceStabilityMonitor`
— the per-window ``observe`` it replaced — fed the same IPC stream one
sample at a time, every random split of the stream into blocks must stop
at the same window and leave the monitor in the same state: the rolling
window (bit for bit), the quiet streak, the windows judged and both stop
cycles.  The streams mix near-flat runs (so windows do go quiet and
kernels do stop) with signed zeros, infinities, NaNs, subnormals and
overflowing magnitudes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PKPConfig
from repro.core.pkp import IPCStabilityMonitor
from repro.sim.engine import WindowSample
from tests._diff import ReferenceStabilityMonitor, float_bits, monitor_state

_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-300, 1e308, -1e308]


# Near-flat levels: runs of these go quiet for s >= 0.25.
_FLAT = st.one_of(
    st.sampled_from([50.0, 50.25, 49.75, 50.5]),
    st.floats(min_value=49.0, max_value=51.0),
)
_WILD = st.one_of(
    _FLAT,
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=0.0, max_value=100.0),
)


@st.composite
def _streams(draw):
    width = draw(st.sampled_from([*range(2, 11), 130]))
    length = draw(st.integers(0, 3 * width + 40))
    # A flat stream stops often (at most one value poisoned, so the
    # 130-wide window still fills); a wild one exercises every special.
    flat = draw(st.booleans())
    ipcs = draw(st.lists(_FLAT if flat else _WILD, min_size=length, max_size=length))
    if flat and length and draw(st.booleans()):
        ipcs[draw(st.integers(0, length - 1))] = draw(st.sampled_from(_SPECIAL))
    steps = draw(st.lists(st.integers(0, 3), min_size=length, max_size=length))
    finished = [sum(steps[: index + 1]) for index in range(length)]
    cuts = draw(st.lists(st.integers(0, length), max_size=6))
    config = PKPConfig(
        stability_threshold=draw(st.sampled_from([0.025, 0.25, 2.5, 25.0])),
        rolling_window_cycles=width * 500.0,
        consecutive_windows=draw(st.integers(1, 4)),
        enforce_wave=draw(st.booleans()),
    )
    wave = draw(st.integers(1, 40))
    grid = draw(st.integers(1, 80))
    return config, wave, grid, ipcs, finished, sorted(set(cuts))


def _reference_stop(monitor, cycles, ipcs, finished):
    for index, (cycle, ipc, done) in enumerate(zip(cycles, ipcs, finished)):
        if monitor.observe(WindowSample(cycle, ipc, 0.0, 0.0, done)):
            return index
    return None


def _block_stop(monitor, cycles, ipcs, finished, cuts):
    bounds = [0, *cuts, len(ipcs)]
    for lo, hi in zip(bounds, bounds[1:]):
        stop = monitor.observe_windows(cycles[lo:hi], ipcs[lo:hi], finished[lo:hi])
        if stop is not None:
            return lo + stop
    return None


@given(_streams())
@settings(max_examples=300, deadline=None)
def test_block_judge_matches_per_window_reference(stream):
    config, wave, grid, ipcs, finished, cuts = stream
    assert config.rolling_samples == round(config.rolling_window_cycles / 500.0)
    cycles = [500.0 * (index + 1) for index in range(len(ipcs))]
    reference = ReferenceStabilityMonitor(wave, grid, config)
    monitor = IPCStabilityMonitor(wave, grid, config)

    expected = _reference_stop(reference, cycles, ipcs, finished)
    stop = _block_stop(monitor, cycles, ipcs, finished, cuts)

    assert stop == expected
    assert monitor_state(monitor) == monitor_state(reference)
    spread, expected_spread = monitor.relative_std(), reference.relative_std()
    assert (spread is None) == (expected_spread is None)
    if spread is not None:
        assert float_bits(spread) == float_bits(expected_spread)


@pytest.mark.parametrize("width", [6, 8, 9, 130])
@pytest.mark.parametrize("seed", range(12))
def test_long_flat_streams_stop_like_the_reference(width, seed):
    """Seeded streams long enough for a 130-sample window to fill and go
    quiet, with one poisoned window in half of them and random splits."""
    rng = np.random.default_rng(seed)
    length = 3 * width + 60
    ipcs = (50.0 + rng.normal(0.0, 0.3, length)).tolist()
    if seed % 2:
        ipcs[int(rng.integers(0, length))] = _SPECIAL[seed % len(_SPECIAL)]
    finished = np.cumsum(rng.integers(0, 3, length)).tolist()
    cuts = sorted(set(rng.integers(0, length, 5).tolist()))
    config = PKPConfig(
        rolling_window_cycles=width * 500.0,
        consecutive_windows=1 + seed % 4,
        enforce_wave=seed % 3 != 0,
    )
    cycles = [500.0 * (index + 1) for index in range(length)]
    reference = ReferenceStabilityMonitor(20, 100, config)
    monitor = IPCStabilityMonitor(20, 100, config)
    expected = _reference_stop(reference, cycles, ipcs, finished)
    assert expected is not None
    assert _block_stop(monitor, cycles, ipcs, finished, cuts) == expected
    assert monitor_state(monitor) == monitor_state(reference)


@given(_streams())
@settings(max_examples=100, deadline=None)
def test_observe_is_a_one_window_block(stream):
    """``observe`` is ``observe_windows`` on one window: same decisions."""
    config, wave, grid, ipcs, finished, _ = stream
    cycles = [500.0 * (index + 1) for index in range(len(ipcs))]
    reference = ReferenceStabilityMonitor(wave, grid, config)
    monitor = IPCStabilityMonitor(wave, grid, config)
    for cycle, ipc, done in zip(cycles, ipcs, finished):
        sample = WindowSample(cycle, ipc, 0.0, 0.0, done)
        stopped = monitor.observe(sample)
        assert stopped == reference.observe(sample)
        assert monitor_state(monitor) == monitor_state(reference)
        if stopped:
            break


def test_stops_do_happen():
    """The stream strategy is only meaningful if monitors do stop: a flat
    stream past the wave stops at the first eligible window."""
    config = PKPConfig(consecutive_windows=2)
    monitor = IPCStabilityMonitor(wave_size=4, grid_blocks=10, config=config)
    cycles = [500.0 * (index + 1) for index in range(20)]
    finished = [index // 2 for index in range(20)]
    stop = monitor.observe_windows(cycles, [50.0] * 20, finished)
    # Quiet from the first full window (index 5); the streak completes at
    # index 6; the wave (4 blocks) has retired by index 8.
    assert stop == 8
    assert monitor.stable_at_cycle == cycles[6]
    assert monitor.windows_observed == stop + 1
