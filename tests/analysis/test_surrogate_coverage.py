"""Differential tests for the surrogate's coverage-first estimate.

The learned tier checks that every query group lies within
``coverage_radius`` of a training row before it reads the out-of-fold
error, so an uncovered query never fits a model.  The fit is
deterministic and depends only on the rows, so the estimate must equal
the fit-first estimate it replaced
(:func:`tests._diff.reference_surrogate_estimate`) bit for bit:
``(bound, cycles)`` or None, through row additions and merges, with a
group exactly at the radius counted as covered.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import EvaluationHarness
from repro.mlkit import SGDRegressor
from repro.predict import PredictConfig
from repro.predict.analytical import AppEstimate, GroupEstimate
from repro.predict.surrogate import CycleSurrogate
from repro.predict.tiers import PredictTiers

from tests._diff import ReferenceCycleSurrogate, float_bits, reference_surrogate_estimate

MIN_ROWS = 4
#: Base counter vectors; rows and queries scatter around them, so near
#: (covered) and far (uncovered) groups both occur.
_BASES = [
    tuple(float(base * (k + 1)) for k in range(12)) for base in (2.0, 90.0, 3e4, 8e6)
]

_COUNTERS = st.builds(
    lambda base, scale: tuple(v * scale for v in _BASES[base]),
    st.integers(0, len(_BASES) - 1),
    st.sampled_from((1.0, 1.02, 1.1, 1.3, 2.0)),
)
_ROWS = st.lists(
    st.tuples(_COUNTERS, st.floats(-0.5, 0.5, allow_nan=False)), min_size=1, max_size=8
)


def _estimate(groups: list[tuple[tuple[float, ...], float, int]]) -> AppEstimate:
    return AppEstimate(
        total_cycles=0.0,
        total_instructions=0.0,
        total_dram_bytes=0.0,
        groups=tuple(
            GroupEstimate(
                signature=k,
                grid_blocks=1,
                bucket=0,
                count=count,
                cycles=cycles,
                warp_instructions=1.0,
                dram_bytes=0.0,
                counters=counters,
            )
            for k, (counters, cycles, count) in enumerate(groups)
        ),
    )


_GROUPS = st.lists(
    st.tuples(_COUNTERS, st.floats(10.0, 1e6), st.integers(1, 5)),
    min_size=1,
    max_size=4,
)


def _bits(result):
    return None if result is None else tuple(float_bits(v) for v in result)


def _both(config: PredictConfig, surrogate, reference, estimate):
    tiers = SimpleNamespace(config=config)
    return (
        PredictTiers._surrogate_estimate(
            tiers, SimpleNamespace(surrogate=surrogate), estimate
        ),
        reference_surrogate_estimate(
            tiers, SimpleNamespace(surrogate=reference), estimate
        ),
    )


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(
        st.tuples(_ROWS, st.booleans()), min_size=1, max_size=3
    ),
    groups=_GROUPS,
    at_radius=st.booleans(),
)
def test_matches_the_fit_first_estimate(batches, groups, at_radius):
    """After each batch of rows (added one by one, or merged from another
    process's state), the estimate equals the reference bit for bit.
    With ``at_radius`` the radius is the farthest group's distance
    exactly, which must count as covered."""
    surrogate = CycleSurrogate(max_rows=12, min_rows=MIN_ROWS)
    reference = ReferenceCycleSurrogate(max_rows=12, min_rows=MIN_ROWS)
    estimate = _estimate(groups)
    for rows, merged in batches:
        for target in (surrogate, reference):
            if merged:
                other = CycleSurrogate(max_rows=12, min_rows=MIN_ROWS)
                for counters, residual in rows:
                    other.add_row(counters, residual)
                target.merge(other)
            else:
                for counters, residual in rows:
                    target.add_row(counters, residual)
        config = PredictConfig()
        if at_radius and surrogate.trained:
            radius = max(surrogate.distance(g.counters) for g in estimate.groups)
            if radius > 0:
                config = PredictConfig(coverage_radius=radius)
        ours, theirs = _both(config, surrogate, reference, estimate)
        assert _bits(ours) == _bits(theirs)
        if at_radius and config.coverage_radius != PredictConfig().coverage_radius:
            assert ours is not None


@pytest.fixture
def fit_calls(monkeypatch):
    """One entry per ``SGDRegressor.fit`` call made during the test."""
    calls = []
    fit = SGDRegressor.fit

    def counting(self, features, targets):
        calls.append(self)
        return fit(self, features, targets)

    monkeypatch.setattr(SGDRegressor, "fit", counting)
    return calls


def _trained(rows: int = 12) -> CycleSurrogate:
    surrogate = CycleSurrogate(min_rows=MIN_ROWS)
    for n in range(rows):
        surrogate.add_row(_BASES[n % 2], 0.01 * n)
    return surrogate


def test_uncovered_query_fits_nothing(fit_calls):
    surrogate = _trained()
    far = _estimate([(_BASES[3], 100.0, 1)])
    near = _estimate([(_BASES[0], 100.0, 1)])
    config = SimpleNamespace(config=PredictConfig())
    partition = SimpleNamespace(surrogate=surrogate)
    assert PredictTiers._surrogate_estimate(config, partition, far) is None
    assert fit_calls == []
    # A covered query fits once (4 out-of-fold models and the full one),
    # and the next covered query reuses that fit.
    assert PredictTiers._surrogate_estimate(config, partition, near) is not None
    assert len(fit_calls) == 5
    assert PredictTiers._surrogate_estimate(config, partition, near) is not None
    assert len(fit_calls) == 5
    # A new row makes the next covered query refit; an uncovered one still
    # does not.
    surrogate.add_row(_BASES[1], 0.2)
    assert PredictTiers._surrogate_estimate(config, partition, far) is None
    assert len(fit_calls) == 5


def test_distance_never_fits(fit_calls):
    surrogate = _trained()
    assert surrogate.distance(_BASES[0]) == 0.0
    assert surrogate.distance(_BASES[3]) > PredictConfig().coverage_radius
    assert fit_calls == []
    assert CycleSurrogate(min_rows=MIN_ROWS).distance(_BASES[0]) is None


#: The 40 donor workloads of the ``serve-mix`` benchmark's donor seeding.
DONORS = (
    "db_gemm_inf_tc_1", "dwt2d_192", "db_rnn_inf_tc_0", "lud_256",
    "db_rnn_train_fp32_3", "bfs1MW", "lavaMD", "db_rnn_train_tc_3",
    "db_conv_inf_fp32_1", "db_conv_train_tc_1", "2mm", "db_conv_inf_fp32_4",
    "syr2k", "3mm", "bicg", "db_gemm_train_tc_1", "db_rnn_inf_fp32_6",
    "db_rnn_inf_tc_7", "db_rnn_inf_tc_5", "cutlass_sgemm_4096x4096x4096",
    "db_rnn_train_fp32_1", "atax", "kmeans_28k", "cutlass_sgemm_7680x1024x2560",
    "db_gemm_train_tc_2", "parboil_stencil", "db_conv_inf_fp32_2",
    "db_rnn_train_tc_0", "cutlass_sgemm_2560x1024x2560", "srad_v1", "hstort_r",
    "cutlass_wgemm_2560x512x2560", "hots_512", "db_gemm_inf_tc_3", "nn",
    "db_rnn_inf_tc_3", "cutlass_sgemm_5124x700x2560",
    "cutlass_wgemm_5124x700x2560", "gauss_208", "db_gemm_train_fp32_2",
)


def test_donor_seeding_keeps_the_ledger(fit_calls):
    """Donor seeding's full-sim cells through an observe-only predict
    tier: every lookup escalates for the same reasons as when the
    surrogate fit before checking coverage (3 cold, 37 bound), but only
    the 11 covered consults fit (5 models each), not all 38 trained
    ones."""
    harness = EvaluationHarness(
        backend="serial", predict=PredictConfig(max_error_bound=1e-9)
    )
    harness.evaluate_cells([(w, "full_sim", "volta") for w in DONORS])
    snapshot = harness.predict.snapshot()
    assert snapshot["lookups"] == 40
    assert snapshot["escalations_cold"] == 3
    assert snapshot["escalations_bound"] == 37
    assert snapshot["escalations_coverage"] == 0
    assert snapshot["training_rows"] == 139
    assert len(fit_calls) == 11 * 5
