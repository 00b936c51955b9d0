"""Tests for the shared input-validation layer (repro.core.validation)."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.validation import (
    VALIDATION_MODES,
    ValidationIssue,
    ValidationReport,
    apply_mode,
    compose,
    counter_matrix_issues,
    finite_issue,
    launch_issues,
    range_issue,
    resolve_mode,
    sanitize_counter_matrix,
    sanitize_launches,
    sanitize_profiles,
    validate_gpu_config,
)
from repro.errors import InputValidationError
from repro.gpu import VOLTA_V100, InstructionMix, KernelLaunch, KernelSpec
from repro.profiling.detailed import DetailedProfile, FEATURE_NAMES


def _launch(launch_id: int = 0, **spec_overrides) -> KernelLaunch:
    mix = spec_overrides.pop(
        "mix", InstructionMix(fp_ops=100.0, int_ops=50.0, global_loads=10.0)
    )
    spec = KernelSpec(
        name="k",
        threads_per_block=128,
        regs_per_thread=32,
        shared_mem_per_block=0,
        mix=mix,
        **spec_overrides,
    )
    return KernelLaunch(spec=spec, grid_blocks=64, launch_id=launch_id)


def _profile(launch_id: int, counters, cycles: float) -> DetailedProfile:
    return DetailedProfile(
        launch_id=launch_id,
        kernel_name=f"k{launch_id}",
        counters=tuple(counters),
        cycles=cycles,
    )


class TestModes:
    def test_resolve_mode_normalises_case(self):
        assert resolve_mode("STRICT") == "strict"
        assert resolve_mode("Lenient") == "lenient"

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="validation mode"):
            resolve_mode("permissive")

    def test_modes_constant(self):
        assert VALIDATION_MODES == ("strict", "lenient")


class TestIssuePrimitives:
    def test_finite_issue_flags_nan_and_inf(self):
        assert finite_issue("s", "c", "x", 1.0) is None
        assert finite_issue("s", "c", "x", float("nan")) is not None
        assert finite_issue("s", "c", "x", float("inf")) is not None

    def test_range_issue_bounds(self):
        assert range_issue("s", "c", "x", 0.5, minimum=0.0, maximum=1.0) is None
        assert range_issue("s", "c", "x", -0.1, minimum=0.0) is not None
        assert range_issue("s", "c", "x", 1.1, maximum=1.0) is not None
        # Non-finite dominates the range verdict.
        assert range_issue("s", "c", "x", float("nan"), minimum=0.0) is not None

    def test_compose_concatenates(self):
        first = lambda obj: [ValidationIssue("s", "a", "one")]  # noqa: E731
        second = lambda obj: [ValidationIssue("s", "b", "two")]  # noqa: E731
        issues = compose(first, second)(object())
        assert [issue.check for issue in issues] == ["a", "b"]

    def test_workload_alias(self):
        issue = ValidationIssue("myapp", "check", "detail")
        assert issue.workload == "myapp"


class TestReport:
    def test_ok_ignores_warnings(self):
        report = ValidationReport(
            checked=1,
            issues=(ValidationIssue("s", "c", "d", severity="warning"),),
        )
        assert report.ok
        assert report.warnings and not report.errors

    def test_errors_break_ok(self):
        report = ValidationReport(
            checked=1, issues=(ValidationIssue("s", "c", "d"),)
        )
        assert not report.ok
        assert report.workloads_checked == 1

    def test_issues_for_filters_by_source(self):
        report = ValidationReport(
            checked=2,
            issues=(
                ValidationIssue("a", "c", "d"),
                ValidationIssue("b", "c", "d"),
            ),
        )
        assert len(report.issues_for("a")) == 1


class TestApplyMode:
    def test_strict_raises_with_issue_payload(self):
        issues = [ValidationIssue("s", "c", "d")]
        with pytest.raises(InputValidationError) as excinfo:
            apply_mode(issues, "strict", context="s")
        assert excinfo.value.issues == tuple(issues)

    def test_strict_passes_warnings(self):
        issues = [ValidationIssue("s", "c", "d", severity="warning")]
        assert apply_mode(issues, "strict", context="s") == issues

    def test_lenient_returns_issues(self):
        issues = [ValidationIssue("s", "c", "d")]
        assert apply_mode(issues, "lenient", context="s") == issues


class TestGPUConfigValidation:
    def test_clean_config_has_no_issues(self):
        assert validate_gpu_config(VOLTA_V100) == []

    def test_non_finite_field_is_flagged(self):
        import dataclasses

        # GPUConfig.__post_init__ rejects non-finite fields outright, so
        # validate_gpu_config is exercised via a stand-in dataclass.
        @dataclasses.dataclass(frozen=True)
        class Stub:
            name: str = "stub"
            core_clock_ghz: float = float("nan")
            num_sms: int = 80
            dram_bandwidth_gbps: float = -1.0

        issues = validate_gpu_config(Stub())
        assert any(issue.check == "gpu_finite" for issue in issues)
        assert any(issue.check == "gpu_positive" for issue in issues)


class TestLaunchValidation:
    def test_clean_launches_have_no_issues(self):
        assert launch_issues("app", [_launch(0), _launch(1)]) == []

    def test_nan_mix_field_is_flagged(self):
        poisoned = _launch(0, mix=InstructionMix(fp_ops=float("nan"), int_ops=5.0))
        issues = launch_issues("app", [poisoned])
        assert issues and all(issue.severity == "error" for issue in issues)
        assert "mix.fp_ops" in issues[0].detail

    def test_nan_spec_field_is_flagged(self):
        poisoned = _launch(0, duration_cv=float("nan"))
        issues = launch_issues("app", [poisoned])
        assert any("duration_cv" in issue.detail for issue in issues)

    def test_shared_non_finite_spec_reports_every_launch(self):
        """Launches sharing one poisoned spec are each reported, in launch
        order, with the same text as a per-launch check."""
        poisoned = _launch(
            0,
            duration_cv=float("nan"),
            phase_drift=float("inf"),
            mix=InstructionMix(
                fp_ops=float("nan"), int_ops=5.0, global_loads=float("inf")
            ),
        )
        clean = _launch(1)
        launches = [
            poisoned,
            clean,
            dataclasses.replace(poisoned, launch_id=2),
            dataclasses.replace(clean, launch_id=3),
            dataclasses.replace(poisoned, launch_id=7, grid_blocks=8),
        ]
        details = [
            f"launch {launch_id} (k).{field} is non-finite ({value})"
            for launch_id in (0, 2, 7)
            for field, value in (
                ("duration_cv", "nan"),
                ("phase_drift", "inf"),
                ("mix.fp_ops", "nan"),
                ("mix.global_loads", "inf"),
            )
        ]
        expected = [ValidationIssue("app", "launch_finite", d) for d in details]
        assert launch_issues("app", launches) == expected
        # A one-shot iterator sees the same issues.
        assert launch_issues("app", iter(launches)) == expected

    def test_strict_sanitize_raises(self):
        poisoned = _launch(0, mix=InstructionMix(fp_ops=float("nan"), int_ops=5.0))
        with pytest.raises(InputValidationError):
            sanitize_launches("app", [poisoned], "strict")

    def test_strict_passes_clean_launches_through(self):
        launches = [_launch(0), _launch(1)]
        cleaned, issues = sanitize_launches("app", launches, "strict")
        assert cleaned == launches and issues == []

    def test_lenient_repairs_mix_and_records_provenance(self):
        poisoned = _launch(0, mix=InstructionMix(fp_ops=float("nan"), int_ops=5.0))
        cleaned, issues = sanitize_launches("app", [poisoned], "lenient")
        assert cleaned[0].spec.mix.fp_ops == 0.0
        assert cleaned[0].spec.mix.int_ops == 5.0
        assert issues and all(issue.severity == "warning" for issue in issues)
        assert "nan" in issues[0].detail

    def test_lenient_repairs_spec_field_with_schema_default(self):
        poisoned = _launch(0, duration_cv=float("nan"))
        cleaned, issues = sanitize_launches("app", [poisoned], "lenient")
        assert math.isfinite(cleaned[0].spec.duration_cv)
        assert any("duration_cv" in issue.detail for issue in issues)

    def test_lenient_empty_sanitized_mix_gets_minimal_work(self):
        poisoned = _launch(0, mix=InstructionMix(fp_ops=float("nan")))
        cleaned, issues = sanitize_launches("app", [poisoned], "lenient")
        assert sum(cleaned[0].spec.mix.__dict__.values()) > 0
        assert any("imputed" in issue.detail for issue in issues)

    def test_lenient_leaves_clean_launches_untouched(self):
        launches = [_launch(0), _launch(1)]
        cleaned, issues = sanitize_launches("app", launches, "lenient")
        assert cleaned == launches and issues == []


class TestCounterMatrixValidation:
    def test_clean_matrix_has_no_issues(self):
        matrix = np.ones((3, 4))
        assert counter_matrix_issues("app", matrix) == []
        repaired, notes = sanitize_counter_matrix("app", matrix, mode="lenient")
        assert notes == [] and np.array_equal(repaired, matrix)

    def test_strict_raises_on_nan(self):
        matrix = np.ones((3, 4))
        matrix[1, 2] = float("nan")
        with pytest.raises(InputValidationError):
            sanitize_counter_matrix("app", matrix, mode="strict")

    def test_lenient_imputes_column_median(self):
        matrix = np.asarray([[1.0, 10.0], [3.0, float("nan")], [5.0, 30.0]])
        repaired, notes = sanitize_counter_matrix("app", matrix, mode="lenient")
        assert repaired[1, 1] == pytest.approx(20.0)
        assert notes and notes[0].severity == "warning"

    def test_lenient_all_nan_column_falls_back_to_zero(self):
        matrix = np.asarray([[1.0, float("nan")], [2.0, float("inf")]])
        repaired, _ = sanitize_counter_matrix("app", matrix, mode="lenient")
        assert np.array_equal(repaired[:, 1], [0.0, 0.0])

    def test_issue_uses_counter_names(self):
        matrix = np.ones((1, len(FEATURE_NAMES)))
        matrix[0, 0] = float("nan")
        issues = counter_matrix_issues("app", matrix, FEATURE_NAMES)
        assert FEATURE_NAMES[0] in issues[0].detail


class TestProfileSanitization:
    def _profiles(self, poison_cycles: bool = False, poison_counter: bool = False):
        base = [1.0] * len(FEATURE_NAMES)
        bad = list(base)
        if poison_counter:
            bad[0] = float("nan")
        return [
            _profile(0, base, 100.0),
            _profile(1, bad, float("nan") if poison_cycles else 110.0),
            _profile(2, base, 120.0),
        ]

    def test_clean_profiles_pass_unchanged(self):
        profiles = self._profiles()
        cleaned, issues = sanitize_profiles("app", profiles, "strict")
        assert cleaned == profiles and issues == []

    def test_strict_rejects_nan_counter(self):
        with pytest.raises(InputValidationError):
            sanitize_profiles("app", self._profiles(poison_counter=True), "strict")

    def test_strict_rejects_nan_cycles(self):
        with pytest.raises(InputValidationError):
            sanitize_profiles("app", self._profiles(poison_cycles=True), "strict")

    def test_lenient_imputes_cycles_with_finite_median(self):
        cleaned, issues = sanitize_profiles(
            "app", self._profiles(poison_cycles=True), "lenient"
        )
        assert cleaned[1].cycles == pytest.approx(110.0)
        assert any(issue.check == "sanitized_cycles" for issue in issues)

    def test_lenient_imputes_counters(self):
        cleaned, issues = sanitize_profiles(
            "app", self._profiles(poison_counter=True), "lenient"
        )
        assert all(math.isfinite(v) for v in cleaned[1].counters)
        assert any(issue.check == "sanitized_counter" for issue in issues)

    def test_empty_profile_list_is_noop(self):
        assert sanitize_profiles("app", [], "strict") == ([], [])


class TestErrorTypes:
    def test_input_validation_error_is_value_error(self):
        # Callers that predate the validation layer catch ValueError.
        assert issubclass(InputValidationError, ValueError)

    def test_issues_attribute_defaults_empty(self):
        assert InputValidationError("boom").issues == ()
