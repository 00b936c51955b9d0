"""Shared input-validation layer: composable checks, strict/lenient modes.

Every ingestion boundary of the library — GPU/arch configuration, workload
and corpus specs, trace records, profiler counter vectors — funnels its
checks through this module so workload-side and core-side validation cannot
drift apart.  Checks produce structured :class:`ValidationIssue` records
instead of ad-hoc exceptions; a *mode* then decides what happens to them:

``strict``
    Any error-severity issue raises :class:`~repro.errors.InputValidationError`
    carrying the full issue list.

``lenient``
    Inputs are sanitized in place of rejection — non-finite kernel-spec
    fields are replaced by their schema defaults, non-finite counters are
    imputed from the finite values of the same column — and every repair is
    recorded as a warning-severity issue whose ``detail`` notes the original
    value (the provenance note).

The issue model is intentionally tiny and serializable: ``source`` names
the object being validated (a workload, a trace file, a config), ``check``
names the violated invariant, ``detail`` is human-readable context.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.errors import InputValidationError

__all__ = [
    "VALIDATION_MODES",
    "ValidationIssue",
    "ValidationReport",
    "compose",
    "resolve_mode",
    "finite_issue",
    "range_issue",
    "apply_mode",
    "validate_gpu_config",
    "launch_issues",
    "sanitize_launches",
    "counter_matrix_issues",
    "sanitize_counter_matrix",
    "sanitize_profiles",
]

#: The two validation behaviours threaded through the pipeline and the CLI.
VALIDATION_MODES: tuple[str, ...] = ("strict", "lenient")


def resolve_mode(mode: str) -> str:
    """Normalise and validate a validation-mode string."""
    resolved = str(mode).lower()
    if resolved not in VALIDATION_MODES:
        raise ValueError(
            f"validation mode must be one of {VALIDATION_MODES}, got {mode!r}"
        )
    return resolved


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant (or one lenient-mode repair) in one input.

    ``severity`` is ``"error"`` for violations that strict mode rejects and
    ``"warning"`` for lenient-mode repairs and advisory findings.
    """

    source: str
    check: str
    detail: str
    severity: str = "error"

    @property
    def workload(self) -> str:
        """Alias kept for the corpus-validation callers, where the source
        of every issue is a workload name."""
        return self.source

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.severity}] {self.source}: {self.check}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    """Aggregate outcome of validating a set of inputs."""

    checked: int
    issues: tuple[ValidationIssue, ...] = field(default_factory=tuple)

    @property
    def workloads_checked(self) -> int:
        """Alias kept for the corpus-validation callers."""
        return self.checked

    @property
    def errors(self) -> tuple[ValidationIssue, ...]:
        return tuple(issue for issue in self.issues if issue.severity == "error")

    @property
    def warnings(self) -> tuple[ValidationIssue, ...]:
        return tuple(issue for issue in self.issues if issue.severity == "warning")

    @property
    def ok(self) -> bool:
        """True when no error-severity issue was found (warnings allowed)."""
        return not self.errors

    def issues_for(self, source: str) -> list[ValidationIssue]:
        return [issue for issue in self.issues if issue.source == source]


Validator = Callable[[object], list[ValidationIssue]]


def compose(*validators: Validator) -> Validator:
    """Chain validators into one that concatenates their issue lists."""

    def run(obj: object) -> list[ValidationIssue]:
        issues: list[ValidationIssue] = []
        for validator in validators:
            issues.extend(validator(obj))
        return issues

    return run


def finite_issue(
    source: str, check: str, name: str, value: float
) -> ValidationIssue | None:
    """An error issue when ``value`` is NaN or infinite, else None."""
    if _is_finite(value):
        return None
    return ValidationIssue(source, check, f"{name} is non-finite ({value!r})")


def _is_finite(value: object) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def range_issue(
    source: str,
    check: str,
    name: str,
    value: float,
    *,
    minimum: float | None = None,
    maximum: float | None = None,
) -> ValidationIssue | None:
    """An error issue when ``value`` is non-finite or outside the range."""
    bad = finite_issue(source, check, name, value)
    if bad is not None:
        return bad
    if minimum is not None and value < minimum:
        return ValidationIssue(source, check, f"{name}={value!r} is below {minimum}")
    if maximum is not None and value > maximum:
        return ValidationIssue(source, check, f"{name}={value!r} is above {maximum}")
    return None


def apply_mode(
    issues: Sequence[ValidationIssue], mode: str, *, context: str
) -> list[ValidationIssue]:
    """Enforce ``mode`` on a list of issues.

    In strict mode any error-severity issue raises
    :class:`InputValidationError`; in lenient mode the issues are returned
    unchanged for the caller to record as diagnostics.
    """
    mode = resolve_mode(mode)
    errors = [issue for issue in issues if issue.severity == "error"]
    if mode == "strict" and errors:
        head = "; ".join(str(issue) for issue in errors[:3])
        raise InputValidationError(
            f"{context}: {len(errors)} validation error(s): {head}",
            issues=tuple(issues),
        )
    return list(issues)


# ---------------------------------------------------------------------------
# GPU / architecture configuration
# ---------------------------------------------------------------------------


def validate_gpu_config(gpu) -> list[ValidationIssue]:
    """Finiteness + positivity checks over every numeric GPUConfig field."""
    issues: list[ValidationIssue] = []
    source = f"gpu:{getattr(gpu, 'name', '?')}"
    for spec_field in fields(gpu):
        value = getattr(gpu, spec_field.name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        bad = finite_issue(source, "gpu_finite", spec_field.name, float(value))
        if bad is not None:
            issues.append(bad)
        elif value <= 0:
            issues.append(
                ValidationIssue(
                    source, "gpu_positive", f"{spec_field.name}={value!r} must be > 0"
                )
            )
    return issues


# ---------------------------------------------------------------------------
# Kernel launches (workload builds + trace records)
# ---------------------------------------------------------------------------

# KernelSpec float fields that its __post_init__ cannot catch when the value
# is NaN (NaN fails every comparison, so range checks pass vacuously).
_SPEC_FLOAT_FIELDS = (
    "divergence_efficiency",
    "sectors_per_global_access",
    "l2_locality",
    "working_set_bytes",
    "duration_cv",
    "phase_drift",
    "cold_start_factor",
)


def _spec_defaults() -> dict[str, float]:
    from repro.gpu.kernels import KernelSpec

    return {
        spec_field.name: spec_field.default
        for spec_field in fields(KernelSpec)
        if spec_field.name in _SPEC_FLOAT_FIELDS
    }


def _non_finite_fields(spec) -> list[tuple[str, object]]:
    """``(field, value)`` of every spec and mix field ``finite_issue`` flags."""
    named = [(name, getattr(spec, name)) for name in _SPEC_FLOAT_FIELDS]
    named += [(f"mix.{name}", value) for name, value in spec.mix.__dict__.items()]
    return [(name, value) for name, value in named if not _is_finite(value)]


def launch_issues(source: str, launches: Iterable) -> list[ValidationIssue]:
    """Finiteness checks over the spec + mix fields of every launch.

    Launches of one kernel share a spec object, so each distinct spec is
    checked once; a launch's messages are built only when its spec fails.
    """
    issues: list[ValidationIssue] = []
    # id(spec) -> (spec, its non-finite fields); holding the spec keeps
    # its id from being reused while ``launches`` is consumed lazily.
    checked: dict[int, tuple[object, list[tuple[str, object]]]] = {}
    for launch in launches:
        spec = launch.spec
        entry = checked.get(id(spec))
        if entry is None:
            entry = checked[id(spec)] = (spec, _non_finite_fields(spec))
        bad_fields = entry[1]
        if not bad_fields:
            continue
        where = f"launch {launch.launch_id} ({spec.name})"
        for name, value in bad_fields:
            issues.append(
                finite_issue(source, "launch_finite", f"{where}.{name}", value)
            )
    return issues


def _sanitize_one_launch(source: str, launch) -> tuple[object, list[ValidationIssue]]:
    from repro.gpu.kernels import InstructionMix

    spec = launch.spec
    where = f"launch {launch.launch_id} ({spec.name})"
    issues: list[ValidationIssue] = []
    spec_patch: dict[str, float] = {}
    defaults = _spec_defaults()
    for name in _SPEC_FLOAT_FIELDS:
        value = getattr(spec, name)
        if not math.isfinite(value):
            spec_patch[name] = defaults[name]
            issues.append(
                ValidationIssue(
                    source,
                    "sanitized_launch",
                    f"{where}.{name}: non-finite {value!r} replaced by "
                    f"default {defaults[name]!r}",
                    severity="warning",
                )
            )

    mix_patch: dict[str, float] = {}
    for name, value in spec.mix.__dict__.items():
        if not math.isfinite(value):
            mix_patch[name] = 0.0
            issues.append(
                ValidationIssue(
                    source,
                    "sanitized_launch",
                    f"{where}.mix.{name}: non-finite {value!r} replaced by 0.0",
                    severity="warning",
                )
            )
    if mix_patch:
        counts = dict(spec.mix.__dict__)
        counts.update(mix_patch)
        if sum(counts.values()) <= 0:
            # A mix must contain work; keep a minimal integer op so the
            # sanitized spec still constructs.
            counts["int_ops"] = 1.0
            issues.append(
                ValidationIssue(
                    source,
                    "sanitized_launch",
                    f"{where}.mix: sanitized mix was empty; imputed int_ops=1.0",
                    severity="warning",
                )
            )
        spec_patch["mix"] = InstructionMix(**counts)

    if not spec_patch:
        return launch, issues
    return replace(launch, spec=replace(spec, **spec_patch)), issues


def sanitize_launches(
    source: str, launches: Sequence, mode: str = "strict"
) -> tuple[list, list[ValidationIssue]]:
    """Validate (strict) or repair (lenient) the launches of one app.

    Returns ``(launches, issues)``.  Strict mode raises
    :class:`InputValidationError` when any launch carries a non-finite
    spec or mix field; lenient mode replaces each bad field with its
    schema default and records a provenance warning.
    """
    mode = resolve_mode(mode)
    if mode == "strict":
        issues = launch_issues(source, launches)
        apply_mode(issues, "strict", context=source)
        return list(launches), issues
    sanitized: list = []
    issues = []
    for launch in launches:
        clean, launch_notes = _sanitize_one_launch(source, launch)
        sanitized.append(clean)
        issues.extend(launch_notes)
    return sanitized, issues


# ---------------------------------------------------------------------------
# Profiler counter vectors
# ---------------------------------------------------------------------------


def counter_matrix_issues(
    source: str,
    matrix: np.ndarray,
    names: Sequence[str] | None = None,
) -> list[ValidationIssue]:
    """Error issues for every non-finite entry of a counter matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    issues: list[ValidationIssue] = []
    bad_rows, bad_cols = np.nonzero(~np.isfinite(matrix))
    for row, col in zip(bad_rows.tolist(), bad_cols.tolist(), strict=True):
        name = names[col] if names is not None and col < len(names) else f"col{col}"
        issues.append(
            ValidationIssue(
                source,
                "non_finite_counter",
                f"row {row}, counter {name}: {matrix[row, col]!r}",
            )
        )
    return issues


def sanitize_counter_matrix(
    source: str,
    matrix: np.ndarray,
    names: Sequence[str] | None = None,
    mode: str = "strict",
) -> tuple[np.ndarray, list[ValidationIssue]]:
    """Validate (strict) or impute (lenient) non-finite counter entries.

    Lenient repair imputes each bad entry with the median of the finite
    values in the same column (falling back to 0.0 when a whole column is
    non-finite), recording the original value as provenance.
    """
    mode = resolve_mode(mode)
    matrix = np.asarray(matrix, dtype=np.float64)
    finite = np.isfinite(matrix)
    if finite.all():
        return matrix, []
    issues = counter_matrix_issues(source, matrix, names)
    if mode == "strict":
        apply_mode(issues, "strict", context=source)
    repaired = matrix.copy()
    for col in range(matrix.shape[1]):
        column_finite = finite[:, col]
        if column_finite.all():
            continue
        fill = float(np.median(matrix[column_finite, col])) if column_finite.any() else 0.0
        repaired[~column_finite, col] = fill
    notes = [
        ValidationIssue(
            issue.source,
            "sanitized_counter",
            f"{issue.detail} imputed from column median",
            severity="warning",
        )
        for issue in issues
    ]
    return repaired, notes


def sanitize_profiles(
    source: str,
    profiles: Sequence,
    mode: str = "strict",
) -> tuple[list, list[ValidationIssue]]:
    """Validate or repair a list of DetailedProfile counter vectors + cycles.

    Strict mode raises on any non-finite counter or cycle reading; lenient
    mode imputes counters per column and replaces non-finite cycle readings
    with the median of the finite ones (1.0 when none are finite).
    """
    from repro.profiling.detailed import FEATURE_NAMES

    mode = resolve_mode(mode)
    if not profiles:
        return list(profiles), []
    matrix = np.stack([profile.feature_vector() for profile in profiles])
    cycles = np.asarray([profile.cycles for profile in profiles], dtype=np.float64)
    cycle_finite = np.isfinite(cycles)

    issues: list[ValidationIssue] = []
    if mode == "strict":
        issues.extend(counter_matrix_issues(source, matrix, FEATURE_NAMES))
        for index, ok in enumerate(cycle_finite.tolist()):
            if not ok:
                issues.append(
                    ValidationIssue(
                        source,
                        "non_finite_cycles",
                        f"profile {index} ({profiles[index].kernel_name}): "
                        f"cycles={profiles[index].cycles!r}",
                    )
                )
        apply_mode(issues, "strict", context=source)
        return list(profiles), issues

    repaired_matrix, issues = sanitize_counter_matrix(source, matrix, FEATURE_NAMES, mode)
    repaired_cycles = cycles.copy()
    if not cycle_finite.all():
        fill = float(np.median(cycles[cycle_finite])) if cycle_finite.any() else 1.0
        for index, ok in enumerate(cycle_finite.tolist()):
            if not ok:
                repaired_cycles[index] = fill
                issues.append(
                    ValidationIssue(
                        source,
                        "sanitized_cycles",
                        f"profile {index} ({profiles[index].kernel_name}): "
                        f"non-finite cycles {profiles[index].cycles!r} imputed "
                        f"with {fill}",
                        severity="warning",
                    )
                )
    if not issues:
        return list(profiles), []
    repaired = [
        replace(
            profile,
            counters=tuple(float(v) for v in repaired_matrix[index]),
            cycles=float(repaired_cycles[index]),
        )
        for index, profile in enumerate(profiles)
    ]
    return repaired, issues
