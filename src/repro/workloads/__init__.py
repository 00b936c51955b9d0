"""The synthetic 147-workload corpus (Rodinia, Parboil, Polybench,
CUTLASS, DeepBench, MLPerf) and the registry that serves it."""

from repro.workloads.generator import (
    LaunchBuilder,
    compute_spec,
    irregular_spec,
    streaming_spec,
    tensor_spec,
    tiny_spec,
    workload_rng,
)
from repro.workloads.table import LaunchTable
from repro.workloads.validation import (
    ValidationIssue,
    ValidationReport,
    validate_corpus,
    validate_workload,
)
from repro.workloads.spec import (
    WorkloadSpec,
    clear_registry,
    get_workload,
    iter_workloads,
    register,
    suite_names,
    workload_names,
)

__all__ = [
    "LaunchBuilder",
    "LaunchTable",
    "ValidationIssue",
    "ValidationReport",
    "WorkloadSpec",
    "clear_registry",
    "compute_spec",
    "get_workload",
    "irregular_spec",
    "iter_workloads",
    "register",
    "streaming_spec",
    "suite_names",
    "tensor_spec",
    "tiny_spec",
    "validate_corpus",
    "validate_workload",
    "workload_names",
    "workload_rng",
]
