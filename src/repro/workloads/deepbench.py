"""Synthetic DeepBench suite: 69 workloads across 12 sub-families.

Convolution, GEMM and RNN benchmarks in inference and training variants,
with and without tensor cores — each over several problem-size "inputs",
matching the input counts of the paper's Table 4 (e.g. 9 RNN-inference
inputs, 10 tensor-core RNN-inference inputs).

Two quirks from the paper are modelled faithfully:

* cuDNN's runtime algorithm selection makes convolution *training* runs
  launch different kernels under the profiler on Turing (the 51.3% Turing
  error row) — expressed as a ``variant_builders["turing"]`` that swaps
  the algorithm;
* the same mismatch breaks the simulator's trace/profile pairing, so the
  CUDA conv-training simulation column is "*" — expressed as the
  ``"sim_kernel_mismatch"`` quirk.
"""

from __future__ import annotations

from repro.workloads.generator import (
    LaunchBuilder,
    compute_spec,
    streaming_spec,
    tensor_spec,
    tiny_spec,
)
from repro.workloads.spec import WorkloadSpec
from repro.workloads.table import LaunchTable

__all__ = ["build_suite"]

MIB = 1024 * 1024

# (batch, input_channels, output_channels, spatial) per conv input.
_CONV_INPUTS = [
    (16, 64, 128, 56),
    (16, 128, 256, 28),
    (32, 256, 512, 14),
    (8, 64, 64, 112),
    (16, 512, 512, 7),
]

# (m, n, k) per GEMM input.
_GEMM_INPUTS = [
    (1760, 128, 1760),
    (2048, 64, 2048),
    (2560, 256, 2560),
    (4096, 128, 4096),
    (5124, 700, 2048),
]

# (hidden, time_steps) per RNN-inference input (9 of them; the
# tensor-core variant has a 10th).
_RNN_INF_INPUTS = [
    (512, 25),
    (512, 50),
    (1024, 25),
    (1024, 50),
    (1536, 50),
    (2048, 25),
    (2048, 50),
    (2560, 50),
    (2816, 25),
]
_RNN_INF_TC_EXTRA = (3072, 25)

_RNN_TRAIN_INPUTS = [
    (512, 25),
    (1024, 25),
    (1536, 25),
    (2048, 25),
    (2560, 25),
]


def _autotune_probes(builder: LaunchBuilder, tag: str, work: float, grid: int) -> None:
    """cudnnFind*AlgorithmEx warm-up: candidate algorithms tried once each.

    The losing candidates are memory-inefficient (scattered access, no
    reuse), so these leading launches burn many cycles per instruction —
    the reason "simulate the first N instructions" grossly misreads
    DeepBench-style workloads (and the very cuDNN behaviour behind the
    paper's kernel-count-mismatch quirk).
    """
    naive = streaming_spec(
        f"cudnn_autotune_direct_{tag}",
        loads=work / 4.0,
        stores=work / 16.0,
        flops=work / 8.0,
        locality=0.02,
        sectors=32.0,
        working_set=512 * MIB,
    )
    fft_probe = streaming_spec(
        f"cudnn_autotune_fft_{tag}",
        loads=work / 5.0,
        stores=work / 10.0,
        flops=work / 6.0,
        locality=0.05,
        sectors=24.0,
        working_set=512 * MIB,
    )
    builder.add(naive, grid, repeat=2)
    builder.add(fft_probe, grid, repeat=2)


def _conv_specs(tag: str, channels: int, spatial: int, tensor: bool):
    """The kernel family one cuDNN conv algorithm uses."""
    work = channels * 2.0
    working_set = 4.0 * channels * spatial * spatial * 8
    if tensor:
        main = tensor_spec(
            f"implicit_convolve_hgemm_{tag}",
            tensor_ops=work / 2.0,
            loads=work / 24.0,
            working_set=working_set,
        )
    else:
        main = compute_spec(
            f"implicit_convolve_sgemm_{tag}",
            flops=work,
            loads=work / 12.0,
            shared=work / 4.0,
            locality=0.8,
            working_set=working_set,
        )
    bias = streaming_spec(f"cudnn_add_bias_{tag}", loads=6.0, stores=6.0)
    return main, bias


def _conv_inference_builder(index: int, tensor: bool):
    batch, cin, cout, spatial = _CONV_INPUTS[index]
    tag = f"{'tc' if tensor else 'fp32'}_inf_{index}"

    def build() -> LaunchTable:
        builder = LaunchBuilder()
        main, bias = _conv_specs(tag, cin + cout, spatial, tensor)
        grid = max(8, batch * spatial * spatial // 64)
        _autotune_probes(builder, tag, work=float(cin + cout), grid=grid)
        for _ in range(3):  # deepbench repeats each problem a few times
            builder.add(main, grid)
            builder.add(bias, max(1, grid // 8))
        return builder.table()

    return build


def _conv_training_builder(index: int, tensor: bool, algorithm: str = "winograd"):
    """Training = forward + data-grad + weight-grad kernel triple.

    ``algorithm`` models cuDNN's runtime autotuner: under the profiler on
    Turing a different algorithm wins, changing both the kernel names and
    the launch count.
    """
    batch, cin, cout, spatial = _CONV_INPUTS[index]
    tag = f"{'tc' if tensor else 'fp32'}_train_{index}_{algorithm}"

    def build() -> LaunchTable:
        builder = LaunchBuilder()
        main, bias = _conv_specs(tag, cin + cout, spatial, tensor)
        dgrad = compute_spec(
            f"cudnn_dgrad_{tag}",
            flops=(cin + cout) * 2.2,
            loads=(cin + cout) / 10.0,
            locality=0.75,
            working_set=4.0 * cin * spatial * spatial * 8,
        )
        wgrad = compute_spec(
            f"cudnn_wgrad_{tag}",
            flops=(cin + cout) * 1.8,
            loads=(cin + cout) / 9.0,
            locality=0.7,
            working_set=4.0 * cout * spatial * spatial * 8,
        )
        grid = max(8, batch * spatial * spatial // 64)
        _autotune_probes(builder, tag, work=float(cin + cout), grid=grid)
        repeats = 3 if algorithm == "winograd" else 4
        for _ in range(repeats):
            builder.add(main, grid)
            builder.add(bias, max(1, grid // 8))
            builder.add(dgrad, grid)
            builder.add(wgrad, max(1, grid // 2))
            if algorithm != "winograd":
                # The FFT-based algorithm adds transform kernels.
                builder.add(
                    streaming_spec(f"fft2d_r2c_{tag}", loads=18.0, stores=18.0),
                    max(1, grid // 4),
                )
        return builder.table()

    return build


def _gemm_builder(index: int, tensor: bool, training: bool):
    m, n, k = _GEMM_INPUTS[index]
    mode = "train" if training else "inf"
    tag = f"{'tc' if tensor else 'fp32'}_{mode}_{index}"

    def build() -> LaunchTable:
        builder = LaunchBuilder()
        if tensor:
            gemm = tensor_spec(
                f"volta_h884gemm_{tag}",
                tensor_ops=k / 4.0,
                loads=k / 32.0,
                working_set=2.0 * (m * k + k * n),
            )
        else:
            gemm = compute_spec(
                f"volta_sgemm_128x64_{tag}",
                flops=2.0 * k,
                loads=k / 16.0,
                shared=k / 2.0,
                locality=0.85,
                working_set=4.0 * (m * k + k * n),
            )
        grid = max(4, min(512, (m // 128) * (n // 64)))
        _autotune_probes(builder, tag, work=float(k) / 8.0, grid=grid)
        passes = 3 if training else 2  # fwd+dgrad+wgrad vs fwd only
        for _ in range(passes):
            builder.add(gemm, grid)
        if training:
            builder.add(
                streaming_spec(f"sgd_update_{tag}", loads=8.0, stores=8.0),
                max(1, grid // 4),
            )
        return builder.table()

    return build


def _rnn_builder(hidden: int, steps: int, tensor: bool, training: bool):
    """cuDNN RNNs fuse the time-step loop into *persistent* kernels, so a
    whole sequence is a handful of heavyweight launches — PKS reduction
    is modest (~2-5x), matching the paper's RNN-bench rows."""
    mode = "train" if training else "inf"
    tag = f"{'tc' if tensor else 'fp32'}_{mode}_h{hidden}"

    def build() -> LaunchTable:
        builder = LaunchBuilder()
        work = hidden * steps / 8.0
        if tensor:
            persistent = tensor_spec(
                f"lstm_persist_h884gemm_{tag}",
                tensor_ops=work,
                loads=work / 16.0,
                working_set=8.0 * hidden * hidden,
            )
        else:
            persistent = compute_spec(
                f"lstm_persist_gemm_{tag}",
                flops=work,
                loads=work / 12.0,
                shared=work / 4.0,
                locality=0.8,
                working_set=8.0 * hidden * hidden,
            )
        embed = streaming_spec(f"lstm_embed_{tag}", loads=14.0, stores=10.0)
        pointwise = tiny_spec(f"lstm_final_elementwise_{tag}", work=90.0)
        grid = max(8, hidden * 4 // 128)
        builder.add(embed, grid)
        # Four stacked layers, each one persistent launch per direction.
        builder.add(persistent, grid, repeat=4)
        builder.add(pointwise, max(1, grid // 2), repeat=2)
        if training:
            bgemm = compute_spec(
                f"lstm_persist_bgrad_{tag}",
                flops=work * 1.1,
                loads=work / 10.0,
                locality=0.75,
                working_set=8.0 * hidden * hidden,
            )
            builder.add(bgemm, grid, repeat=4)
            builder.add(pointwise, max(1, grid // 2), repeat=2)
        return builder.table()

    return build


def build_suite() -> list[WorkloadSpec]:
    """All 69 DeepBench workloads of the paper's Table 4."""
    suite = "deepbench"
    specs: list[WorkloadSpec] = []

    for tensor in (False, True):
        flavor = "tc" if tensor else "fp32"
        for index in range(len(_CONV_INPUTS)):
            specs.append(
                WorkloadSpec(
                    f"db_conv_inf_{flavor}_{index}",
                    suite,
                    _conv_inference_builder(index, tensor),
                )
            )
        for index in range(len(_CONV_INPUTS)):
            if tensor:
                # Paper: the tensor-core training runs mismatch on Turing
                # and Ampere silicon entirely ("*" columns).
                quirks = ("no_turing", "no_ampere")
                variants = {}
            else:
                # Paper: Turing's autotuner picks a different algorithm
                # under the profiler (51.3% error row) and the simulator's
                # trace/profile pairing breaks ("*" sim column).
                quirks = ("sim_kernel_mismatch",)
                variants = {
                    "turing": _conv_training_builder(index, tensor, algorithm="fft")
                }
            specs.append(
                WorkloadSpec(
                    f"db_conv_train_{flavor}_{index}",
                    suite,
                    _conv_training_builder(index, tensor),
                    quirks=quirks,
                    variant_builders=variants,
                )
            )
        for training in (False, True):
            mode = "train" if training else "inf"
            for index in range(len(_GEMM_INPUTS)):
                specs.append(
                    WorkloadSpec(
                        f"db_gemm_{mode}_{flavor}_{index}",
                        suite,
                        _gemm_builder(index, tensor, training),
                    )
                )

    for index, (hidden, steps) in enumerate(_RNN_INF_INPUTS):
        specs.append(
            WorkloadSpec(
                f"db_rnn_inf_fp32_{index}",
                suite,
                _rnn_builder(hidden, steps, tensor=False, training=False),
            )
        )
    tc_inputs = list(_RNN_INF_INPUTS) + [_RNN_INF_TC_EXTRA]
    for index, (hidden, steps) in enumerate(tc_inputs):
        specs.append(
            WorkloadSpec(
                f"db_rnn_inf_tc_{index}",
                suite,
                _rnn_builder(hidden, steps, tensor=True, training=False),
            )
        )
    for index, (hidden, steps) in enumerate(_RNN_TRAIN_INPUTS):
        specs.append(
            WorkloadSpec(
                f"db_rnn_train_fp32_{index}",
                suite,
                _rnn_builder(hidden, steps, tensor=False, training=True),
            )
        )
        specs.append(
            WorkloadSpec(
                f"db_rnn_train_tc_{index}",
                suite,
                _rnn_builder(hidden, steps, tensor=True, training=True),
            )
        )
    return specs
