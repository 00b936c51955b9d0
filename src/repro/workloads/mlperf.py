"""Synthetic MLPerf suite: the paper's scaled, century-to-simulate workloads.

Seven workloads — three ResNet-50 inference batch sizes, SSD training,
BERT offline inference, GNMT training and 3D-UNet inference — built from
layer-structured generators that attach PyProf-style NVTX annotations
(layer tag, tensor volume) to every launch, the extra signal the paper's
two-level profiling uses.

Launch counts are downscaled by each workload's ``scale`` factor (the
paper's SSD training launches 5.3 million kernels; we generate 53,000 and
record scale=100) so the suite is buildable in memory; all time
projections multiply the factor back in.  None of these are completable
in full simulation, and none fit in the RTX 2060's 6 GB
(``min_memory_gb=16``).
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


def _nvtx(layer: str, volume: float) -> dict[str, str]:
    return {"layer": layer, "tensor_volume": str(float(volume))}


class _ResNetKernels:
    """The kernel families of a cuDNN ResNet-50 forward pass."""

    def __init__(self, batch: int) -> None:
        self.batch = batch
        scale = batch / 64.0
        self.winograd_big = compute_spec(
            "winograd_big",
            flops=2_400.0,
            shared=220.0,
            locality=0.8,
            working_set=(64 + 96 * scale) * MIB,
        )
        self.implicit_con_wide = compute_spec(
            "implicit_con",
            flops=1_500.0,
            shared=160.0,
            locality=0.78,
            working_set=(48 + 64 * scale) * MIB,
        )
        self.implicit_con_narrow = compute_spec(
            "implicit_con",
            flops=600.0,
            shared=90.0,
            locality=0.7,
            working_set=(24 + 24 * scale) * MIB,
        )
        self.sgemm = compute_spec(
            "sgemm", flops=1_900.0, shared=180.0, locality=0.82,
            working_set=80 * MIB,
        )
        self.bn = streaming_spec(
            "bn_fw_inf", loads=10.0, stores=10.0, locality=0.3
        )
        self.relu_big = streaming_spec(
            "big_relu_interior", loads=6.0, stores=6.0, locality=0.2
        )
        self.relu_tiny = tiny_spec("tiny_relu_1", work=40.0)
        self.add = streaming_spec(
            "SimpleBinary", loads=8.0, stores=4.0, locality=0.25
        )
        self.pool = streaming_spec(
            "MaxPool2D", loads=14.0, stores=4.0, locality=0.4
        )
        self.gemv = streaming_spec(
            "gemv2N", loads=30.0, stores=1.0, locality=0.3
        )
        self.softmax = tiny_spec("somax_fw", work=70.0)
        self.reduce = tiny_spec("RowwiseReduce", work=55.0)

    def batch_grid(self, spatial: int, channels: int) -> int:
        return max(1, self.batch * spatial * spatial * channels // 32_768)

    def stage_grid(self, spatial: int) -> int:
        """Conv grid for a stage, quantized to two cuDNN tile regimes.

        cuDNN picks from a small set of tile configurations, so launch
        grids collapse onto a few recurring values — the recurrence is
        what lets PKS cover ResNet with ~a dozen groups.
        """
        blocks = 784 if spatial >= 28 else 392
        return max(1, blocks * self.batch // 64)


def _resnet_builder(batch: int, images: int):
    """ResNet-50 inference over ``images`` images in ``batch``-sized chunks."""

    def build() -> LaunchTable:
        kernels = _ResNetKernels(batch)
        builder = LaunchBuilder()
        batches = max(1, images // batch)
        # (stage spatial size, channels, bottleneck count) per ResNet stage.
        stages = [(56, 256, 3), (28, 512, 4), (14, 1024, 6), (7, 2048, 3)]
        for batch_index in range(batches):
            tag = f"batch{batch_index}"
            # Stem: 7x7 conv + bn + relu + maxpool.
            builder.add(
                kernels.winograd_big,
                kernels.batch_grid(112, 64),
                nvtx=_nvtx(f"{tag}.conv1", batch * 112 * 112 * 64),
            )
            builder.add(kernels.bn, kernels.batch_grid(112, 64) // 2 + 1,
                        nvtx=_nvtx(f"{tag}.bn1", batch * 112 * 112 * 64))
            builder.add(kernels.pool, kernels.batch_grid(56, 64),
                        nvtx=_nvtx(f"{tag}.maxpool", batch * 56 * 56 * 64))
            for stage_index, (spatial, channels, blocks) in enumerate(stages):
                for block in range(blocks):
                    layer = f"{tag}.layer{stage_index + 1}.{block}"
                    volume = batch * spatial * spatial * channels
                    grid = kernels.stage_grid(spatial)
                    conv_3x3 = (
                        kernels.implicit_con_wide
                        if spatial >= 28
                        else kernels.implicit_con_narrow
                    )
                    builder.add(kernels.sgemm, grid,
                                nvtx=_nvtx(f"{layer}.conv1", volume // 4))
                    builder.add(conv_3x3, grid, nvtx=_nvtx(f"{layer}.conv2", volume))
                    builder.add(kernels.sgemm, grid,
                                nvtx=_nvtx(f"{layer}.conv3", volume))
                    builder.add(kernels.bn, max(1, grid // 4),
                                nvtx=_nvtx(f"{layer}.bn", volume))
                    relu = kernels.relu_big if spatial >= 28 else kernels.relu_tiny
                    builder.add(relu, max(1, grid // 4),
                                nvtx=_nvtx(f"{layer}.relu", volume))
                    builder.add(kernels.add, max(1, grid // 4),
                                nvtx=_nvtx(f"{layer}.add", volume))
            # Head: avgpool + fc + softmax.
            builder.add(kernels.reduce, max(1, batch // 8),
                        nvtx=_nvtx(f"{tag}.avgpool", batch * 2048))
            builder.add(kernels.gemv, max(1, batch // 2),
                        nvtx=_nvtx(f"{tag}.fc", batch * 2048))
            builder.add(kernels.softmax, max(1, batch // 16),
                        nvtx=_nvtx(f"{tag}.softmax", batch * 1000))
        return builder.table()

    return build


def _ssd_training_builder():
    """SSD training: forward + backward + a storm of optimizer kernels.

    265 synthetic iterations of ~200 launches stand in for the paper's
    5.3 million kernels at scale=100.
    """

    def build() -> LaunchTable:
        builder = LaunchBuilder()
        backbone_conv = compute_spec(
            "ssd_implicit_convolve_sgemm", flops=1_200.0, shared=140.0,
            locality=0.75, working_set=96 * MIB,
        )
        head_conv = compute_spec(
            "ssd_head_conv", flops=500.0, shared=60.0, locality=0.65,
            working_set=32 * MIB,
        )
        dgrad = compute_spec(
            "ssd_dgrad_engine", flops=1_300.0, loads=60.0, locality=0.7,
            working_set=96 * MIB,
        )
        wgrad = compute_spec(
            "ssd_wgrad_alg0", flops=1_100.0, loads=55.0, locality=0.68,
            working_set=96 * MIB,
        )
        bn_fwd = streaming_spec("ssd_bn_fw_tr", loads=12.0, stores=12.0, locality=0.3)
        bn_bwd = streaming_spec("ssd_bn_bw", loads=16.0, stores=12.0, locality=0.3)
        elementwise = tiny_spec("ssd_op_tensor_kernel", work=50.0)
        loss = tiny_spec("ssd_smooth_l1_loss", work=80.0, duration_cv=0.2)
        sgd = tiny_spec("ssd_sgd_momentum_update", work=35.0)
        for iteration in range(265):
            nvtx = _nvtx(f"iter{iteration}", 32 * 300 * 300 * 3)
            for layer in range(20):
                builder.add(backbone_conv, 420, nvtx=nvtx)
                builder.add(bn_fwd, 105, nvtx=nvtx)
                builder.add(elementwise, 52, nvtx=nvtx)
            for head in range(12):
                builder.add(head_conv, 96, nvtx=nvtx)
            builder.add(loss, 24, repeat=6, nvtx=nvtx)
            for layer in range(20):
                builder.add(dgrad, 420, nvtx=nvtx)
                builder.add(wgrad, 210, nvtx=nvtx)
                builder.add(bn_bwd, 105, nvtx=nvtx)
                builder.add(elementwise, 52, repeat=2, nvtx=nvtx)
            builder.add(sgd, 16, repeat=30, nvtx=nvtx)
        return builder.table()

    return build


def _bert_builder():
    """BERT-large offline inference: 24 transformer layers per batch."""

    def build() -> LaunchTable:
        builder = LaunchBuilder()
        qkv_gemm = tensor_spec(
            "volta_fp16_s884gemm_fp16_128x128_qkv", tensor_ops=1_024.0,
            loads=40.0, working_set=64 * MIB,
        )
        # The FFN GEMMs are 4x the arithmetic of the attention GEMMs —
        # distinct enough that a single-group projection misses badly,
        # which is what pushes BERT's K sweep past K=1.
        ffn_gemm = tensor_spec(
            "volta_fp16_s884gemm_fp16_256x128_ffn", tensor_ops=4_096.0,
            loads=90.0, working_set=192 * MIB,
        )
        attn_softmax = streaming_spec(
            "softmax_warp_forward", loads=10.0, stores=8.0, locality=0.4
        )
        layernorm = streaming_spec(
            "cuApplyLayerNorm", loads=12.0, stores=8.0, locality=0.35
        )
        gelu = tiny_spec("gelu_kernel", work=45.0)
        embed = streaming_spec(
            "embedding_lookup_kernel", loads=20.0, stores=8.0, locality=0.2,
            sectors=16.0,
        )
        for batch in range(120):
            nvtx_prefix = f"batch{batch}"
            builder.add(embed, 128, nvtx=_nvtx(f"{nvtx_prefix}.embed", 384 * 1024))
            for layer in range(24):
                nvtx = _nvtx(f"{nvtx_prefix}.layer{layer}", 384 * 1024 * 16)
                builder.add(qkv_gemm, 288, repeat=2, nvtx=nvtx)
                builder.add(attn_softmax, 96, nvtx=nvtx)
                builder.add(qkv_gemm, 288, nvtx=nvtx)
                builder.add(layernorm, 48, nvtx=nvtx)
                builder.add(ffn_gemm, 576, repeat=2, nvtx=nvtx)
                builder.add(gelu, 72, nvtx=nvtx)
                builder.add(layernorm, 48, nvtx=nvtx)
        return builder.table()

    return build


def _gnmt_builder():
    """GNMT training: LSTM encoder/decoder time-step storms."""

    def build() -> LaunchTable:
        builder = LaunchBuilder()
        lstm_gemm = compute_spec(
            "gnmt_lstm_gemm", flops=1_024.0, shared=128.0, locality=0.8,
            working_set=64 * MIB,
        )
        lstm_cell = tiny_spec("gnmt_lstm_elementwise", work=85.0)
        attention = streaming_spec(
            "gnmt_attention_score", loads=24.0, stores=4.0, locality=0.4
        )
        bgrad_gemm = compute_spec(
            "gnmt_lstm_bgrad_gemm", flops=1_100.0, loads=50.0, locality=0.75,
            working_set=64 * MIB,
        )
        embed_grad = streaming_spec(
            "gnmt_embedding_grad", loads=16.0, stores=16.0, locality=0.2,
            sectors=20.0,
        )
        adam = tiny_spec("gnmt_adam_update", work=40.0)
        for iteration in range(34):
            nvtx = _nvtx(f"iter{iteration}", 128 * 1024 * 50)
            for _layer in range(8):
                for _step in range(30):
                    builder.add(lstm_gemm, 128, nvtx=nvtx)
                    builder.add(lstm_cell, 32, nvtx=nvtx)
                builder.add(attention, 64, repeat=10, nvtx=nvtx)
            for _layer in range(8):
                for _step in range(30):
                    builder.add(bgrad_gemm, 128, nvtx=nvtx)
                    builder.add(lstm_cell, 32, nvtx=nvtx)
            builder.add(embed_grad, 256, repeat=4, nvtx=nvtx)
            builder.add(adam, 24, repeat=40, nvtx=nvtx)
        return builder.table()

    return build


def _unet3d_builder():
    """3D-UNet inference on BRATS-like volumes: few, fat conv3d kernels."""

    def build() -> LaunchTable:
        builder = LaunchBuilder()
        levels = [
            ("enc", 128, 26_000.0, 960),
            ("enc", 64, 21_000.0, 480),
            ("enc", 32, 16_000.0, 240),
            ("bottleneck", 16, 13_000.0, 120),
            ("dec", 32, 16_000.0, 240),
            ("dec", 64, 21_000.0, 480),
            ("dec", 128, 26_000.0, 960),
        ]
        norm = streaming_spec("unet_instancenorm", loads=14.0, stores=10.0, locality=0.3)
        upsample = streaming_spec("unet_trilinear_upsample", loads=20.0, stores=8.0,
                                  locality=0.35)
        for case in range(16):
            for level_index, (stage, spatial, flops, grid) in enumerate(levels):
                conv = compute_spec(
                    f"unet_conv3d_{stage}_{spatial}",
                    flops=flops,
                    shared=200.0,
                    locality=0.75,
                    working_set=spatial**3 * 32.0,
                )
                nvtx = _nvtx(f"case{case}.{stage}{level_index}", spatial**3 * 32)
                builder.add(conv, grid, repeat=8, nvtx=nvtx)
                builder.add(norm, max(1, grid // 4), repeat=4, nvtx=nvtx)
                if stage == "dec":
                    builder.add(upsample, max(1, grid // 2), nvtx=nvtx)
        return builder.table()

    return build


def build_suite() -> list[WorkloadSpec]:
    """All 7 MLPerf workloads of the paper's Table 4."""
    suite = "mlperf"
    common = dict(completable=False, min_memory_gb=16.0)
    return [
        WorkloadSpec(
            "mlperf_bert_inference", suite, _bert_builder(), scale=35.0, **common
        ),
        WorkloadSpec(
            "mlperf_ssd_training", suite, _ssd_training_builder(), scale=100.0,
            **common,
        ),
        WorkloadSpec(
            "mlperf_resnet50_64b", suite, _resnet_builder(64, 12_800), scale=8.0,
            **common,
        ),
        WorkloadSpec(
            "mlperf_resnet50_128b", suite, _resnet_builder(128, 12_800), scale=8.0,
            **common,
        ),
        WorkloadSpec(
            "mlperf_resnet50_256b", suite, _resnet_builder(256, 12_800), scale=8.0,
            **common,
        ),
        WorkloadSpec(
            "mlperf_gnmt_training", suite, _gnmt_builder(), scale=25.0, **common
        ),
        WorkloadSpec(
            "mlperf_3dunet_inference", suite, _unet3d_builder(), scale=4.0, **common
        ),
    ]
