#!/usr/bin/env python
"""GPU walk-through: implicit-GEMM conv, tiling auto-search, fusion.

Reproduces the Sec. 4/5.3 story on the simulated RTX 2080Ti:

1. run the implicit-precomp GEMM conv functionally (exact mma semantics),
2. auto-search tiling parameters for a few ResNet-50 layers and compare
   against the defaults (Fig. 11) and the cuDNN/TensorRT baselines
   (Fig. 10),
3. show what quantization fusion buys (Fig. 12) via the runtime passes.

Run:  python examples/gpu_autotune_and_fusion.py
"""

import numpy as np

from repro.conv import conv2d_ref
from repro.gpu import (
    TilingParams,
    conv2d_implicit_gemm,
    cudnn_dp4a_time,
    default_tiling,
    fusion_speedups,
    tensorrt_time,
)
from repro.gpu.autotune import autotune_conv
from repro.gpu.pipelinemodel import conv_time
from repro.models import resnet50_conv_layers
from repro.runtime import apply_all_fusions, conv_pipeline, estimate_graph_cycles
from repro.types import ConvSpec, Layout


def main() -> None:
    rng = np.random.default_rng(0)

    # 1. functional: int4 conv, each k tile what its mma.m8n8k32 sequence gives -
    small = ConvSpec("demo", in_channels=8, out_channels=16, height=8,
                     width=8, kernel=(3, 3), padding=(1, 1))
    x = rng.integers(-8, 8, small.input_shape(Layout.NHWC)).astype(np.int8)
    w = rng.integers(-8, 8, small.weight_shape(Layout.NCHW)).astype(np.int8)
    out = conv2d_implicit_gemm(
        small, x, w, bits=4, tiling=TilingParams(16, 16, 32, 32, 1, 1)
    )
    assert np.array_equal(out.data, conv2d_ref(small, x, w, layout=Layout.NHWC))
    print(f"functional: {small.describe()} as mma.m8n8k32 k tiles "
          f"({out.blocks} blocks) — bit-exact vs direct conv\n")

    # 2. autotune vs defaults vs baselines, batch 1 -----------------------------
    print(f"{'layer':>7} {'cuDNN us':>9} {'TRT us':>8} {'default us':>11} "
          f"{'tuned us':>9}  best tiling")
    for spec in resnet50_conv_layers()[:8]:
        cudnn = cudnn_dp4a_time(spec).microseconds()
        trt = tensorrt_time(spec).microseconds()
        default = conv_time(spec, 8, default_tiling(8)).microseconds()
        tuned = autotune_conv(spec, 8)
        print(f"{spec.name:>7} {cudnn:9.1f} {trt:8.1f} {default:11.1f} "
              f"{tuned.best_perf.microseconds():9.1f}  {tuned.best.describe()}")
    print()

    # 3. fusion: cost-model view and graph-rewrite view -------------------------
    spec = resnet50_conv_layers()[5]
    sp = fusion_speedups(spec, 8)
    print(f"fusion speedups on {spec.name} (cost model): "
          f"conv+dequant {sp['conv+dequant']:.2f}x, "
          f"conv+relu {sp['conv+relu']:.2f}x")

    graph = conv_pipeline(spec, 8)
    fused, report = apply_all_fusions(graph)
    before = estimate_graph_cycles(graph, "gpu")
    after = estimate_graph_cycles(fused, "gpu")
    print(f"graph rewrite: {len(graph)} ops -> {len(fused)} ops "
          f"({report.ops_eliminated} eliminated), "
          f"{before.kernel_launches} -> {after.kernel_launches} launches, "
          f"{before.total_cycles / after.total_cycles:.2f}x faster")


if __name__ == "__main__":
    main()
