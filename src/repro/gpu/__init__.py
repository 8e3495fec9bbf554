"""Simulated NVIDIA Turing GPU (Sec. 4).

Mirrors the ARM package's two-layer structure:

* functional — exact ``mma``/``dp4a`` semantics (:mod:`repro.gpu.mma`) and
  an implicit-precomp-GEMM convolution (:mod:`repro.gpu.implicit_gemm`)
  that computes Alg. 2's tiles as whole-array index arithmetic, one exact
  float64 GEMM per k tile (the per-fragment loop nest is the oracle in
  ``tests/gpu_oracle.py``);
* performance — an analytic machine model (:mod:`repro.gpu.pipelinemodel`)
  fed by the coalescing/shared-memory analyzers (:mod:`repro.gpu.memory`),
  with the paper's knobs (tiling parameters, access reordering, register
  double buffering, in-place epilogue, quantization fusion) as explicit
  switches, plus cuDNN-dp4a / TensorRT baseline models and the profile-run
  autotuner.  The model's terms price one tiling (``kernel_time``) or a
  legal population (``kernel_time_batch``) with the same code, and
  ``validate_tiling`` alone decides legality (the exhaustive sweep the
  autotuner is checked against is in ``tests/autotune_oracle.py``).
"""

from .device import TU102, GpuDevice
from .mma import (
    mma_m8n8k16_int8,
    mma_m8n8k32_int4,
    dp4a,
    pack_int4,
    unpack_int4,
)
from .tiling import (
    TilingArrays,
    TilingParams,
    default_tiling,
    search_space,
    validate_tiling,
)
from .precompute import PrecomputedOffsets, build_offsets
from .implicit_gemm import conv2d_implicit_gemm, ConvGpuOutput
from .memory import coalesced_transactions, lds_instructions, SmemAccessReport
from .pipelinemodel import (
    BatchKernelPerf,
    GpuKernelPerf,
    conv_time,
    kernel_time,
    kernel_time_batch,
)
from .fusion import FusionMode, pipeline_time, fusion_speedups
from .autotune import (
    autotune,
    autotune_many,
    AutotuneResult,
    clear_cache,
)
from .baselines import cudnn_dp4a_time, tensorrt_time

__all__ = [
    "TU102",
    "GpuDevice",
    "mma_m8n8k16_int8",
    "mma_m8n8k32_int4",
    "dp4a",
    "pack_int4",
    "unpack_int4",
    "TilingParams",
    "TilingArrays",
    "default_tiling",
    "search_space",
    "validate_tiling",
    "PrecomputedOffsets",
    "build_offsets",
    "conv2d_implicit_gemm",
    "ConvGpuOutput",
    "coalesced_transactions",
    "lds_instructions",
    "SmemAccessReport",
    "GpuKernelPerf",
    "kernel_time",
    "conv_time",
    "BatchKernelPerf",
    "kernel_time_batch",
    "FusionMode",
    "pipeline_time",
    "fusion_speedups",
    "autotune",
    "autotune_many",
    "AutotuneResult",
    "clear_cache",
    "cudnn_dp4a_time",
    "tensorrt_time",
]
