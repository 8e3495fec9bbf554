"""Simulated NVIDIA Turing GPU (Sec. 4).

Mirrors the ARM package's two-layer structure:

* functional — exact ``mma``/``dp4a`` semantics (:mod:`repro.gpu.mma`) and
  an implicit-precomp-GEMM convolution (:mod:`repro.gpu.implicit_gemm`)
  that walks the real Alg. 2 tile/fragment structure;
* performance — an analytic machine model (:mod:`repro.gpu.pipelinemodel`)
  fed by the coalescing/shared-memory analyzers (:mod:`repro.gpu.memory`),
  with the paper's knobs (tiling parameters, access reordering, register
  double buffering, in-place epilogue, quantization fusion) as explicit
  switches, plus cuDNN-dp4a / TensorRT baseline models and the profile-run
  autotuner.
"""

from .device import TU102, GpuDevice
from .mma import (
    mma_m8n8k16_int8,
    mma_m8n8k32_int4,
    dp4a,
    pack_int4,
    unpack_int4,
)
from .tiling import TilingParams, default_tiling, search_space, validate_tiling
from .precompute import PrecomputedOffsets, build_offsets
from .implicit_gemm import conv2d_implicit_gemm, ConvGpuOutput
from .memory import coalesced_transactions, lds_instructions, SmemAccessReport
from .pipelinemodel import GpuKernelPerf, kernel_time, conv_time
from .vecmodel import (
    BatchKernelPerf,
    TilingArrays,
    kernel_lower_bound_batch,
    kernel_time_batch,
    validate_mask,
)
from .fusion import FusionMode, pipeline_time, fusion_speedups
from .autotune import (
    autotune,
    autotune_many,
    autotune_reference,
    AutotuneResult,
    autotune_options,
    clear_cache,
)
from .baselines import cudnn_dp4a_time, tensorrt_time
from .kernelsim import (
    BlockInstr,
    BlockSchedule,
    generate_block_program,
    execute_block_program,
    simulate_conv_block,
    schedule_block_program,
)

__all__ = [
    "TU102",
    "GpuDevice",
    "mma_m8n8k16_int8",
    "mma_m8n8k32_int4",
    "dp4a",
    "pack_int4",
    "unpack_int4",
    "TilingParams",
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
    "TilingArrays",
    "kernel_lower_bound_batch",
    "kernel_time_batch",
    "validate_mask",
    "FusionMode",
    "pipeline_time",
    "fusion_speedups",
    "autotune",
    "autotune_many",
    "autotune_reference",
    "AutotuneResult",
    "autotune_options",
    "clear_cache",
    "cudnn_dp4a_time",
    "tensorrt_time",
    "BlockInstr",
    "BlockSchedule",
    "generate_block_program",
    "execute_block_program",
    "simulate_conv_block",
    "schedule_block_program",
]
