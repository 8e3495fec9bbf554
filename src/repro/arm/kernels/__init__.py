"""ARM micro-kernel generators.

Each generator returns a loop program (:mod:`repro.arm.loops`) computing
one register tile of the GEMM: the K loop as repeated bodies between
straight-line code, whose flattened stream is the kernel's listing:

* :mod:`smlal_scheme` — the paper's 4~8-bit scheme (Alg. 1): 16x4 tile,
  ``SMLAL/SMLAL2`` into int16 lanes, periodic ``SADDW`` drains into int32.
* :mod:`mla_scheme` — the paper's 2~3-bit scheme: 64x1 tile, ``MLA`` into
  int8 lanes, two-level ``SADDW`` drains.
* :mod:`ncnn_like` — the ncnn 8-bit baseline: widen to int16, by-element
  ``SMLAL`` straight into int32 accumulators (no drains).
* :mod:`popcount_scheme` — the TVM-style 2-bit bit-serial baseline:
  ``AND`` + ``CNT`` + ``UADALP`` over bit-packed planes.
* :mod:`sdot_scheme` — the ARMv8.2 ``SDOT`` extension, loaded on first
  use of ``generate_sdot_kernel``, so pricing the paper's schemes never
  imports it.

All programs run functionally through :meth:`MicroKernel.execute`, which
compiles them once, each body a single time (:mod:`repro.arm.compiled`),
and matches the :class:`repro.arm.simulator.ArmSimulator` oracle on the
flattened stream bit for bit; :class:`repro.arm.pipeline.PipelineModel`
schedules them for cycles, each body decoded once and fast-forwarded.
"""

from .base import MicroKernel
from .smlal_scheme import generate_smlal_kernel
from .mla_scheme import generate_mla_kernel
from .ncnn_like import generate_ncnn_kernel
from .popcount_scheme import generate_popcount_kernel, popcount_pair_weights

__all__ = [
    "MicroKernel",
    "generate_smlal_kernel",
    "generate_mla_kernel",
    "generate_ncnn_kernel",
    "generate_popcount_kernel",
    "generate_sdot_kernel",
    "popcount_pair_weights",
]


def __getattr__(name: str):
    if name == "generate_sdot_kernel":
        from .sdot_scheme import generate_sdot_kernel

        return generate_sdot_kernel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
