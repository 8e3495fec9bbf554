"""Simulated ARMv8.1 (NEON) architecture.

Two cooperating layers reproduce what the paper hand-writes in assembly:

* :mod:`repro.arm.compiled` — the *functional* executor for the NEON
  subset the kernels use, with exact wrap-around (non-saturating)
  semantics, so the overflow analysis of Sec. 3.3 is checkable
  bit-for-bit.  It compiles a stream once and runs all register tiles of
  a layer together; :mod:`repro.arm.simulator` interprets one instruction
  at a time and is kept as the oracle the compiled path is tested
  against.
* :mod:`repro.arm.pipeline` — an in-order dual-issue *cost* model with a
  Cortex-A53-flavored port/latency table; the same instruction streams the
  generators emit are statically scheduled to get cycle counts.

Kernel generators for the paper's instruction schemes (Alg. 1 and the
2~3-bit MLA scheme), the ncnn-like baseline and the TVM-like popcount
baseline live in :mod:`repro.arm.kernels`.
"""

from .isa import Instr, MemRef, VREG, XREG
from .registers import RegisterFile
from .simulator import ArmSimulator
from .pipeline import CostTable, A53_COST_TABLE, PipelineModel, PipelineResult
from .ratios import (
    smlal_chain_length,
    mla_chain_length,
    chain_table,
    saddw_second_level_interval,
)

__all__ = [
    "Instr",
    "MemRef",
    "VREG",
    "XREG",
    "RegisterFile",
    "ArmSimulator",
    "CostTable",
    "A53_COST_TABLE",
    "PipelineModel",
    "PipelineResult",
    "smlal_chain_length",
    "mla_chain_length",
    "chain_table",
    "saddw_second_level_interval",
]
