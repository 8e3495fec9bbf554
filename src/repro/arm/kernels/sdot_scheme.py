"""ARMv8.2 SDOT GEMM micro-kernel — the what-if beyond the paper.

Sec. 2.3 explains the paper's ARMv8.1 focus: "In the latest ARMv8.2
architecture, SDOT instruction is introduced to support dot product
calculation with 8-bit input and 32-bit output.  However, ARMv8.1 is still
the dominant architecture".  This module models that successor ISA so the
comparison bench can quantify the claim's flip side: with ``SDOT``,

* 8-bit GEMM reaches 16 MACs per instruction with *direct* int32
  accumulation — no drain rounds, no overflow analysis, no range
  adjustment;
* every bit width below 8 runs at exactly the same speed (operands are
  stored one-per-byte regardless), so the paper's 2~7-bit advantage over
  8-bit disappears on v8.2 — only winograd's range tricks remain.

Tile: 16x4, K consumed 4 steps at a time ("k-groups").  Packed layouts:

* A panel: per k-group, 16 rows x 4 consecutive K bytes, row-major within
  a 4-row quad: register ``v0+q`` lane ``i`` holds row ``4q+i``'s 4 K
  values.
* B panel: per k-group, one register: lane ``j`` holds column ``j``'s 4 K
  values; ``SDOT_4S_LANE`` broadcasts it to a row quad.
"""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError
from ...util import ceil_div
from ..isa import Instr, MemRef
from ..loops import Node, Repeat, pipelined
from .base import MicroKernel

M_R = 16
N_R = 4
K_GROUP = 4

#: double-buffered operand sets: accumulators own v8~v23, so the second
#: set lives in the high registers
_A_SETS = (("v0", "v1", "v2", "v3"), ("v24", "v25", "v26", "v27"))
_B_SET = ("v4", "v28")


def _acc(q: int, j: int) -> str:
    """int32 accumulator for row quad ``q``, column ``j``: v8 + 4j + q."""
    return f"v{8 + 4 * j + q}"


#: SDOT of row quad q, column j with operand set s: _SDOT[s][j][q]
_SDOT = tuple(
    tuple(
        tuple(Instr("SDOT_4S_LANE", dst=(_acc(q, j),), src=(_A_SETS[s][q], _B_SET[s]), lane=j)
              for q in range(4))
        for j in range(N_R)
    )
    for s in range(2)
)
_PROLOGUE = tuple(Instr("MOVI_ZERO", dst=(_acc(q, j),)) for q in range(4) for j in range(N_R))
#: one k-group's loop tail
_TAIL = (Instr("SUBS", dst=("x9",), src=("x9",), imm=1), Instr("B_NE"))
#: store column-major: slot = j * 16 + 4q + lane
_EPILOGUE = tuple(
    Instr("ST1_16B", src=(_acc(q, j),), mem=MemRef("C", (j * M_R + 4 * q) * 4))
    for j in range(N_R) for q in range(4)
)


def pack_a_sdot(a: np.ndarray) -> np.ndarray:
    """Pack A (m x k) into the SDOT k-grouped layout (zero-padded)."""
    if a.ndim != 2:
        raise ShapeError("pack_a_sdot expects a 2-D matrix")
    m, k = a.shape
    mp = ceil_div(m, M_R) * M_R
    kg = ceil_div(k, K_GROUP)
    buf = np.zeros((mp // M_R, kg, M_R, K_GROUP), dtype=np.int8)
    ap = np.zeros((mp, kg * K_GROUP), dtype=np.int8)
    ap[:m, :k] = a
    for p in range(mp // M_R):
        for g in range(kg):
            buf[p, g] = ap[p * M_R : (p + 1) * M_R,
                           g * K_GROUP : (g + 1) * K_GROUP]
    return buf.reshape(-1)


def pack_b_sdot(b: np.ndarray) -> np.ndarray:
    """Pack B (k x n) into the SDOT k-grouped layout (zero-padded)."""
    if b.ndim != 2:
        raise ShapeError("pack_b_sdot expects a 2-D matrix")
    k, n = b.shape
    np_ = ceil_div(n, N_R) * N_R
    kg = ceil_div(k, K_GROUP)
    bp = np.zeros((kg * K_GROUP, np_), dtype=np.int8)
    bp[:k, :n] = b
    buf = np.zeros((np_ // N_R, kg, N_R, K_GROUP), dtype=np.int8)
    for p in range(np_ // N_R):
        for g in range(kg):
            # lane j = column j's 4 consecutive K values
            buf[p, g] = bp[g * K_GROUP : (g + 1) * K_GROUP,
                           p * N_R : (p + 1) * N_R].T
    return buf.reshape(-1)


#: bytes of A and B one k-group reads
_STEP_BYTES = {"A": M_R * K_GROUP, "B": N_R * K_GROUP}


def _load_instrs(g: int, s: int) -> list[Instr]:
    """k-group ``g``'s four A quads and its B register, into operand set ``s``."""
    return [*(Instr("LD1_16B", dst=(_A_SETS[s][q],), mem=MemRef("A", g * M_R * K_GROUP + q * 16))
              for q in range(4)),
            Instr("LD1_16B", dst=(_B_SET[s],), mem=MemRef("B", g * N_R * K_GROUP))]


def generate_sdot_kernel(k: int, *, interleave: bool = True) -> MicroKernel:
    """Generate the ARMv8.2 program for a 16x4 tile over reduction ``k``.

    No drains: SDOT accumulates straight into the 16 int32 accumulator
    registers (v8~v23) and stores once at the end.
    """
    if k <= 0:
        raise ShapeError(f"k must be positive, got {k}")
    kg = ceil_div(k, K_GROUP)

    out: list[Node] = [*_PROLOGUE, Instr("MOV_X_IMM", dst=("x9",), imm=kg)]
    if interleave:
        # double-buffered software pipeline: while group g's SDOTs execute,
        # group g+1's operands stream into the alternate register set
        def step(g: int, s: int, prefetch: bool) -> list[Instr]:
            pending = _load_instrs(g + 1, 1 - s) if prefetch else []
            sdots = [_SDOT[s][j][q] for j in range(N_R) for q in range(4)]
            mixed = [ins for pair in zip(sdots, pending) for ins in pair]
            return [*mixed, *sdots[len(pending):], *_TAIL]

        out += [*_load_instrs(0, 0), *pipelined(step, kg, _STEP_BYTES)]
    else:
        out.append(Repeat((*_load_instrs(0, 0),
                           *(_SDOT[0][j][q] for q in range(4) for j in range(N_R)),
                           *_TAIL), kg, _STEP_BYTES))
    out.extend(_EPILOGUE)

    return MicroKernel(
        name="sdot8",
        code=tuple(out),
        m_r=M_R,
        n_r=N_R,
        k=k,
        bits=8,
        a_bytes=kg * M_R * K_GROUP,
        b_bytes=kg * N_R * K_GROUP,
        c_bytes=M_R * N_R * 4,
    )


def execute_sdot_tile(kern: MicroKernel, a: np.ndarray, b: np.ndarray,
                      **kwargs) -> np.ndarray:
    """Functionally run the SDOT stream on raw (m_r x k) / (k x n_r)
    operands through the packed layouts."""
    return kern.execute(pack_a_sdot(a), pack_b_sdot(b), **kwargs)
