"""The ncnn-style 8-bit baseline kernel (Sec. 5.2, second paragraph).

ncnn "stores the 8-bit input into a 16-bit register, and uses 16-bit SMLAL
instruction to compute and accumulate the result to a 32-bit register":

* per K step, the 8 A bytes and 4 B bytes are widened with ``SSHLL``,
* by-element ``SMLAL.4S``/``SMLAL2.4S`` multiply the widened A column by
  each widened B value and accumulate *directly* into int32 lanes,
* no drains are ever needed (int32 accumulators cannot realistically
  overflow within a layer), but each instruction only covers 4 MAC lanes —
  half of the paper scheme's ``SMLAL.8H`` and a quarter of ``MLA.16B``.

Tile: 8x4.  Register allocation: ``v2``/``v4`` raw A bytes (pipelined
pair), ``v3``/``v5`` raw B bytes, ``v0``/``v6`` widened A, ``v1``/``v7``
widened B, ``v8~v15`` int32 accumulators (col j in v8+2j / v9+2j).
"""

from __future__ import annotations

from ...errors import ShapeError
from ..isa import Instr, MemRef
from ..loops import Node, Repeat, pipelined
from .base import MicroKernel

M_R = 8
N_R = 4

#: raw-load and widened registers for the two software-pipeline groups
_GROUPS = (
    {"a_raw": "v2", "b_raw": "v3", "a_wide": "v0", "b_wide": "v1"},
    {"a_raw": "v4", "b_raw": "v5", "a_wide": "v6", "b_wide": "v7"},
)


def _acc(j: int, half: int) -> str:
    """int32 accumulator for column j, rows ``4*half .. 4*half+3``."""
    return f"v{8 + 2 * j + half}"


#: per pipeline group: the two SSHLL widenings, and the 8 by-element MACs
#: of one K step; every step of a group shares these
_WIDEN = tuple(
    (Instr("SSHLL_8H", dst=(g["a_wide"],), src=(g["a_raw"],)),
     Instr("SSHLL_8H", dst=(g["b_wide"],), src=(g["b_raw"],)))
    for g in _GROUPS
)
_MACS = tuple(
    tuple(
        Instr(op, dst=(_acc(j, h),), src=(g["a_wide"], g["b_wide"]), lane=j)
        for j in range(N_R)
        for h, op in enumerate(("SMLAL_4S_LANE", "SMLAL2_4S_LANE"))
    )
    for g in _GROUPS
)
_PROLOGUE = tuple(Instr("MOVI_ZERO", dst=(_acc(j, h),)) for j in range(N_R) for h in range(2))
_EPILOGUE = tuple(
    Instr("ST1_16B", src=(_acc(j, h),), mem=MemRef("C", (j * M_R + 4 * h) * 4))
    for j in range(N_R) for h in range(2)
)


#: bytes of A and B one K step reads
_STEP_BYTES = {"A": M_R, "B": N_R}


def _loads_widen(step: int, g: int) -> tuple[Instr, ...]:
    """K step ``step``'s two raw loads into pipeline group ``g``, then the
    group's widenings."""
    grp = _GROUPS[g]
    return (Instr("LD1_8B", dst=(grp["a_raw"],), mem=MemRef("A", step * M_R)),
            Instr("LD1_8B", dst=(grp["b_raw"],), mem=MemRef("B", step * N_R)),
            *_WIDEN[g])


def generate_ncnn_kernel(k: int, *, interleave: bool = True) -> MicroKernel:
    """Generate the ncnn-like 8-bit program for an 8x4 tile over ``k``.

    The packed B panel must carry 4 bytes of slack beyond ``k * 4`` (the
    8-byte B load of the final step reads past the last row).
    """
    if k <= 0:
        raise ShapeError(f"k must be positive, got {k}")

    out: list[Node] = [*_PROLOGUE, Instr("MOV_X_IMM", dst=("x9",), imm=k)]
    if interleave:
        def step(s: int, g: int, prefetch: bool) -> tuple[Instr, ...]:
            return (*(_loads_widen(s + 1, 1 - g) if prefetch else ()), *_MACS[g])

        out += [*_loads_widen(0, 0), *pipelined(step, k, _STEP_BYTES)]
    else:
        out.append(Repeat((*_loads_widen(0, 0), *_MACS[0]), k, _STEP_BYTES))
    out.append(Instr("SUBS", dst=("x9",), src=("x9",), imm=k))
    out.append(Instr("B_NE"))
    out.extend(_EPILOGUE)

    return MicroKernel(
        name="ncnn8",
        code=tuple(out),
        m_r=M_R,
        n_r=N_R,
        k=k,
        bits=8,
        a_bytes=k * M_R,
        b_bytes=k * N_R + 4,  # slack for the 8-byte load of the last step
        c_bytes=M_R * N_R * 4,
    )
