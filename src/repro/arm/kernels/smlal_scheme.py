"""The 4~8-bit GEMM micro-kernel (Alg. 1): SMLAL + SADDW with register
allocation tailored to the scheme.

Register allocation (Sec. 3.3):

* ``v0``/``v1``        — Matrix A column buffers (software-pipelined pair),
* ``v2~v5``/``v6~v9``  — Matrix B replicated-row buffers (two groups),
* ``v10~v17``          — int16 partial accumulators (col j in v10+2j/v11+2j),
* ``v18~v31``          — 56 of the 64 int32 accumulators,
* ``x0~x3``            — the remaining 8 int32 accumulators (col 3, rows
  8~15), shuttled through ``v0``/``v1`` by the MOV dance of Alg. 1
  lines 10-13.

The tile is 16x4 (``n_a = 16`` rows from a packed A panel, ``n_b = 4``
columns from a packed B panel).  Every K step costs one ``LD1`` (16 A
bytes), one ``LD4R`` (4 B bytes replicated) and 8 ``SMLAL``/``SMLAL2``
(64 MACs).  After ``round_interval(bits)`` steps — the paper's unroll
factor, always <= the safe chain length — the int16 lanes are drained into
the int32 accumulators with 16 ``SADDW``/``SADDW2``.

Deviation noted in DESIGN.md: Alg. 1's listing clobbers the prefetched
``v0``/``v1`` in its drain, which cannot be literally correct; we restart
the load pipeline at each drained block boundary instead.
"""

from __future__ import annotations

from ...errors import ChainOverflowError, ShapeError, UnsupportedBitsError
from ..isa import Instr, MemRef
from ..loops import Node, Repeat, pipelined
from ..ratios import SMLAL_SCHEME_BITS, round_interval, smlal_chain_length
from .base import MicroKernel

M_R = 16
N_R = 4

#: int16 accumulator register for (column j, row half h): v10+2j+h
_ACC16 = {(j, h): f"v{10 + 2 * j + h}" for j in range(N_R) for h in range(2)}


def _acc32_reg(slot_group: int) -> str | None:
    """int32 accumulator v-register covering slots 4g..4g+3, or None for
    the x-register spill region (slot groups 14, 15 = col 3 rows 8..15)."""
    if slot_group < 14:
        return f"v{18 + slot_group}"
    return None


_A_REGS = ("v0", "v1")
_B_GROUPS = (("v2", "v3", "v4", "v5"), ("v6", "v7", "v8", "v9"))

#: the 8 SMLAL/SMLAL2 of one K step (one A column against 4 B values),
#: per software-pipeline group; every step of a group shares these
_MACS = tuple(
    tuple(
        Instr(op, dst=(_ACC16[(j, h)],), src=(a_reg, b_regs[j]))
        for j in range(N_R)
        for h, op in enumerate(("SMLAL_8H", "SMLAL2_8H"))
    )
    for a_reg, b_regs in zip(_A_REGS, _B_GROUPS)
)


#: x0~x3 (col 3, rows 8..15) back into v0, v1
_UNSPILL = (
    Instr("MOV_X_TO_V", dst=("v0",), src=("x0",), lane=0),
    Instr("MOV_X_TO_V", dst=("v0",), src=("x1",), lane=1),
    Instr("MOV_X_TO_V", dst=("v1",), src=("x2",), lane=0),
    Instr("MOV_X_TO_V", dst=("v1",), src=("x3",), lane=1),
)
_CLEAR16 = tuple(Instr("MOVI_ZERO", dst=(_ACC16[(j, h)],)) for j in range(N_R) for h in range(2))


def _drain() -> tuple[Instr, ...]:
    """Drain all int16 accumulators into the int32 accumulators (Alg. 1
    lines 9-13), then clear the int16 lanes."""
    out: list[Instr] = []
    # restore the spilled col-3/rows-8..15 accumulators into v0, v1
    out.extend(_UNSPILL)
    for j in range(N_R):
        for h in range(2):  # h=0: rows 0-7, h=1: rows 8-15
            src16 = _ACC16[(j, h)]
            base_slot = j * M_R + h * 8  # first of 8 int32 slots
            g0, g1 = base_slot // 4, base_slot // 4 + 1
            d0 = _acc32_reg(g0) or ("v0" if g0 == 14 else "v1")
            d1 = _acc32_reg(g1) or ("v0" if g1 == 14 else "v1")
            out.append(Instr("SADDW_4S", dst=(d0,), src=(d0, src16)))
            out.append(Instr("SADDW2_4S", dst=(d1,), src=(d1, src16)))
    out.append(Instr("MOV_V_TO_X", dst=("x0",), src=("v0",), lane=0))
    out.append(Instr("MOV_V_TO_X", dst=("x1",), src=("v0",), lane=1))
    out.append(Instr("MOV_V_TO_X", dst=("x2",), src=("v1",), lane=0))
    out.append(Instr("MOV_V_TO_X", dst=("x3",), src=("v1",), lane=1))
    out.extend(_CLEAR16)
    return tuple(out)


_DRAIN = _drain()
#: clear every accumulator (the loop counter x9 is set per kernel)
_PROLOGUE = (
    *_CLEAR16,
    *(Instr("MOVI_ZERO", dst=(f"v{18 + g}",)) for g in range(14)),
    *(Instr("MOV_X_IMM", dst=(f"x{i}",), imm=0) for i in range(4)),
)
#: merge the x-spilled accumulators and store C column-major
_EPILOGUE = (
    *(Instr("ST1_16B", src=(f"v{18 + g}",), mem=MemRef("C", g * 16)) for g in range(14)),
    *_UNSPILL,
    Instr("ST1_16B", src=("v0",), mem=MemRef("C", 14 * 16)),
    Instr("ST1_16B", src=("v1",), mem=MemRef("C", 15 * 16)),
)
_B_NE = Instr("B_NE")
#: bytes of A and B one K step reads
_STEP_BYTES = {"A": M_R, "B": N_R}


def _loads(step: int, group: int) -> tuple[Instr, Instr]:
    """The ``{LD1, LD4R}`` pair of K step ``step`` into register group ``group``."""
    return (Instr("LD1_16B", dst=(_A_REGS[group],), mem=MemRef("A", step * M_R)),
            Instr("LD4R_B", dst=_B_GROUPS[group], mem=MemRef("B", step * N_R)))


def _block(start: int, length: int, interleave: bool) -> list[Node]:
    """The ``length`` K steps from ``start``, then the drain and loop tail."""
    if interleave:
        def step(s: int, group: int, prefetch: bool) -> tuple[Instr, ...]:
            loads = _loads(start + s + 1, 1 - group) if prefetch else ()
            return (*loads, *_MACS[group])

        steps = [*_loads(start, 0), *pipelined(step, length, _STEP_BYTES)]
    else:
        steps = [Repeat((*_loads(start, 0), *_MACS[0]), length, _STEP_BYTES)]
    return [*steps, *_DRAIN, Instr("SUBS", dst=("x9",), src=("x9",), imm=length), _B_NE]


def generate_smlal_kernel(
    bits: int,
    k: int,
    *,
    interleave: bool = True,
    round_steps: int | None = None,
    allow_unsafe: bool = False,
) -> MicroKernel:
    """Generate the Alg. 1 program for a 16x4 tile over reduction length ``k``.

    The full drain blocks are one :class:`~repro.arm.loops.Repeat`, the
    steps inside a block another; a shorter final block follows.

    Parameters
    ----------
    bits:
        Operand width, 4..8.  Sets the drain interval (= unroll factor).
    k:
        Reduction length (the packed panels hold ``k`` steps).
    interleave:
        Software-pipeline the ``{LD1, LD4R}`` pair of step *s+1* ahead of
        the MACs of step *s* (the paper's prefetch interleaving).  Turning
        this off is the ablation knob for Fig. 7's analysis.
    round_steps:
        Override the drain interval.  Must be >= 1; an interval past the
        overflow-safe :func:`~repro.arm.ratios.smlal_chain_length` raises
        :class:`~repro.errors.ChainOverflowError` at construction time.
    allow_unsafe:
        Skip the chain-length validation (tests use this to build
        deliberately overflowing kernels for the overflow certification).
    """
    if bits not in SMLAL_SCHEME_BITS:
        raise UnsupportedBitsError(bits, "SMLAL scheme covers 4~8-bit")
    if k <= 0:
        raise ShapeError(f"k must be positive, got {k}")
    interval = round_steps if round_steps is not None else round_interval(bits)
    if interval < 1:
        raise ShapeError(f"round interval must be >= 1, got {interval}")
    safe = smlal_chain_length(bits)
    # the effective chain never exceeds k (the final block is shorter)
    if not allow_unsafe and min(interval, k) > safe:
        raise ChainOverflowError(bits, min(interval, k), safe, "SMLAL")

    out: list[Node] = [*_PROLOGUE, Instr("MOV_X_IMM", dst=("x9",), imm=k)]  # loop counter
    blocks, rest = divmod(k, interval)
    if blocks:
        out.append(Repeat(_block(0, interval, interleave), blocks,
                          {b: interval * d for b, d in _STEP_BYTES.items()}))
    if rest:
        out.extend(_block(blocks * interval, rest, interleave))
    out.extend(_EPILOGUE)

    return MicroKernel(
        name=f"smlal{bits}",
        code=tuple(out),
        m_r=M_R,
        n_r=N_R,
        k=k,
        bits=bits,
        a_bytes=k * M_R,
        b_bytes=k * N_R,
        c_bytes=M_R * N_R * 4,
    )
