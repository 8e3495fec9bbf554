"""The 2~3-bit GEMM micro-kernel: MLA + two-level SADDW.

Register allocation (Sec. 3.3, "simpler register allocation mechanism"):

* ``v0~v3``   — Matrix A (64 rows of one K column: 4 x 16 int8 lanes),
* ``v4~v7``   — Matrix B (one replicated value per step, 4-deep rotation),
* ``v8~v11``  — int8 partial accumulators (64 lanes),
* ``v12~v19`` — int16 accumulators (64 lanes),
* ``v20~v31`` — 48 of the 64 int32 accumulators,
* ``x0~x7``   — the remaining 16 int32 accumulators (rows 48~63), shuttled
  through ``v0~v3`` during the second-level drain.

The tile is 64x1.  Every K step costs 4 ``LD1`` (64 A bytes), one ``LD1R``
(1 replicated B byte) and 4 ``MLA`` (64 MACs in int8 lanes — twice the MAC
throughput of the SMLAL scheme, Sec. 3.3/3.4).  Every
``mla_chain_length(bits)`` steps (31 for 2-bit, 7 for 3-bit) the int8 lanes
drain into int16; every ``saddw_second_level_interval(bits)`` first-level
drains the int16 lanes drain into int32.
"""

from __future__ import annotations

import math

from ...errors import ChainOverflowError, ShapeError, UnsupportedBitsError
from ..isa import Instr, MemRef
from ..loops import Node, Repeat
from ..ratios import (
    MLA_SCHEME_BITS,
    mla_chain_length,
    saddw_second_level_interval,
)
from .base import MicroKernel

M_R = 64
N_R = 1

_A_REGS = ("v0", "v1", "v2", "v3")
_B_REGS = ("v4", "v5", "v6", "v7")
_ACC8 = ("v8", "v9", "v10", "v11")
_ACC16 = tuple(f"v{12 + i}" for i in range(8))


def _first_level_drain() -> tuple[Instr, ...]:
    """int8 lanes -> int16 lanes, then clear the int8 accumulators."""
    out: list[Instr] = []
    for i, a8 in enumerate(_ACC8):  # a8 holds rows 16i .. 16i+15
        out.append(Instr("SADDW_8H", dst=(_ACC16[2 * i],), src=(_ACC16[2 * i], a8)))
        out.append(
            Instr("SADDW2_8H", dst=(_ACC16[2 * i + 1],), src=(_ACC16[2 * i + 1], a8))
        )
    for a8 in _ACC8:
        out.append(Instr("MOVI_ZERO", dst=(a8,)))
    return tuple(out)


#: x0~x7 (rows 48..63) into the scratch A registers v0~v3, and back
_UNSPILL = tuple(
    Instr("MOV_X_TO_V", dst=(_A_REGS[t],), src=(f"x{2 * t + h}",), lane=h)
    for t in range(4) for h in range(2)
)
_SPILL = tuple(
    Instr("MOV_V_TO_X", dst=(f"x{2 * t + h}",), src=(_A_REGS[t],), lane=h)
    for t in range(4) for h in range(2)
)


def _second_level_drain() -> tuple[Instr, ...]:
    """int16 lanes -> int32 accumulators (v20~v31 + x0~x7 via v0~v3)."""
    out: list[Instr] = list(_UNSPILL)
    for s, a16 in enumerate(_ACC16):  # a16 holds rows 8s .. 8s+7
        g0, g1 = 2 * s, 2 * s + 1  # int32 slot groups (4 rows each)
        d0 = f"v{20 + g0}" if g0 < 12 else _A_REGS[g0 - 12]
        d1 = f"v{20 + g1}" if g1 < 12 else _A_REGS[g1 - 12]
        out.append(Instr("SADDW_4S", dst=(d0,), src=(d0, a16)))
        out.append(Instr("SADDW2_4S", dst=(d1,), src=(d1, a16)))
    out.extend(_SPILL)
    for a16 in _ACC16:
        out.append(Instr("MOVI_ZERO", dst=(a16,)))
    return tuple(out)


_DRAIN1 = _first_level_drain()
_DRAIN2 = _second_level_drain()
#: MLA of A quarter q against B rotation slot r: _MLA[r][q]
_MLA = tuple(
    tuple(Instr("MLA_16B", dst=(_ACC8[q],), src=(_A_REGS[q], b)) for q in range(4))
    for b in _B_REGS
)
#: clear every accumulator (the loop counter x9 is set per kernel)
_PROLOGUE = (
    *(Instr("MOVI_ZERO", dst=(r,)) for r in (*_ACC8, *_ACC16, *(f"v{20 + g}" for g in range(12)))),
    *(Instr("MOV_X_IMM", dst=(f"x{i}",), imm=0) for i in range(8)),
)
#: store the 64 int32 results (column-major, single column)
_EPILOGUE = (
    *(Instr("ST1_16B", src=(f"v{20 + g}",), mem=MemRef("C", g * 16)) for g in range(12)),
    *(ins for t in range(4) for ins in (
        *_UNSPILL[2 * t:2 * t + 2],
        Instr("ST1_16B", src=(_A_REGS[t],), mem=MemRef("C", (12 + t) * 16)))),
)
_B_NE = Instr("B_NE")


#: bytes of A and B one K step reads
_STEP_BYTES = {"A": M_R, "B": N_R}


def _a_loads(step: int) -> tuple[Instr, ...]:
    """The four ``LD1`` of K step ``step``'s A column, quarter q into ``v<q>``."""
    return tuple(Instr("LD1_16B", dst=(_A_REGS[q],), mem=MemRef("A", step * M_R + q * 16))
                 for q in range(4))


def _b_load(step: int) -> Instr:
    """The replicated B byte of K step ``step`` into its rotation slot."""
    return Instr("LD1R_B", dst=(_B_REGS[step % 4],), mem=MemRef("B", step * N_R))


def _steps(start: int, length: int, interleave: bool) -> list[Node]:
    """The ``length`` K steps from ``start``.  The B rotation slot is the
    step's position mod 4, so four steps at a time repeat verbatim."""
    def step(cur: int) -> tuple[Instr, ...]:
        s = cur - start
        if not interleave:
            return (*_a_loads(cur), _b_load(cur), *_MLA[cur % 4])
        # each A quarter for step s+1 loads right after the MLA that frees
        # its register; the replicated byte for step s+4 loads while step s
        # computes (software pipelining without extra registers)
        if s + 1 == length:
            return _MLA[cur % 4]
        pairs = (ins for mla, load in zip(_MLA[cur % 4], _a_loads(cur + 1)) for ins in (mla, load))
        return (*pairs, *((_b_load(cur + 4),) if s + 4 < length else ()))

    out: list[Node] = []
    if interleave:  # fill the 4-deep B rotation and the first A column
        out += [*(_b_load(start + t) for t in range(min(4, length))), *_a_loads(start)]
    # interleaved, the last four steps load less
    quads = (length - 4 * interleave) // 4
    if quads > 0:
        out.append(Repeat(tuple(ins for s in range(4) for ins in step(start + s)), quads,
                          {b: 4 * d for b, d in _STEP_BYTES.items()}))
    for cur in range(start + 4 * max(quads, 0), start + length):
        out.extend(step(cur))
    return out


def generate_mla_kernel(
    bits: int,
    k: int,
    *,
    interleave: bool = True,
    chain_steps: int | None = None,
    allow_unsafe: bool = False,
) -> MicroKernel:
    """Generate the MLA-scheme program for a 64x1 tile over reduction ``k``.

    The full first-level blocks between two second-level drains run as a
    :class:`~repro.arm.loops.Repeat` of as many blocks as it takes the B
    rotation to line up again; the steps inside a block are another.

    ``chain_steps`` overrides the first-level drain interval; an interval
    past the overflow-safe :func:`~repro.arm.ratios.mla_chain_length`
    raises :class:`~repro.errors.ChainOverflowError` at construction time
    unless ``allow_unsafe=True`` (tests use it to demonstrate overflow
    past the published chain lengths).
    """
    if bits not in MLA_SCHEME_BITS:
        raise UnsupportedBitsError(bits, "MLA scheme covers 2~3-bit")
    if k <= 0:
        raise ShapeError(f"k must be positive, got {k}")
    chain = chain_steps if chain_steps is not None else mla_chain_length(bits)
    if chain < 1:
        raise ShapeError(f"chain interval must be >= 1, got {chain}")
    safe = mla_chain_length(bits)
    if not allow_unsafe and min(chain, k) > safe:
        raise ChainOverflowError(bits, min(chain, k), safe, "MLA")
    l2_interval = saddw_second_level_interval(bits)

    def block(b: int, length: int) -> list[Node]:
        """Block ``b``: its steps, the drains due after it, the loop tail."""
        drain2 = _DRAIN2 if (b + 1) % l2_interval == 0 else ()
        return [*_steps(b * chain, length, interleave), *_DRAIN1, *drain2,
                Instr("SUBS", dst=("x9",), src=("x9",), imm=length), _B_NE]

    out: list[Node] = [*_PROLOGUE, Instr("MOV_X_IMM", dst=("x9",), imm=k)]
    full, rest = divmod(k, chain)
    period = 4 // math.gcd(chain, 4)  # blocks until the B rotation lines up
    b = 0
    while b < full:
        # the blocks before the next second-level drain, then that block
        run = min(full, (b // l2_interval + 1) * l2_interval - 1) - b
        units = run // period
        if units:
            out.append(Repeat([ins for j in range(period) for ins in block(b + j, chain)],
                              units, {n: period * chain * d for n, d in _STEP_BYTES.items()}))
        for j in range(b + units * period, min(full, b + run + 1)):
            out.extend(block(j, chain))
        b += run + 1
    if rest:
        out.extend(block(full, rest))
    if (full + (rest > 0)) % l2_interval:
        out.extend(_DRAIN2)
    out.extend(_EPILOGUE)

    return MicroKernel(
        name=f"mla{bits}",
        code=tuple(out),
        m_r=M_R,
        n_r=N_R,
        k=k,
        bits=bits,
        a_bytes=k * M_R,
        b_bytes=k * N_R,
        c_bytes=M_R * N_R * 4,
    )
