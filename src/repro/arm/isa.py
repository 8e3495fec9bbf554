"""Instruction definitions for the simulated NEON subset.

Only the instructions the paper's kernels actually use are modeled; each is
implemented functionally (compiled and tile-batched in
:mod:`repro.arm.compiled`, one at a time in the :mod:`repro.arm.simulator`
oracle) and in the cost table (:mod:`repro.arm.pipeline`).  An
:class:`Instr` is a plain record; kernel generators build lists of them
("streams"), sharing one object for an instruction they emit many times.

Opcode summary (arrangement suffixes follow A64 assembly):

========================  ====================================================
``LD1_16B / LD1_8B``      load 16 / 8 bytes into a vector register
``LD4R_B``                load 4 bytes, byte *i* replicated across all 16
                          lanes of the *i*-th destination register (the
                          load-replicate of Fig. 1b / Alg. 1)
``LD1R_B``                load 1 byte replicated across 16 lanes
``ST1_16B``               store 16 bytes
``SMLAL_8H/SMLAL2_8H``    signed 8-bit multiply, accumulate into int16 lanes
``SMLAL_4S/SMLAL2_4S``    signed 16-bit multiply, accumulate into int32 lanes
``SMLAL_4S_LANE`` (+2)    by-element form (ncnn's scheme)
``MLA_16B``               8-bit multiply-accumulate into int8 lanes
``SADDW_8H/SADDW2_8H``    widen-add int8 lanes into int16 lanes
``SADDW_4S/SADDW2_4S``    widen-add int16 lanes into int32 lanes
``SSHLL_8H/SSHLL2_8H``    sign-extend int8 lanes to int16 (shift 0)
``SDOT_4S(_LANE)``        ARMv8.2 4-way int8 dot product into int32 lanes
                          (the instruction whose *absence* on ARMv8.1
                          motivates the paper's schemes, Sec. 2.3)
``AND_16B/CNT_16B``       bitwise and / per-byte popcount (bit-serial path)
``UADALP_8H``             unsigned pairwise add-accumulate bytes -> int16
``UADALP_4S``             unsigned pairwise add-accumulate int16 -> int32
``ADD_4S``                int32 lane add
``MOVI_ZERO``             zero a vector register
``MOV_V_TO_X``            move 64-bit half of a vector register to an x reg
``MOV_X_TO_V``            move an x reg into a 64-bit half of a vector reg
``MOV_X_IMM``             load immediate into an x reg
``LDR_X / STR_X``         64-bit scalar load / store
``SUBS / B_NE / ADD_X``   scalar loop bookkeeping
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..errors import SimulationError

#: architectural register names
VREG = tuple(f"v{i}" for i in range(32))
XREG = tuple(f"x{i}" for i in range(31))

_VALID_REGS = frozenset(VREG) | frozenset(XREG)

#: opcodes grouped by implementation class (used by simulator + cost table)
LOAD_OPS = frozenset({"LD1_16B", "LD1_8B", "LD4R_B", "LD1R_B", "LDR_X"})
STORE_OPS = frozenset({"ST1_16B", "STR_X"})
MAC_OPS = frozenset(
    {
        "SMLAL_8H",
        "SMLAL2_8H",
        "SMLAL_4S",
        "SMLAL2_4S",
        "SMLAL_4S_LANE",
        "SMLAL2_4S_LANE",
        "MLA_16B",
        "SDOT_4S",
        "SDOT_4S_LANE",
    }
)
ACCUM_OPS = MAC_OPS | {"SADDW_8H", "SADDW2_8H", "SADDW_4S", "SADDW2_4S", "UADALP_8H", "UADALP_4S"}
VECTOR_OPS = ACCUM_OPS | frozenset(
    {"SSHLL_8H", "SSHLL2_8H", "AND_16B", "CNT_16B", "ADD_4S", "MOVI_ZERO"}
)
SCALAR_OPS = frozenset({"SUBS", "B_NE", "ADD_X", "MOV_X_IMM"})
MOVE_OPS = frozenset({"MOV_V_TO_X", "MOV_X_TO_V"})

ALL_OPS = LOAD_OPS | STORE_OPS | VECTOR_OPS | SCALAR_OPS | MOVE_OPS
_MEM_OPS = LOAD_OPS | STORE_OPS


@dataclass(frozen=True)
class MemRef:
    """Byte address: a named buffer plus a byte offset.

    The simulator resolves buffer names at execution time, so one generated
    stream can be re-bound to different panels / tiles.
    """

    buffer: str
    offset: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise SimulationError(f"negative memory offset {self.offset}")


@dataclass(frozen=True)
class Instr:
    """One machine instruction of the modeled subset."""

    op: str
    dst: Tuple[str, ...] = ()
    src: Tuple[str, ...] = ()
    mem: MemRef | None = None
    lane: int | None = None
    imm: int | None = None

    def __post_init__(self) -> None:
        if self.op not in ALL_OPS:
            raise SimulationError(f"unknown opcode {self.op!r}")
        for r in self.dst + self.src:
            if r not in _VALID_REGS:
                raise SimulationError(f"unknown register {r!r} in {self.op}")
        if self.op in _MEM_OPS and self.mem is None:
            raise SimulationError(f"{self.op} requires a memory operand")

    @property
    def reads(self) -> Tuple[str, ...]:
        """Registers whose values this instruction consumes.

        Accumulating ops read their destination too — that read is what the
        pipeline model treats with accumulator forwarding.
        """
        if self.op in ACCUM_OPS:
            return self.src + self.dst
        if self.op in STORE_OPS:
            return self.src
        return self.src

    @property
    def writes(self) -> Tuple[str, ...]:
        return self.dst

    def render(self) -> str:
        """Assembly-ish text (for debugging and kernel listings)."""
        parts = [self.op]
        if self.dst:
            parts.append("{" + ", ".join(self.dst) + "}")
        if self.src:
            parts.append("{" + ", ".join(self.src) + "}")
        if self.lane is not None:
            parts.append(f"[{self.lane}]")
        if self.mem is not None:
            parts.append(f"[{self.mem.buffer}+{self.mem.offset}]")
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        return " ".join(parts)


def stream_summary(stream: list[Instr]) -> dict[str, int]:
    """Histogram of opcodes in a stream (used by tests and reports)."""
    out: dict[str, int] = {}
    for ins in stream:
        out[ins.op] = out.get(ins.op, 0) + 1
    return out


def macs_in_stream(stream: list[Instr]) -> int:
    """Multiply-accumulate *lane* count of a stream.

    SMLAL_8H does 8 MACs, MLA_16B 16, the 4S forms 4.  Bit-serial CNT-based
    reduction is not counted here (its MACs are architectural, not lanes).
    """
    lanes = {
        "SDOT_4S": 16,
        "SDOT_4S_LANE": 16,
        "SMLAL_8H": 8,
        "SMLAL2_8H": 8,
        "SMLAL_4S": 4,
        "SMLAL2_4S": 4,
        "SMLAL_4S_LANE": 4,
        "SMLAL2_4S_LANE": 4,
        "MLA_16B": 16,
    }
    return sum(lanes.get(ins.op, 0) for ins in stream)
