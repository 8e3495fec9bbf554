"""Functional executor for the simulated NEON subset.

Semantics are those of the real instructions, including the property the
paper's overflow analysis hinges on: ``SMLAL``/``MLA``/``SADDW`` do **not**
saturate — results wrap modulo the lane width.  A ``check_overflow`` mode
additionally raises :class:`~repro.errors.OverflowDetected` the moment any
lane wraps, which is how tests certify that the Sec. 3.3 chain lengths are
safe (and that one-longer chains are not).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import OverflowDetected, SimulationError
from .isa import Instr, LOAD_OPS, MemRef, STORE_OPS
from .registers import RegisterFile


def _wrap(values: np.ndarray, to_dtype: np.dtype) -> np.ndarray:
    """C-style narrowing cast (modular wrap)."""
    unsigned = {np.dtype(np.int8): np.uint8, np.dtype(np.int16): np.uint16,
                np.dtype(np.int32): np.uint32}[np.dtype(to_dtype)]
    return values.astype(np.int64).astype(unsigned).view(to_dtype)


class ArmSimulator:
    """Executes instruction streams against named byte buffers.

    Parameters
    ----------
    buffers:
        Mapping of buffer name to a 1-D ``uint8``/``int8`` array.  Loads and
        stores address ``(buffer, byte offset)``; multi-byte lanes are
        little-endian, matching AArch64.
    check_overflow:
        When true, any accumulate that wraps raises
        :class:`OverflowDetected` instead of silently wrapping.
    """

    def __init__(
        self,
        buffers: Mapping[str, np.ndarray],
        *,
        check_overflow: bool = False,
    ) -> None:
        self.regs = RegisterFile()
        self.check_overflow = check_overflow
        self._buffers: dict[str, np.ndarray] = {}
        for name, buf in buffers.items():
            self.bind_buffer(name, buf)
        self.executed = 0

    def bind_buffer(self, name: str, buf: np.ndarray) -> None:
        buf = np.asarray(buf)
        if buf.ndim != 1 or buf.dtype not in (np.uint8, np.int8):
            raise SimulationError(
                f"buffer {name!r} must be 1-D uint8/int8, got "
                f"{buf.ndim}-D {buf.dtype}"
            )
        self._buffers[name] = buf.view(np.uint8)

    def buffer(self, name: str) -> np.ndarray:
        try:
            return self._buffers[name]
        except KeyError:
            raise SimulationError(f"unbound buffer {name!r}") from None

    def _mem_slice(self, mem: MemRef, nbytes: int) -> np.ndarray:
        buf = self.buffer(mem.buffer)
        if mem.offset + nbytes > buf.size:
            raise SimulationError(
                f"access [{mem.buffer}+{mem.offset}:{mem.offset + nbytes}] "
                f"overruns buffer of {buf.size} bytes"
            )
        return buf[mem.offset : mem.offset + nbytes]

    # ---- accumulate helpers -------------------------------------------------

    def _acc(self, dst_view: np.ndarray, addend: np.ndarray, what: str) -> None:
        exact = dst_view.astype(np.int64) + addend.astype(np.int64)
        wrapped = _wrap(exact, dst_view.dtype)
        if self.check_overflow and not np.array_equal(wrapped.astype(np.int64), exact):
            raise OverflowDetected(
                f"{what}: accumulator wrapped "
                f"(exact range [{exact.min()}, {exact.max()}], "
                f"lane dtype {dst_view.dtype})"
            )
        dst_view[:] = wrapped

    # ---- the dispatch --------------------------------------------------------

    def run(self, stream: list[Instr]) -> None:
        for ins in stream:
            self.step(ins)

    def step(self, ins: Instr) -> None:  # noqa: C901 - a dispatch is a dispatch
        r = self.regs
        op = ins.op
        self.executed += 1

        if op == "LD1_16B":
            r.v_bytes(ins.dst[0])[:] = self._mem_slice(ins.mem, 16)
        elif op == "LD1_8B":
            v = r.v_bytes(ins.dst[0])
            v[:8] = self._mem_slice(ins.mem, 8)
            v[8:] = 0
        elif op == "LD4R_B":
            if len(ins.dst) != 4:
                raise SimulationError("LD4R_B needs exactly 4 destination registers")
            data = self._mem_slice(ins.mem, 4)
            for i, d in enumerate(ins.dst):
                r.v_bytes(d)[:] = data[i]
        elif op == "LD1R_B":
            r.v_bytes(ins.dst[0])[:] = self._mem_slice(ins.mem, 1)[0]
        elif op == "ST1_16B":
            self._mem_slice(ins.mem, 16)[:] = r.v_bytes(ins.src[0])
        elif op == "LDR_X":
            data = self._mem_slice(ins.mem, 8)
            r.x_set(ins.dst[0], int(data.view(np.uint64)[0]))
        elif op == "STR_X":
            self._mem_slice(ins.mem, 8).view(np.uint64)[0] = np.uint64(
                r.x_get(ins.src[0])
            )

        elif op in ("SMLAL_8H", "SMLAL2_8H"):
            n = r.v_i8(ins.src[0])
            m = r.v_i8(ins.src[1])
            half = slice(8, 16) if op.startswith("SMLAL2") else slice(0, 8)
            prod = n[half].astype(np.int64) * m[half].astype(np.int64)
            self._acc(r.v_i16(ins.dst[0]), prod, op)
        elif op in ("SMLAL_4S", "SMLAL2_4S"):
            n = r.v_i16(ins.src[0])
            m = r.v_i16(ins.src[1])
            half = slice(4, 8) if op.startswith("SMLAL2") else slice(0, 4)
            prod = n[half].astype(np.int64) * m[half].astype(np.int64)
            self._acc(r.v_i32(ins.dst[0]), prod, op)
        elif op in ("SMLAL_4S_LANE", "SMLAL2_4S_LANE"):
            if ins.lane is None or not 0 <= ins.lane < 8:
                raise SimulationError(f"{op} requires a lane in [0, 8)")
            n = r.v_i16(ins.src[0])
            scalar = int(r.v_i16(ins.src[1])[ins.lane])
            half = slice(4, 8) if op.startswith("SMLAL2") else slice(0, 4)
            prod = n[half].astype(np.int64) * scalar
            self._acc(r.v_i32(ins.dst[0]), prod, op)
        elif op in ("SDOT_4S", "SDOT_4S_LANE"):
            n = r.v_i8(ins.src[0]).astype(np.int64).reshape(4, 4)
            m8 = r.v_i8(ins.src[1]).astype(np.int64).reshape(4, 4)
            if op.endswith("LANE"):
                if ins.lane is None or not 0 <= ins.lane < 4:
                    raise SimulationError("SDOT_4S_LANE requires a lane in [0, 4)")
                m8 = np.broadcast_to(m8[ins.lane], (4, 4))
            dots = (n * m8).sum(axis=1)
            self._acc(r.v_i32(ins.dst[0]), dots, op)
        elif op == "MLA_16B":
            n = r.v_i8(ins.src[0])
            m = r.v_i8(ins.src[1])
            prod = n.astype(np.int64) * m.astype(np.int64)
            self._acc(r.v_i8(ins.dst[0]), prod, op)

        elif op in ("SADDW_8H", "SADDW2_8H"):
            m = r.v_i8(ins.src[1])
            half = slice(8, 16) if op.startswith("SADDW2") else slice(0, 8)
            base = r.v_i16(ins.src[0]).astype(np.int64)
            total = base + m[half].astype(np.int64)
            wrapped = _wrap(total, np.int16)
            if self.check_overflow and not np.array_equal(
                wrapped.astype(np.int64), total
            ):
                raise OverflowDetected(f"{op}: int16 result wrapped")
            r.v_i16(ins.dst[0])[:] = wrapped
        elif op in ("SADDW_4S", "SADDW2_4S"):
            m = r.v_i16(ins.src[1])
            half = slice(4, 8) if op.startswith("SADDW2") else slice(0, 4)
            base = r.v_i32(ins.src[0]).astype(np.int64)
            total = base + m[half].astype(np.int64)
            wrapped = _wrap(total, np.int32)
            if self.check_overflow and not np.array_equal(
                wrapped.astype(np.int64), total
            ):
                raise OverflowDetected(f"{op}: int32 result wrapped")
            r.v_i32(ins.dst[0])[:] = wrapped

        elif op in ("SSHLL_8H", "SSHLL2_8H"):
            n = r.v_i8(ins.src[0])
            half = slice(8, 16) if op.startswith("SSHLL2") else slice(0, 8)
            r.v_i16(ins.dst[0])[:] = n[half].astype(np.int16)
        elif op == "AND_16B":
            r.v_bytes(ins.dst[0])[:] = r.v_bytes(ins.src[0]) & r.v_bytes(ins.src[1])
        elif op == "CNT_16B":
            r.v_bytes(ins.dst[0])[:] = np.unpackbits(
                r.v_bytes(ins.src[0])[:, None], axis=1
            ).sum(axis=1)
        elif op == "UADALP_8H":
            n = r.v_u8(ins.src[0]).astype(np.uint32)
            pair = n[0::2] + n[1::2]
            view = r.v_u16(ins.dst[0])
            total = view.astype(np.uint32) + pair
            if self.check_overflow and np.any(total > 0xFFFF):
                raise OverflowDetected("UADALP_8H: uint16 accumulator wrapped")
            view[:] = (total & 0xFFFF).astype(np.uint16)
        elif op == "UADALP_4S":
            n = r.v_u16(ins.src[0]).astype(np.uint64)
            pair = n[0::2] + n[1::2]
            view = r.v_i32(ins.dst[0]).view(np.uint32)
            total = view.astype(np.uint64) + pair
            if self.check_overflow and np.any(total > 0xFFFF_FFFF):
                raise OverflowDetected("UADALP_4S: uint32 accumulator wrapped")
            view[:] = (total & 0xFFFF_FFFF).astype(np.uint32)
        elif op == "ADD_4S":
            a = r.v_i32(ins.src[0]).astype(np.int64)
            b = r.v_i32(ins.src[1]).astype(np.int64)
            r.v_i32(ins.dst[0])[:] = _wrap(a + b, np.int32)
        elif op == "MOVI_ZERO":
            r.v_bytes(ins.dst[0])[:] = 0

        elif op == "MOV_V_TO_X":
            if ins.lane not in (0, 1):
                raise SimulationError("MOV_V_TO_X lane must be 0 or 1")
            r.x_set(ins.dst[0], int(r.v_i64(ins.src[0])[ins.lane]))
        elif op == "MOV_X_TO_V":
            if ins.lane not in (0, 1):
                raise SimulationError("MOV_X_TO_V lane must be 0 or 1")
            r.v_i64(ins.dst[0])[ins.lane] = np.int64(
                np.uint64(r.x_get(ins.src[0])).astype(np.int64)
            )
        elif op == "MOV_X_IMM":
            r.x_set(ins.dst[0], int(ins.imm or 0))

        elif op in ("SUBS", "ADD_X"):
            cur = r.x_i64(ins.src[0]) if ins.src else 0
            delta = int(ins.imm or 0)
            r.x_set(ins.dst[0], cur - delta if op == "SUBS" else cur + delta)
        elif op == "B_NE":
            pass  # streams are fully unrolled; branches are cost-only
        else:  # pragma: no cover - ALL_OPS is the gate
            raise SimulationError(f"unimplemented opcode {op}")
