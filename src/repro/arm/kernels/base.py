"""Common micro-kernel container and execution helpers."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ...errors import ShapeError
from ..isa import Instr, macs_in_stream, stream_summary
from ..loops import Node, flatten
from ..pipeline import A53_COST_TABLE, CostTable, PipelineModel, PipelineResult

if TYPE_CHECKING:
    from ..compiled import Program


@dataclass(frozen=True)
class MicroKernel:
    """A generated register-tile kernel.

    Attributes
    ----------
    name:
        Scheme identifier (``"smlal4"``, ``"mla2"``, ``"ncnn8"``, ...).
    code:
        The loop program for one C tile (:mod:`repro.arm.loops`): the K
        loop as :class:`~repro.arm.loops.Repeat` bodies between
        straight-line code.  A flat stream is a program too.
    m_r, n_r:
        Register-tile size: the kernel computes an ``m_r x n_r`` int32 tile.
    k:
        Reduction length the program was generated for.
    bits:
        Operand bit width the overflow analysis assumed.
    a_bytes, b_bytes:
        Sizes the bound panels must have (incl. any slack the loads need).
    c_bytes:
        Output buffer size; C is stored column-major
        (``slot = col * m_r + row``, 4 bytes per slot).
    """

    name: str
    code: tuple[Node, ...]
    m_r: int
    n_r: int
    k: int
    bits: int
    a_bytes: int
    b_bytes: int
    c_bytes: int

    @functools.cached_property
    def stream(self) -> tuple[Instr, ...]:
        """The flattened instruction stream (listings and the oracles)."""
        return flatten(self.code)

    def summary(self) -> dict[str, int]:
        return stream_summary(self.stream)

    @property
    def mac_lanes(self) -> int:
        return macs_in_stream(self.stream)

    def cycles(self, table: CostTable = A53_COST_TABLE) -> PipelineResult:
        """Statically schedule the program on the pipeline model."""
        return PipelineModel(table).schedule(self.code)

    @functools.cached_property
    def program(self) -> Program:
        """The program compiled for tile-batched execution, built (and the
        compiler loaded) on first use."""
        from ..compiled import compile_stream

        return compile_stream(self.code)

    def execute(
        self,
        a_panel: np.ndarray,
        b_panel: np.ndarray,
        *,
        check_overflow: bool = False,
        extra_buffers: Mapping[str, np.ndarray] | None = None,
    ) -> KernelTiles:
        """Run the program functionally on one tile or on stacked tiles.

        ``a_panel`` / ``b_panel`` are packed byte panels (int8 or uint8):
        1-D for one tile, or ``(..., bytes)`` stacks whose leading axes
        broadcast to the tile shape, so ``(m_panels, 1, bytes)`` A panels
        against ``(1, n_panels, bytes)`` B panels run a whole GEMM.  Their
        last axis must hold at least ``a_bytes`` / ``b_bytes``.  Extra
        buffers follow the same rule.

        Returns the int32 ``(*tiles, m_r, n_r)`` tile(s), carrying the
        final register file of each tile as ``.v`` and ``.x`` (see
        :class:`KernelTiles`).  Every tile runs through the compiled
        :attr:`program` in one pass; results and
        :class:`~repro.errors.OverflowDetected` match the interpreter
        (:class:`~repro.arm.simulator.ArmSimulator`) tile by tile.
        """
        buffers = {"A": _panel(self, "A", a_panel, self.a_bytes),
                   "B": _panel(self, "B", b_panel, self.b_bytes),
                   "C": np.zeros(self.c_bytes, np.uint8)}
        for name, buf in (extra_buffers or {}).items():
            buffers[name] = _panel(self, name, buf, 0)
        written, v, x = self.program.run(buffers, check_overflow=check_overflow)
        shape = v.shape[:-2]
        c = written.get("C")
        if c is None:
            c = np.zeros(shape + (self.c_bytes,), np.uint8)
        # column-major C: slot = col * m_r + row
        tiles = c.view(np.int32)[..., : self.m_r * self.n_r].reshape(
            shape + (self.n_r, self.m_r))
        out = np.ascontiguousarray(np.swapaxes(tiles, -1, -2)).view(KernelTiles)
        out.v, out.x = v, x
        return out


class KernelTiles(np.ndarray):
    """The int32 tile(s) a :meth:`MicroKernel.execute` call computed, with
    the final register file of each tile attached: ``v``, the vector
    registers as ``(*tiles, 32, 16)`` ``uint8``, and ``x``, the general
    registers as ``(*tiles, 31)`` ``uint64``."""

    v: np.ndarray | None
    x: np.ndarray | None

    def __array_finalize__(self, obj) -> None:
        self.v = getattr(obj, "v", None)
        self.x = getattr(obj, "x", None)


def _panel(kern: MicroKernel, name: str, buf: np.ndarray, need: int) -> np.ndarray:
    """``buf`` as a ``(..., bytes)`` uint8 stack, at least ``need`` bytes long."""
    buf = np.ascontiguousarray(buf)
    if buf.dtype.itemsize != 1:  # a wider element would be read as its bytes
        raise ShapeError(f"{kern.name}: {name} panel must hold bytes, got {buf.dtype}")
    buf = buf.reshape(-1) if buf.ndim < 2 else buf
    buf = buf.view(np.uint8)
    if buf.shape[-1] < need:
        raise ShapeError(
            f"{kern.name}: {name} panel {buf.shape[-1]}B < required {need}B")
    return buf
