"""Loop programs: the form in which the ARM micro-kernels are generated.

A program is a sequence of :class:`~repro.arm.isa.Instr` and
:class:`Repeat` nodes.  A repeat runs its body ``count`` times, iteration
``i`` adding ``i * stride`` to the byte offset of every memory operand on
a buffer with a stride (nested repeats add theirs too), so a K loop costs
its consumers one body, not K steps: :func:`repro.arm.compiled.compile_stream`
compiles each body once, with a step axis, and
:meth:`repro.arm.pipeline.PipelineModel.schedule` decodes it once and
fast-forwards it.  A flat stream is a program without repeats.
:func:`flatten` unrolls a program into its instruction stream, for
listings, the assembler and the oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Union

from ..errors import SimulationError
from .isa import Instr, MemRef


@dataclass(frozen=True)
class Repeat:
    """``body`` run ``count`` times, memory offsets advancing by ``strides``
    (buffer -> bytes per iteration, kept as sorted pairs)."""

    body: tuple[Node, ...]
    count: int
    strides: Mapping[str, int] | tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SimulationError(f"repeat count must be >= 1, got {self.count}")
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "strides", tuple(sorted(dict(self.strides).items())))


Node = Union[Instr, Repeat]


def flatten(program: Iterable[Node]) -> tuple[Instr, ...]:
    """The instruction stream ``program`` stands for."""
    out: list[Instr] = []
    _unroll(program, {}, out)
    return tuple(out)


def _unroll(nodes: Iterable[Node], shift: dict[str, int], out: list[Instr]) -> None:
    for node in nodes:
        if isinstance(node, Repeat):
            strides = dict(node.strides)
            for i in range(node.count):
                _unroll(node.body, {b: shift.get(b, 0) + i * strides.get(b, 0)
                                    for b in shift.keys() | strides.keys()}, out)
        elif node.mem is not None and shift.get(node.mem.buffer):
            mem = node.mem
            out.append(replace(node, mem=MemRef(mem.buffer, mem.offset + shift[mem.buffer])))
        else:
            out.append(node)


def pipelined(step, n: int, step_bytes: Mapping[str, int]) -> list[Node]:
    """``n`` K steps alternating two register groups, step ``s`` computing
    in group ``s % 2`` and, but for the last, prefetching step ``s + 1``
    into the other: ``step(s, group, prefetch)`` gives step ``s``'s
    instructions.  Pairs of steps form one :class:`Repeat` (``step_bytes``
    per step and buffer), then come the odd step and the last."""
    pairs, odd = divmod(n - 1, 2)
    out: list[Node] = []
    if pairs:
        out.append(Repeat((*step(0, 0, True), *step(1, 1, True)), pairs,
                          {b: 2 * d for b, d in step_bytes.items()}))
    if odd:
        out.extend(step(n - 2, 0, True))
    out.extend(step(n - 1, odd, False))
    return out
