"""Compiled, tile-batched execution of loop programs.

Every register tile of a layer runs the same branch-free loop program
(:mod:`repro.arm.loops`) on different panels, so :func:`compile_stream`
turns a program into a :class:`Program` once:

* each instruction becomes a *batch* of SSA values, one per step of the
  loops around it, so a body compiles once however often it repeats.  A
  value is a 16-byte row of a value table; a vector register is a pair of
  references to 64-bit *halves* of values, an x register one reference;
* while a body compiles, the references of one register at every step are
  plain Python, affine in the loop indices (:class:`_Compiler`), and each
  batch's operand and address arrays are built in one broadcast per block
  of batches at the end; loads gather affine addresses, and a register a
  body reads before writing it is the previous step's value (the value
  before the loop at step 0), found by one gather per nesting level;
* a register accumulated across iterations (``SMLAL``, ``MLA``,
  ``SADDW``, ``UADALP``, ``SDOT``, ``SUBS``/``ADD_X``) is a *chain*: one
  addend array and an exact cumulative sum, found by comparing each
  accumulator's references with the batch that writes it.  Partial sums
  are exact, so a lane leaves its range exactly where the interpreter
  raises, and a wrapped result is the wrapped sum;
* ``MOVI_ZERO``/``MOV_X_IMM`` bind constants, the ``MOV_V_TO_X``/
  ``MOV_X_TO_V`` spill copies re-point half references (so Alg. 1's
  accumulators spilled to x registers chain too), ``B_NE`` is cost-only,
  and each batch gets level 1 + the highest level of its inputs (a chain
  is one node, loads and stores keep their order per buffer); the batches
  of one opcode and level form a *group*.

A body that stores, or whose iterations depend on each other other than by
chains, compiles unrolled; no generated kernel has one.  :meth:`Program.run`
issues one numpy operation per group over a value table with a leading
tile axis, computing every lane exactly and wrapping it as
:meth:`repro.arm.simulator.ArmSimulator.step` does, so registers, memory
and :class:`~repro.errors.OverflowDetected` match the interpreter on the
flattened stream: a run raises exactly when some instruction wraps a lane
the interpreter checks, and the interpreter stops at the first one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from ..errors import OverflowDetected, SimulationError
from .isa import Instr
from .loops import Node, Repeat

#: tiles run in chunks whose value table and buffer copies stay under this
TABLE_BUDGET_BYTES = 32 << 20

_MASK64 = (1 << 64) - 1
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

#: bytes a load reads / a store writes
_WIDTH = {"LD1_16B": 16, "LD1_8B": 8, "LD4R_B": 4, "LD1R_B": 1, "LDR_X": 8,
          "ST1_16B": 16, "STR_X": 8}
#: accumulating ops read their destination register first
_ACC2 = frozenset({"SMLAL_8H", "SMLAL2_8H", "SMLAL_4S", "SMLAL2_4S", "SMLAL_4S_LANE",
                   "SMLAL2_4S_LANE", "SDOT_4S", "SDOT_4S_LANE", "MLA_16B"})
_ACC1 = frozenset({"UADALP_8H", "UADALP_4S"})
#: vector ops -> the number of registers they read
_COMPUTE = {**dict.fromkeys(_ACC2, 3), **dict.fromkeys(_ACC1, 2),
            **dict.fromkeys(("SADDW_8H", "SADDW2_8H", "SADDW_4S", "SADDW2_4S",
                             "AND_16B", "ADD_4S"), 2),
            **dict.fromkeys(("SSHLL_8H", "SSHLL2_8H", "CNT_16B"), 1)}
#: lane bound of the by-element forms
_LANES = {"SMLAL_4S_LANE": 8, "SMLAL2_4S_LANE": 8, "SDOT_4S_LANE": 4}

#: register indices: v0..v31 as 0..31, x0..x30 as 32..62
_VIDX = {f"v{i}": i for i in range(32)}
_XIDX = {f"x{i}": 32 + i for i in range(31)}
#: decoded kinds past the compute ones (1, 2, 3: registers read)
_LOAD, _STORE, _ZERO, _V_TO_X, _X_TO_V, _IMM, _XADD, _NOP = range(4, 12)
#: compile-time value references: batch << _REF_SHIFT | index << 1 | half;
#: batch 0 holds the constants, and a negative batch is a placeholder for
#: a register a loop body reads before it writes it (index = step)
_REF_SHIFT = 32
_REF_MASK = (1 << _REF_SHIFT) - 1
#: placeholders per loop: one per register
_SLOTS = len(_VIDX) + len(_XIDX)


def _signed64(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value >> 63 else value


class Group(NamedTuple):
    """Same-opcode batches of one level, as index arrays.

    ``lo:hi`` are the value-table halves the group writes (its outputs are
    numbered consecutively); ``ins`` holds one half-reference array per
    operand, ``(n, 2)`` for a vector register and ``(n,)`` for an x
    register.  A chain group holds whole chains: runs of ``run`` partial
    sums, each starting from its value in ``ins[0]``, laid out step-major
    (every run's first partial sum, then every run's second, ...).
    """

    op: str
    n: int
    lo: int
    hi: int
    ins: tuple[np.ndarray, ...]
    lane: np.ndarray | None = None
    buffer: str | None = None
    addr: np.ndarray | None = None  #: (n, width) byte addresses
    imm: np.ndarray | None = None
    run: int = 0


@dataclass(frozen=True)
class Program:
    """A compiled program; see the module docstring."""

    n_values: int
    groups: tuple[Group, ...]
    consts: np.ndarray  #: the first halves of the table: the constants
    v_final: np.ndarray  #: (32, 2) half references of the final v registers
    x_final: np.ndarray  #: (31,) half references of the final x registers
    extent: Mapping[str, int]  #: bytes each addressed buffer must hold
    stores: frozenset[str]  #: buffers the program writes

    def run(
        self,
        buffers: Mapping[str, np.ndarray],
        *,
        check_overflow: bool = False,
    ) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
        """Run on ``uint8`` buffers of shape ``(..., bytes)``.

        The leading axes of all buffers broadcast to the tile shape; each
        tile has its own memory and registers, which start zeroed.
        Returns ``(written, v, x)``: the final contents of every buffer the
        program stores to, ``(*tiles, bytes)``; the final vector registers,
        ``(*tiles, 32, 16)`` ``uint8``; the final x registers,
        ``(*tiles, 31)`` ``uint64``.  Unbound buffers and accesses past a
        buffer's end raise :class:`SimulationError` before any instruction
        runs.
        """
        for name, need in self.extent.items():
            if name not in buffers:
                raise SimulationError(f"unbound buffer {name!r}")
            size = buffers[name].shape[-1]
            if need > size:
                raise SimulationError(
                    f"access [{name}+{need}] overruns buffer of {size} bytes")
        used = {name: buffers[name] for name in self.extent}
        shape = np.broadcast_shapes(*(b.shape[:-1] for b in buffers.values()))
        tiles = math.prod(shape)
        rows = {name: np.broadcast_to(np.arange(math.prod(b.shape[:-1])).reshape(b.shape[:-1]),
                                      shape).reshape(-1)
                for name, b in used.items()}
        flat = {name: b.reshape(-1, b.shape[-1]) for name, b in used.items()}
        written = {name: np.empty((tiles, used[name].shape[-1]), np.uint8)
                   for name in self.stores}
        v = np.empty((tiles, 32, 16), np.uint8)
        x = np.empty((tiles, 31), np.uint64)
        per_tile = 16 * self.n_values + sum(b.shape[-1] for b in used.values())
        chunk = max(1, TABLE_BUDGET_BYTES // per_tile)
        for lo in range(0, tiles, chunk):
            hi = min(tiles, lo + chunk)
            mem = {name: flat[name][rows[name][lo:hi]] for name in used}
            table = np.empty((hi - lo, 2 * self.n_values), np.int64)
            table[:, : len(self.consts)] = self.consts
            for group in self.groups:
                _EXEC[group.op](table, mem, group, check_overflow)
            for name in self.stores:
                written[name][lo:hi] = mem[name]
            v[lo:hi] = np.take(table, self.v_final, axis=1).view(np.uint8)
            x[lo:hi] = np.take(table, self.x_final, axis=1).view(np.uint64)
        return ({name: w.reshape(shape + w.shape[1:]) for name, w in written.items()},
                v.reshape(shape + (32, 16)), x.reshape(shape + (31,)))


def _decode(ins: Instr, codes: dict, buffers: dict, templates: dict) -> tuple:
    """The static part of one instruction: its kind, group code and
    operand indices (see :func:`compile_stream`).  Memory operations
    share a template per opcode, registers and buffer; the byte offset
    comes last."""
    op = ins.op
    try:
        if op in _COMPUTE:
            reads = _COMPUTE[op]
            acc = op in _ACC2 or op in _ACC1
            if len(ins.dst) != 1 or len(ins.src) < reads - acc:
                raise IndexError
            regs = ((ins.dst[0],) if acc else ()) + ins.src
            lane = None
            if op in _LANES:
                lane = ins.lane
                if lane is None or not 0 <= lane < _LANES[op]:
                    raise SimulationError(f"{op} requires a lane in [0, {_LANES[op]})")
            return (reads, _code(codes, op, None), _VIDX[ins.dst[0]],
                    tuple(_VIDX[r] for r in regs[:reads]), lane)
        if op in _WIDTH:
            mem = ins.mem
            if mem is None:
                raise SimulationError(f"{op} requires a memory operand")
            key = (op, ins.dst, ins.src, mem.buffer)
            template = templates.get(key)
            if template is None:
                template = templates[key] = _memory_template(ins, codes, buffers)
            return (*template, mem.offset)
        if op == "MOVI_ZERO":
            return (_ZERO, _VIDX[ins.dst[0]])
        if op in ("MOV_V_TO_X", "MOV_X_TO_V"):
            if ins.lane not in (0, 1):
                raise SimulationError(f"{op} lane must be 0 or 1")
            if op == "MOV_V_TO_X":
                return (_V_TO_X, _XIDX[ins.dst[0]], _VIDX[ins.src[0]], ins.lane)
            return (_X_TO_V, _VIDX[ins.dst[0]], _XIDX[ins.src[0]], ins.lane)
        if op == "MOV_X_IMM":
            return (_IMM, _XIDX[ins.dst[0]], int(ins.imm or 0))
        if op in ("SUBS", "ADD_X"):
            delta = int(ins.imm or 0) * (-1 if op == "SUBS" else 1)
            src = _XIDX[ins.src[0]] if ins.src else None
            return (_XADD, _XIDX[ins.dst[0]], src, delta, _code(codes, "X_ADD", None))
        if op == "B_NE":
            return (_NOP,)
    except (IndexError, KeyError):
        raise SimulationError(f"malformed operands for {op}: {ins.render()!r}") from None
    raise SimulationError(f"unimplemented opcode {op}")  # pragma: no cover


def _memory_template(ins: Instr, codes: dict, buffers: dict) -> tuple:
    op, name = ins.op, ins.mem.buffer
    bid = buffers.setdefault(name, len(buffers))
    code = _code(codes, op, name)
    regs = _XIDX if op in ("LDR_X", "STR_X") else _VIDX
    if op in ("ST1_16B", "STR_X"):
        if ins.dst or not ins.src:
            raise IndexError
        return (_STORE, code, bid, regs[ins.src[0]])
    n_dst = 4 if op == "LD4R_B" else 1
    if len(ins.dst) != n_dst:
        raise SimulationError(f"{op} needs exactly {n_dst} destination register(s)")
    return (_LOAD, code, bid, tuple(regs[r] for r in ins.dst))


def _code(codes: dict, op: str, buffer: str | None) -> int:
    return codes.setdefault((op, buffer), len(codes))


def _evaluate(specs: list, dims: tuple[int, ...]) -> np.ndarray:
    """The ``(len(specs), steps)`` references of half specs (see
    :class:`_Compiler`) at every step of a loop nest of ``dims``."""
    d, n = len(dims), math.prod(dims)
    c0s, cos = zip(*specs) if specs else ((), ())
    kinds = {co: i for i, co in enumerate(dict.fromkeys(cos))}
    steps = np.array([co + (0,) * (d - len(co)) for co in kinds], np.int64).reshape(
        len(kinds), d) @ np.indices(dims).reshape(d, n)
    return np.array(c0s, np.int64).reshape(-1, 1) + steps[list(map(kinds.__getitem__, cos))]


def _table(dims: tuple, count: int, before: list, end: list, held: list) -> np.ndarray:
    """What a loop's placeholders stand for, ``(_SLOTS, steps, 2)`` raveled: a register's
    value before the loop at iteration 0, at the end of the one before at the others."""
    d, first, rest = len(dims), [], []
    for r, (b, e, p) in enumerate(zip(before, end, held)):
        for bh, (c0, co), ph in zip(b, e, p) if r < 32 else ((b, e, p),) * 2:
            first.append(bh)
            rest.append(bh if (c0, co) == ph else (c0 - co[d], co) if len(co) > d else (c0, co))
    table = _evaluate(rest, dims + (count,)).reshape(2 * _SLOTS, -1, count)
    table[:, :, 0] = _evaluate(first, dims)
    return table.reshape(_SLOTS, 2, -1).transpose(0, 2, 1).ravel()


class _Unroll(Exception):
    """Loops that store, or that chains do not carry: compile them unrolled."""


#: a zeroed v register: both halves are the constant 0
_ZEROED = ((0, ()), (1, ()))


class _Compiler:
    """Compile state: the batches so far and each register's value (v0..v31,
    then x0..x30) at the ``n`` steps of the loop nest, whose loops run
    ``dims`` iterations, outermost first.  Values are plain Python: a *half
    spec* ``(c0, co)`` stands for the references ``c0 + sum(co[k] * i_k)``,
    ``i_k`` the step's iteration of the k-th loop (missing coefficients are
    zero); a v register is a pair of them, an x register one.  A batch keeps
    a row of values per instruction; :meth:`finish` evaluates them in blocks."""

    def __init__(self, unroll: set[int]) -> None:
        self.unroll = unroll  # ids of the repeats to compile unrolled
        self.codes, self.buffers, self.decoded, self.templates = {}, {}, {}, {}
        self.consts, self.const_ref = [0], {0: 0}  # batch 0, as signed 64-bit low halves
        self.batches: list[SimpleNamespace | None] = [None]
        self.chains: list[tuple[list[int], int, int]] = []  # (members, outer, inner)
        self.last_store, self.loads = {}, {}  # per buffer: its last store, loads since
        # per load opcode and buffer: its batch in this nest; per compute
        # opcode: the batch taking independent instructions, and what they write
        self.open, self.merging, self.dirty = {}, {}, set()
        self.loops: list[tuple | None] = []  # per loop: what its placeholders stand for
        self.around, self.loop = [], None  # the loops with a step axis around; the innermost
        self.off: dict[str, tuple] = {}  # per buffer: the half spec of its address offset
        self.nest(())
        self.regs: list[tuple] = [_ZEROED] * 32 + [(0, ())] * 31

    def nest(self, dims: tuple[int, ...]) -> None:
        """Enter a loop nest of ``dims``; ``std`` gives ``2 * step``."""
        self.dims, self.n = dims, math.prod(dims)
        self.std = tuple(2 * math.prod(dims[k + 1:]) for k in range(len(dims)))

    def const(self, bits: int) -> int:
        bits = _signed64(bits)
        ref = self.const_ref.get(bits)
        if ref is None:
            ref = self.const_ref[bits] = len(self.consts) << 1
            self.consts.append(bits)
        return ref

    def batch(self, code: int, nin: int, row: tuple | None, outs: int = 1, after=()) -> int:
        """A new batch: one instruction at every step of this nest, ``row``
        its ``nin`` operands, then any extra (no instruction if None)."""
        self.batches.append(SimpleNamespace(
            code=code, nin=nin, rows=[] if row is None else [row], n=0 if row is None else self.n,
            outs=outs, loop=self.loop, after=after, dims=self.dims, start=None))
        return len(self.batches) - 1

    def out(self, b: int, at: int, outs: int = 1, k: int = 0) -> tuple:
        """Output ``k`` of batch ``b`` from entry ``at`` on, as a v register."""
        std = self.std if outs == 1 else tuple(outs * c for c in self.std)
        c0 = (b << _REF_SHIFT) + ((at * outs + k) << 1)
        return (c0, std), (c0 + 1, std)

    def block(self, nodes: Iterable[Node]) -> None:  # noqa: C901 - one dispatch
        regs = self.regs
        for node in nodes:
            if isinstance(node, Repeat):
                self.repeat(node)
                regs = self.regs
                continue
            d = self.decoded.get(id(node)) or self.decoded.setdefault(
                id(node), _decode(node, self.codes, self.buffers, self.templates))
            kind = d[0]
            if kind <= 3:  # compute: kind = registers read
                _, code, dr, srcs, lane = d
                if not self.dirty.isdisjoint(srcs):  # it reads what an open batch computes
                    self.merging, self.dirty = {}, set()
                row = tuple(map(regs.__getitem__, srcs)) + (() if lane is None else ((lane, ()),))
                b = self.merging.get(code)
                if b is None:
                    b = self.merging[code] = self.batch(code, len(srcs), row)
                    at = 0
                else:  # independent of the batch's instructions: one more of them
                    bt = self.batches[b]
                    at, bt.n = bt.n, bt.n + self.n
                    bt.rows.append(row)
                self.dirty.add(dr)
                regs[dr] = self.out(b, at)
            elif kind == _ZERO:
                regs[d[1]] = _ZEROED
            elif kind == _V_TO_X:  # a copy: batches stop taking instructions
                regs[d[1]] = regs[d[2]][d[3]]
                self.merging, self.dirty = {}, set()
            elif kind == _X_TO_V:
                _, dr, src, lane = d
                regs[dr] = (regs[src], regs[dr][1]) if lane == 0 else (regs[dr][0], regs[src])
                self.merging, self.dirty = {}, set()
            elif kind == _LOAD:  # one batch per opcode and buffer until a store
                _, code, bid, dsts, offset = d
                b = self.open.get(code)
                if b is None:
                    store = self.last_store.get(bid)
                    b = self.open[code] = self.batch(
                        code, 0, None, len(dsts), () if store is None else (store,))
                    self.loads.setdefault(bid, []).append(b)
                bt = self.batches[b]
                c0, co = self.off.get(node.mem.buffer, (0, ()))
                bt.rows.append(((c0 + offset, co),))
                for k, r in enumerate(dsts):
                    ref = self.out(b, bt.n, len(dsts), k)
                    regs[r] = ref if r < 32 else ref[0]
                bt.n += self.n
            elif kind == _STORE:  # n == 1: bodies with stores unroll
                if self.around:
                    raise _Unroll(*self.around)
                _, code, bid, src, offset = d
                addr = (self.off.get(node.mem.buffer, (0, ()))[0] + offset, ())
                after = [*self.loads.pop(bid, ()), *filter(None, [self.last_store.get(bid)])]
                self.last_store[bid] = self.batch(code, 1, (regs[src], addr), 0, after)
                self.open, self.merging, self.dirty = {}, {}, set()
            elif kind == _IMM:
                regs[d[1]] = (self.const(d[2]), ())
            elif kind == _XADD:
                _, dr, src, delta, code = d
                h = regs[src] if src is not None else (0, ())
                regs[dr] = self.out(self.batch(code, 1, (h, (_signed64(delta), ()))), 0)[0]
            # _NOP: B_NE is cost-only

    def repeat(self, rep: Repeat) -> None:
        count, strides, outer_off = rep.count, dict(rep.strides), self.off
        off = {b: outer_off.get(b, (0, ())) for b in outer_off.keys() | strides.keys()}
        if id(rep) in self.unroll:
            for i in range(count):
                self.off = {b: (c0 + i * strides.get(b, 0), co) for b, (c0, co) in off.items()}
                self.block(rep.body)
            self.off = outer_off
            return
        dims, d = self.dims, len(self.dims)
        self.off = {b: (c0, co + (0,) * (d - len(co)) + (strides.get(b, 0),))
                    for b, (c0, co) in off.items()}
        # every register is a placeholder in the body: its value at the
        # step before, the value before the loop at step 0
        base, before = len(self.loops) * _SLOTS, self.regs
        self.loops.append(None)
        self.nest(dims + (count,))
        held = [((c, self.std), (c + 1, self.std)) if r < 32 else (c, self.std)
                for r in range(_SLOTS) for c in [(-1 - base - r) << _REF_SHIFT]]
        saved, self.regs = (self.loop, self.open), list(held)
        self.loop, self.open, self.merging, self.dirty = rep, {}, {}, set()
        self.around.append(rep)
        first = len(self.batches)
        self.block(rep.body)
        end, _ = self.regs, self.around.pop()
        self.loops[base // _SLOTS] = (dims, count, before, end, held)
        if count > 1:
            self.chains += self.find_chains(rep, first, base, before, end)

        def settle(spec: tuple, c: int) -> tuple:  # at iteration c, in the nest around
            while True:
                c0, co = spec
                r = -1 - base - (c0 >> _REF_SHIFT)
                if not 0 <= r < _SLOTS:  # not a placeholder of this loop
                    return (c0 + co[d] * c, co[:d]) if len(co) > d else spec
                e = end[r][c0 & 1] if r < 32 else end[r]
                if c == 0 or e == spec:
                    return before[r][c0 & 1] if r < 32 else before[r]
                spec, c = e, c - 1

        last = count - 1
        self.regs = [b if e is p else (settle(e[0], last), settle(e[1], last)) if r < 32
                     else settle(e, last) for r, (b, e, p) in enumerate(zip(before, end, held))]
        self.nest(dims)
        (self.loop, self.open), self.off = saved, outer_off
        self.merging, self.dirty = {}, set()

    def find_chains(self, rep: Repeat, first: int, base: int, before: list, end: list) -> list:
        """The accumulating chains along ``rep``'s step axis: batches of one
        accumulating op, each reading the one before as its accumulator
        at the same step, the first reading the last at the step before
        (and the value before the loop at step 0)."""
        n, inner, std, batches = self.n, rep.count, self.std, self.batches
        ops = {code: key[0] for key, code in self.codes.items()}

        def accumulators(bt: SimpleNamespace) -> list:
            return [(row[0],) if ops[bt.code] == "X_ADD" else row[0] for row in bt.rows]

        def held(spec: tuple, regs: list) -> tuple | None:  # a placeholder's register in regs
            r = -1 - base - (spec[0] >> _REF_SHIFT)
            return None if not 0 <= r < _SLOTS else regs[r][spec[0] & 1] if r < 32 else regs[r]

        def link(b: int, back: int) -> int | None:
            """The batch whose values batch ``b``'s accumulators hold,
            ``back`` steps before, each instruction's its own."""
            accs = accumulators(batches[b])
            if back:  # a placeholder is its register at the end of the step before
                accs = [[held(h, end) for h in halves] for halves in accs]
                if any(e is None or held(e, end) for halves in accs for e in halves):
                    return None
            t, bt = accs[-1][-1][0] >> _REF_SHIFT, batches[b]
            if (bt.start is not None or t < first
                    or (batches[t].code, batches[t].n, batches[t].loop) != (bt.code, bt.n, rep)):
                return None
            return t if all(h == ((t << _REF_SHIFT) + (q * n << 1) + i, std)
                            for q, hs in enumerate(accs) for i, h in enumerate(hs)) else None

        chains = []
        for head in range(first, len(batches)):
            bt = batches[head]
            if (bt.loop is rep and not bt.n % n and ops[bt.code] in _ACCUMULATE
                    and bt.start is None and accumulators(bt)[-1][-1][0] < 0):
                # a head reads its register before writing it
                members = [link(head, 1)]
                while members[-1] is not None and head < members[-1]:
                    members.append(link(members[-1], 0))
                if members[-1] == head:
                    # the links' accumulators are the chain itself: keep
                    # only its value before the loop, at each outer step
                    start = [tuple(held(h, before) for h in halves) for halves in accumulators(bt)]
                    for m in members:
                        batches[m].start = [s for s, in start] if ops[bt.code] == "X_ADD" else start
                    chains.append((members[::-1], n // inner, inner))
        return chains

    def finish(self) -> Program:  # noqa: C901 - levels, groups, layout
        batches, nb = self.batches, len(self.batches)
        ops = {code: key for key, code in self.codes.items()}
        root = np.arange(nb)  # a chain is one node: its first batch
        chains = {members[0]: (members, outer, inner) for members, outer, inner in self.chains}
        for members, _, _ in self.chains:
            root[members] = members[0]

        # every operand (references) and extra (lanes, immediates, offsets),
        # evaluated a block at a time: the half specs of one kind, nest and
        # width, laid out instruction by instruction, step by step, half by half
        blocks: dict[tuple, tuple[list, list]] = {}
        for b in range(1, nb):
            bt = batches[b]
            wide = 1 if ops[bt.code][0] in ("X_ADD", "STR_X") else 2
            for k in range(len(bt.rows[0])):
                start = k == 0 < bt.nin and bt.start is not None
                values = bt.start if start else [row[k] for row in bt.rows]
                key = (k < bt.nin, bt.dims[:-1] if start else bt.dims, wide if k < bt.nin else 1)
                specs, fields = blocks.setdefault(key, ([], []))
                fields.append((b, k, len(specs), len(values)))
                specs.extend(chain.from_iterable(values) if key[2] == 2 else values)
        flats, span, size = {True: [], False: []}, {}, {True: 0, False: 0}
        for (ref, dims, w), (specs, fields) in blocks.items():
            a = _evaluate(specs, dims)
            for b, k, row, m in fields:
                steps = a.shape[1]
                s0 = size[ref] + row * steps
                span[b, k] = (ref, s0, s0 + m * w * steps, (m * steps, w)[:w])
            size[ref] += a.size
            flats[ref].append(a.reshape(-1, w, a.shape[1]).transpose(0, 2, 1).ravel())
        flat, extras = (np.concatenate(flats[k] or [np.zeros(0, np.int64)]) for k in (True, False))

        # every reference with its placeholders replaced by what they stand for
        tables = [_table(*loop) for loop in self.loops]
        table = np.concatenate(tables) if tables else np.zeros(0, np.int64)
        t_start = np.cumsum([0] + [t.size for t in tables])
        t_width = np.array([t.size // (2 * _SLOTS) for t in tables], np.int64)  # steps
        held = np.flatnonzero(flat < 0)
        while held.size:  # one gather per nesting level
            loop, reg = np.divmod(-1 - (flat[held] >> _REF_SHIFT), _SLOTS)
            flat[held] = table[t_start[loop] + 2 * reg * t_width[loop] + (flat[held] & _REF_MASK)]
            held = held[flat[held] < 0]
        ids = root[flat >> _REF_SHIFT]  # the node each reference reads

        # the nodes each node reads: an operand mostly reads one
        deps: list[set[int]] = [set() for _ in range(nb)]
        nodes = root.tolist()
        for b in range(1, nb):
            deps[nodes[b]].update(nodes[d] for d in batches[b].after)
        operands = sorted((s0, s1, b) for (b, _), (ref, s0, s1, _) in span.items() if ref)
        if operands:
            cuts = [s0 for s0, _, _ in operands]
            low, high = (f.reduceat(ids, cuts).tolist() for f in (np.minimum, np.maximum))
            for (s0, s1, b), lo, hi in zip(operands, low, high):
                seg = ids[s0:s1]
                deps[nodes[b]].update((lo, hi) if lo == hi or ((seg == lo) | (seg == hi)).all()
                                      else seg.tolist())
        # levels: passes in creation order until none changes (reads of
        # later batches are a loop's shifts); a cycle never settles
        level = [0] * nb
        order = [(b, [d for d in deps[b] if d]) for b in range(1, nb) if nodes[b] == b]
        for _ in range(len(order) + 1):
            changed = None
            for b, ds in order:
                lv = 1 + max([level[d] for d in ds], default=0)
                if lv != level[b]:
                    level[b] = lv
                    changed = b if changed is None else changed
            if changed is None:
                break
        else:
            raise _Unroll(batches[changed].loop)

        # lay the groups out in execution order; a chain group's values
        # step-major, every run's l-th partial sum next to the others' l-th
        keyed: dict[tuple, list[list[int]]] = {}
        for b in range(1, nb):
            if nodes[b] == b:
                members, _, inner = chains.get(b, ([b], 1, 0))
                op, buffer = ops[batches[b].code]
                keyed.setdefault((level[b], op, buffer or "", len(members) * inner),
                                 []).append(members)
        # value i of batch b sits at base + (i % wrap) * step + i // wrap
        base, wrap, step = [0] * nb, [1 << 40] * nb, [1] * nb
        n_values = len(self.consts)
        for key in sorted(keyed):
            run = key[3]
            if not run:
                for (b,) in keyed[key]:
                    base[b] = n_values
                    n_values += batches[b].n * batches[b].outs
                continue
            runs = sum(batches[ms[0]].n * len(ms) // run for ms in keyed[key])
            first = n_values
            for members in keyed[key]:
                m = len(members)
                for j, b in enumerate(members):
                    base[b], wrap[b], step[b] = first + j * runs, run // m, m * runs
                first += batches[members[0]].n * m // run
            n_values += runs * run
        base, wrap, step = (np.array(a, np.int64) for a in (base, wrap, step))

        def halves(refs: np.ndarray) -> np.ndarray:
            b = refs >> _REF_SHIFT
            out = (2 * base)[b] + (refs & _REF_MASK)  # i // wrap is 0 outside chains
            chained = wrap[b] < 1 << 40
            b, i = b[chained], (refs[chained] & _REF_MASK) >> 1
            out[chained] += 2 * (i % wrap[b] * (step[b] - 1) + i // wrap[b] * (1 - wrap[b]))
            return out

        flat = halves(flat)

        def field(b: int, k: int) -> np.ndarray:
            ref, s0, s1, shape = span[b, k]
            return (flat if ref else extras)[s0:s1].reshape(shape)

        def joined(parts: list[list[int]], k: int, run: int = 0) -> np.ndarray:
            """Field ``k`` of every batch of a group, in its layout."""
            if not run:
                each = [field(members[0], k) for members in parts]
                return each[0] if len(each) == 1 else np.concatenate(each)
            each = [np.stack([field(m, k) for m in members], axis=1) for members in parts]
            steps = [np.moveaxis(a.reshape((-1, run // a.shape[1]) + a.shape[1:]), 0, 2)
                     .reshape((run, -1) + a.shape[2:]) for a in each]
            return np.concatenate(steps, axis=1).reshape((-1,) + each[0].shape[2:])

        groups, extent = [], {}
        for (_, op, buffer, run), parts in sorted(keyed.items()):
            first = batches[parts[0][0]]
            ins = tuple(joined(parts, k, run) for k in range(bool(run), first.nin))
            if run:  # each run starts from its chain's value before the loop
                ins = (joined([members[:1] for members in parts], 0), *ins)
            extra = joined(parts, first.nin, run) if len(first.rows[0]) > first.nin else None
            addr = None
            if buffer:
                addr = extra[:, None] + np.arange(_WIDTH[op])
                if extra.min() < 0:
                    raise SimulationError(f"negative memory offset {extra.min()} on {buffer!r}")
                extent[buffer] = max(extent.get(buffer, 0), int(extra.max()) + _WIDTH[op])
            n, lo = sum(batches[m].n for ms in parts for m in ms), 2 * int(base[parts[0][0]])
            groups.append(Group(
                op, n, lo, lo + 2 * n * first.outs, ins,
                lane=extra if op in _LANES else None, buffer=buffer or None, addr=addr,
                imm=extra if op == "X_ADD" else None, run=run))

        names = {bid: name for name, bid in self.buffers.items()}
        return Program(
            n_values=n_values,
            groups=tuple(groups),
            consts=np.asarray([[c, 0] for c in self.consts], np.int64).reshape(-1),
            v_final=halves(np.array([[lo[0], hi[0]] for lo, hi in self.regs[:32]], np.int64)),
            x_final=halves(np.array([x[0] for x in self.regs[32:]], np.int64)),
            extent=extent,
            stores=frozenset(names[bid] for bid in self.last_store),
        )


def compile_stream(program: Iterable[Node]) -> Program:
    """Compile a loop program, or a flat stream (a program without
    repeats), into a :class:`Program` (see the module docstring).

    Malformed instructions (a lane out of range, a register of the wrong
    kind, a missing operand) raise :class:`SimulationError` here, before
    anything runs.

    While compiling, a value is referenced as ``batch << _REF_SHIFT |
    index << 1 | half`` (batch 0 holds the constants); once every batch
    has its level the references become positions in the value table.
    """
    program = tuple(program)  # keeps every node alive while ids key the decode
    unroll: set[int] = set()
    while True:
        compiler = _Compiler(unroll)
        try:
            compiler.block(program)
            return compiler.finish()
        except _Unroll as exc:
            unroll.update(map(id, exc.args))


# ---------------------------------------------------------------------------
# group execution: one numpy operation per group, over (tiles, n, lanes)
# ---------------------------------------------------------------------------


def _read(table: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The 16 bytes of each referenced register, ``(tiles, n, 16)``."""
    return np.take(table, pairs, axis=1).view(np.uint8)


def _read_half(table: np.ndarray, pairs: np.ndarray, g: Group, dtype) -> np.ndarray:
    """The 8 bytes of each register that a half-width op reads, as
    ``dtype`` lanes: the upper half for the ``2`` forms, ``(tiles, n, lanes)``."""
    half = pairs[:, 1] if "2_" in g.op else pairs[:, 0]
    return np.take(table, half, axis=1)[..., None].view(dtype)


def _write(table: np.ndarray, g: Group, lanes: np.ndarray) -> None:
    table[:, g.lo:g.hi] = np.ascontiguousarray(lanes).reshape(len(table), -1).view(np.int64)


def _smlal_8h(t, g):
    return _read_half(t, g.ins[1], g, np.int8).astype(np.int16) * _read_half(t, g.ins[2], g, np.int8)


def _smlal_4s(t, g):
    n = _read_half(t, g.ins[1], g, np.int16).astype(np.int32)
    if g.lane is None:
        return n * _read_half(t, g.ins[2], g, np.int16)
    return n * _read(t, g.ins[2]).view(np.int16)[:, np.arange(g.n), g.lane][..., None]


def _sdot_4s(t, g):
    tiles = len(t)
    n = _read(t, g.ins[1]).view(np.int8).reshape(tiles, g.n, 4, 4).astype(np.int32)
    m = _read(t, g.ins[2]).view(np.int8).reshape(tiles, g.n, 4, 4)
    if g.lane is not None:
        m = m[:, np.arange(g.n), g.lane][:, :, None, :]
    return (n * m).sum(axis=-1)


def _mla_16b(t, g):
    return _read(t, g.ins[1]).view(np.int8).astype(np.int16) * _read(t, g.ins[2]).view(np.int8)


def _uadalp_8h(t, g):
    n = _read(t, g.ins[1])
    return n[..., 0::2].astype(np.int16) + n[..., 1::2]


def _uadalp_4s(t, g):
    n = _read(t, g.ins[1]).view(np.uint16)
    return n[..., 0::2].astype(np.int32) + n[..., 1::2]


#: accumulating ops: lane type, and the exact addend each lane receives, in
#: the narrowest type that holds it (at most 2**30 in magnitude, but X_ADD's)
_ACCUMULATE = {
    "SMLAL_8H": (np.int16, _smlal_8h), "SMLAL2_8H": (np.int16, _smlal_8h),
    **dict.fromkeys(("SMLAL_4S", "SMLAL2_4S", "SMLAL_4S_LANE", "SMLAL2_4S_LANE"),
                    (np.int32, _smlal_4s)),
    "SDOT_4S": (np.int32, _sdot_4s), "SDOT_4S_LANE": (np.int32, _sdot_4s),
    "MLA_16B": (np.int8, _mla_16b),
    **dict.fromkeys(("SADDW_8H", "SADDW2_8H"),
                    (np.int16, lambda t, g: _read_half(t, g.ins[1], g, np.int8))),
    **dict.fromkeys(("SADDW_4S", "SADDW2_4S"),
                    (np.int32, lambda t, g: _read_half(t, g.ins[1], g, np.int16))),
    "UADALP_8H": (np.uint16, _uadalp_8h), "UADALP_4S": (np.uint32, _uadalp_4s),
    # SUBS / ADD_X on a value known only at run time: 64-bit, never checked
    "X_ADD": (np.int64, lambda t, g: np.broadcast_to(g.imm[:, None], (len(t), g.n, 1))),
}


def _lanes(table: np.ndarray, refs: np.ndarray, dtype) -> np.ndarray:
    """Registers (``(n, 2)`` refs) or x registers (``(n,)``) as lanes."""
    values = np.take(table, refs, axis=1)
    return (values if refs.ndim == 2 else values[..., None]).view(dtype)


def _accumulate(t, mem, g, check):
    """Add each lane's addend exactly, chains by a cumulative sum along
    their steps; wrap to the lane type, which in checking mode raises
    :class:`OverflowDetected` if any partial sum leaves its range."""
    dtype, addend = _ACCUMULATE[g.op]
    # int32 holds every sum of an 8- or 16-bit lane and up to 2**16 addends
    wide = np.int32 if np.dtype(dtype).itemsize < 4 and g.run <= 1 << 16 else np.int64
    add = addend(t, g)
    if not g.run:
        exact = _lanes(t, g.ins[0], dtype) + add.astype(wide, copy=False)
    else:
        tiles, lanes = add.shape[0], add.shape[-1]
        exact = add.reshape(tiles, g.run, -1).astype(wide)
        exact[:, 0] += _lanes(t, g.ins[0], dtype).reshape(tiles, -1)
        if exact.size < 256 * g.run:  # small steps: one cumulative sum
            exact = np.cumsum(exact, axis=1, dtype=wide)
        else:  # a step at a time, each a contiguous row per tile
            for step in range(1, g.run):
                exact[:, step] += exact[:, step - 1]
        exact = exact.reshape(tiles, -1, lanes)
    if dtype is np.int64:  # an x register: the upper half is zero
        exact = np.concatenate([exact, np.zeros_like(exact)], axis=-1)
    elif check:
        low, high = exact.min(), exact.max()
        if low < np.iinfo(dtype).min or high > np.iinfo(dtype).max:
            raise OverflowDetected(f"{g.op}: accumulator wrapped (exact range [{low}, {high}], "
                                   f"lane dtype {np.dtype(dtype)})")
    _write(t, g, exact.astype(dtype))


def _load8(t, mem, g):  # LD1_8B / LDR_X: 8 bytes, the upper half zeroed
    data = np.take(mem[g.buffer], g.addr, axis=1)
    return np.concatenate([data, np.zeros_like(data)], axis=-1)


#: the other ops: the lanes each instruction's value holds
_VALUES = {
    "SSHLL_8H": lambda t, mem, g: _read_half(t, g.ins[0], g, np.int8).astype(np.int16),
    "AND_16B": lambda t, mem, g: np.take(t, g.ins[0], axis=1) & np.take(t, g.ins[1], axis=1),
    "CNT_16B": lambda t, mem, g: _POPCOUNT8[_read(t, g.ins[0])],
    # wraps silently, as the interpreter does
    "ADD_4S": lambda t, mem, g: _read(t, g.ins[0]).view(np.int32) + _read(t, g.ins[1]).view(
        np.int32),
    "LD1_16B": lambda t, mem, g: np.take(mem[g.buffer], g.addr, axis=1),
    "LD1_8B": _load8, "LDR_X": _load8,
    # LD1R_B / LD4R_B: each byte to all 16 lanes
    "LD1R_B": lambda t, mem, g: np.repeat(np.take(mem[g.buffer], g.addr, axis=1)[..., None],
                                          16, axis=-1),
}
_VALUES["SSHLL2_8H"], _VALUES["LD4R_B"] = _VALUES["SSHLL_8H"], _VALUES["LD1R_B"]


def _st1_16b(t, mem, g, check):
    mem[g.buffer][:, g.addr] = _read(t, g.ins[0])


def _str_x(t, mem, g, check):
    mem[g.buffer][:, g.addr] = np.take(t, g.ins[0], axis=1).view(np.uint8).reshape(len(t), g.n, 8)


_EXEC: dict[str, Callable[[np.ndarray, dict, Group, bool], None]] = {
    **dict.fromkeys(_ACCUMULATE, _accumulate),
    **{op: lambda t, mem, g, check, f=f: _write(t, g, f(t, mem, g)) for op, f in _VALUES.items()},
    "ST1_16B": _st1_16b, "STR_X": _str_x,
}
