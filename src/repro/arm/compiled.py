"""Compiled, tile-batched execution of loop programs.

Every register tile of a layer runs the same branch-free loop program
(:mod:`repro.arm.loops`) on different panels, so :func:`compile_stream`
turns a program into a :class:`Program` once:

* each instruction becomes a *batch* of SSA values, one per step of the
  loops around it, so a body compiles once however often it repeats.  A
  value is a 16-byte row of a value table; a vector register is a pair of
  references to 64-bit *halves* of values, an x register one reference;
* loads gather their affine addresses along the step axis, and a register
  a body reads before writing it is the previous step's value (the value
  before the loop at step 0): a shift along the axis;
* a register accumulated across iterations (``SMLAL``, ``MLA``,
  ``SADDW``, ``UADALP``, ``SDOT``, ``SUBS``/``ADD_X``) is a *chain*: one
  addend array and an exact cumulative sum.  Partial sums are exact, so a
  lane leaves its range exactly where the interpreter raises, and a
  wrapped result is the wrapped sum;
* ``MOVI_ZERO``/``MOV_X_IMM`` bind constants, the ``MOV_V_TO_X``/
  ``MOV_X_TO_V`` spill copies re-point half references (so Alg. 1's
  accumulators spilled to x registers chain too), and ``B_NE`` is
  cost-only;
* each batch gets level 1 + the highest level of its inputs (a chain is
  one node), loads and stores ordered per buffer, and the batches of one
  opcode and level form a *group* of index arrays.

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
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from ..errors import OverflowDetected, SimulationError
from .isa import STORE_OPS, Instr
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
_REG = {**_VIDX, **_XIDX}
#: decoded kinds past the compute ones (1, 2, 3: registers read)
_LOAD, _STORE, _ZERO, _V_TO_X, _X_TO_V, _IMM, _XADD, _NOP = range(4, 12)
#: compile-time value references: batch << _REF_SHIFT | index << 1 | half;
#: batch 0 holds the constants, and a negative batch is a placeholder for
#: a register a loop body reads before it writes it (index = step)
_REF_SHIFT = 32
_REF_MASK = (1 << _REF_SHIFT) - 1
#: placeholders per loop: one per register
_SLOTS = len(_REG)


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
                    *(_VIDX[r] for r in regs[:reads]), lane)
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


def _registers(rep: Repeat, scans: dict) -> tuple[list[int], set[int], bool]:
    """The registers ``rep``'s body uses and those it writes (v0..v31 as
    0..31, x0..x30 as 32..62), and whether it stores; kept in ``scans``."""
    if id(rep) not in scans:
        used, written, stores = set(), set(), False
        for n in rep.body:
            u, w, st = (_registers(n, scans) if isinstance(n, Repeat) else (
                [_REG[r] for r in n.src + n.dst], {_REG[r] for r in n.dst}, n.op in STORE_OPS))
            used.update(u)
            written |= w
            stores |= st
        scans[id(rep)] = (sorted(used), written, stores)
    return scans[id(rep)]


def _freeze(bt: SimpleNamespace) -> None:
    """Join a batch's per-instruction operand and extra arrays."""
    if isinstance(bt.ins, list):
        bt.ins = tuple(c[0] if len(c) == 1 else np.concatenate(c) for c in bt.ins)
    if isinstance(bt.extra, list):
        bt.extra = np.concatenate(bt.extra)


class _Unroll(Exception):
    """A loop body whose iterations depend on each other other than by
    chains: compile again with the loop unrolled."""


class _Compiler:
    """Compile state: the batches so far and, per register (v0..v31, then
    x0..x30), the references of its value at each of the ``n`` steps of
    the current loop nest, ``(n, 2)`` halves for a v register and ``(n,)``
    for an x register."""

    def __init__(self, unroll: set[int]) -> None:
        self.unroll = unroll  # ids of the repeats to compile unrolled
        self.codes: dict[tuple[str, str | None], int] = {}
        self.buffers: dict[str, int] = {}
        self.decoded: dict[int, tuple] = {}
        self.templates: dict[tuple, tuple] = {}
        self.consts, self.const_ref = [0], {0: 0}  # batch 0, as signed 64-bit low halves
        self.batches: list[SimpleNamespace | None] = [None]
        self.chains: list[tuple[list[int], int, int]] = []  # (members, outer, inner)
        self.last_store: dict[int, int] = {}
        self.loads: dict[int, list[int]] = {}  # loads since the last store
        # per load opcode and buffer: its batch in this nest; per compute
        # opcode: the batch taking independent instructions, and what they write
        self.open: dict[int, int] = {}
        self.merging: dict[int, int] = {}
        self.dirty: set[int] = set()
        self.tables: list[np.ndarray | None] = []  # per loop: what its placeholders stand for
        self.scans: dict[int, tuple] = {}  # per repeat: the registers it uses and writes
        self.loop: Repeat | None = None
        self.off: dict[str, np.ndarray | int] = {}  # per buffer: address offset per step
        self.nest(1)
        self.regs = [self.zero] * 32 + [self.zero[:, 0]] * 31

    def nest(self, n: int) -> None:
        """Enter a loop nest of ``n`` steps."""
        self.n = n
        self.steps = np.arange(n, dtype=np.int64) << 1  # index << 1 of each step
        self.pairs = self.steps[:, None] | np.array([0, 1])
        self.zero = np.zeros_like(self.pairs) | np.array([0, 1])

    def const(self, bits: int) -> int:
        bits = _signed64(bits)
        ref = self.const_ref.get(bits)
        if ref is None:
            ref = self.const_ref[bits] = len(self.consts) << 1
            self.consts.append(bits)
        return ref

    def batch(self, code: int, ins: tuple, extra=None, outs: int = 1, after=()) -> int:
        """A new batch: one instruction at every step of this nest.  Its
        operands and extras are lists of arrays, one per instruction,
        until :func:`_freeze` joins them."""
        self.batches.append(SimpleNamespace(
            code=code, n=self.n, ins=[[a] for a in ins], extra=None if extra is None else [extra],
            outs=outs, loop=self.loop, after=after))
        return len(self.batches) - 1

    def out(self, b: int, k: int = 0, outs: int = 1, at: int = 0) -> np.ndarray:
        """The ``(n, 2)`` half references of output ``k`` of batch ``b``,
        whose values for this nest start at entry ``at``."""
        if outs == 1:
            return (b << _REF_SHIFT) | (self.pairs + 2 * at if at else self.pairs)
        return (b << _REF_SHIFT) | (self.pairs + self.steps[:, None] * (outs - 1)
                                    + 2 * (at * outs + k))

    def block(self, nodes: Iterable[Node]) -> None:  # noqa: C901 - one dispatch
        regs = self.regs
        for node in nodes:
            if isinstance(node, Repeat):
                self.repeat(node)
                regs = self.regs
                continue
            d = self.decoded.get(id(node))
            if d is None:
                d = self.decoded[id(node)] = _decode(
                    node, self.codes, self.buffers, self.templates)
            kind = d[0]
            if kind <= 3:  # compute: kind = registers read
                _, code, dr, *srcs, lane = d
                if self.dirty.intersection(srcs):  # it reads what an open batch computes
                    self.merging, self.dirty = {}, set()
                ins = tuple(regs[r] for r in srcs)
                extra = None if lane is None else np.full(self.n, lane)
                b = self.merging.get(code)
                if b is None:
                    b = self.merging[code] = self.batch(code, ins, extra)
                    at = 0
                else:  # independent of the batch's instructions: one more of them
                    bt = self.batches[b]
                    at, bt.n = bt.n, bt.n + self.n
                    for chunks, a in zip(bt.ins, ins):
                        chunks.append(a)
                    if extra is not None:
                        bt.extra.append(extra)
                self.dirty.add(dr)
                regs[dr] = self.out(b, 0, 1, at)
            elif kind == _ZERO:
                regs[d[1]] = self.zero
            elif kind == _V_TO_X:  # a copy: batches stop taking instructions
                regs[d[1]] = regs[d[2]][:, d[3]]
                self.merging, self.dirty = {}, set()
            elif kind == _X_TO_V:
                _, dr, src, lane = d
                regs[dr] = regs[dr].copy()
                regs[dr][:, lane] = regs[src]
                self.merging, self.dirty = {}, set()
            elif kind == _LOAD:  # one batch per opcode and buffer until a store
                _, code, bid, dsts, offset = d
                b = self.open.get(code)
                if b is None:
                    store = self.last_store.get(bid)
                    b = self.open[code] = self.batch(
                        code, (), None, len(dsts), () if store is None else (store,))
                    self.batches[b].n, self.batches[b].extra = 0, []
                    self.loads.setdefault(bid, []).append(b)
                bt = self.batches[b]
                bt.extra.append(self.off.get(node.mem.buffer, 0) + np.full(self.n, offset))
                for k, r in enumerate(dsts):
                    ref = self.out(b, k, len(dsts), bt.n)
                    regs[r] = ref if r < 32 else ref[:, 0]
                bt.n += self.n
            elif kind == _STORE:  # n == 1: bodies with stores unroll
                _, code, bid, src, offset = d
                addr = offset + self.off.get(node.mem.buffer, 0) + np.zeros(1, np.int64)
                after = [*self.loads.pop(bid, ()), *filter(None, [self.last_store.get(bid)])]
                self.last_store[bid] = self.batch(code, (regs[src],), addr, 0, after)
                self.open, self.merging, self.dirty = {}, {}, set()
            elif kind == _IMM:
                regs[d[1]] = np.full(self.n, self.const(d[2]))
            elif kind == _XADD:
                _, dr, src, delta, code = d
                h = regs[src] if src is not None else self.zero[:, 0]
                extra = np.full(self.n, _signed64(delta))
                regs[dr] = self.out(self.batch(code, (h,), extra))[:, 0]
            # _NOP: B_NE is cost-only

    def repeat(self, rep: Repeat) -> None:
        outer_n, count, outer_off = self.n, rep.count, self.off
        strides = dict(rep.strides)
        names = outer_off.keys() | strides.keys()
        used, written, stores = _registers(rep, self.scans)
        if id(rep) in self.unroll or stores:
            for i in range(count):
                self.off = {b: outer_off.get(b, 0) + i * strides.get(b, 0) for b in names}
                self.block(rep.body)
            self.off = outer_off
            return
        n = outer_n * count
        self.off = {b: np.repeat(outer_off.get(b, 0) + np.zeros(outer_n, np.int64), count)
                    + np.tile(np.arange(count) * strides.get(b, 0), outer_n) for b in names}
        # a register the body writes is a placeholder there: its value at
        # the step before, the value before the loop at step 0
        base = len(self.tables) * _SLOTS
        self.tables.append(None)
        before = list(self.regs)
        self.nest(n)
        held = {}
        for r in used:
            if r in written:
                self.regs[r] = held[r] = ((-1 - base - r) << _REF_SHIFT) | (
                    self.pairs if r < 32 else self.steps)
            else:  # the same at every step
                self.regs[r] = np.repeat(before[r], count, axis=0)
        loop, self.loop, outer_open, self.open = self.loop, rep, self.open, {}
        self.merging, self.dirty = {}, set()
        first = len(self.batches)
        self.block(rep.body)

        table = np.zeros((_SLOTS, outer_n, count, 2), np.int64)
        for r, h in held.items():
            end, h = self.regs[r].reshape(n, -1), h.reshape(n, -1)
            w = h.shape[1]
            table[r, :, :, :w] = before[r].reshape(outer_n, 1, w)
            changed = (end != h).any(axis=0)  # per half
            table[r, :, 1:, :w][..., changed] = end.reshape(outer_n, count, w)[:, :-1][..., changed]
        table = table.reshape(_SLOTS, n, 2)
        limit = -base << _REF_SHIFT  # below it: this loop's placeholders

        def resolve(a: np.ndarray) -> np.ndarray:
            while a.size and a.min() < limit:
                a = a.copy()
                mine = a < limit
                a[mine] = table[-1 - base - (a[mine] >> _REF_SHIFT),
                                (a[mine] & _REF_MASK) >> 1, a[mine] & 1]
            return a

        self.tables[base // _SLOTS] = table = resolve(table)
        self.chains += self.find_chains(rep, first, outer_n, count, resolve)
        for r in held:
            before[r] = resolve(self.regs[r]).reshape((outer_n, count) + before[r].shape[1:])[:, -1]
        self.nest(outer_n)
        self.regs, self.loop, self.off, self.open = before, loop, outer_off, outer_open
        self.merging, self.dirty = {}, set()

    def find_chains(self, rep: Repeat, first: int, outer: int, inner: int, resolve) -> list:
        """The accumulating chains along ``rep``'s step axis: batches of one
        accumulating op, each reading the one before as its accumulator
        at the same step, the first reading the last at the step before
        (and the value before the loop at step 0)."""
        n, batches = outer * inner, self.batches
        ops = {code: key[0] for key, code in self.codes.items()}
        for bt in batches[first:]:
            _freeze(bt)

        def link(b: int, acc: np.ndarray, back: int) -> int | None:
            """The batch whose values batch ``b``'s accumulator ``acc``
            holds, ``back`` steps before, each instruction's its own."""
            t, size = int(acc.flat[-1] >> _REF_SHIFT), batches[b].n
            if len(acc) != size or t < first or (batches[t].code, batches[t].n,
                                                  batches[t].loop) != (batches[b].code, size, rep):
                return None
            out = (t << _REF_SHIFT) | (np.arange(size)[:, None] << 1) | np.array([0, 1])
            out = out.reshape(-1, inner, 2)[..., :acc.size // size]
            got = acc.reshape(-1, inner, out.shape[-1])
            return t if np.array_equal(got[:, back:], out[:, :inner - back]) else None

        chains = []
        for head in range(first, len(batches) if inner > 1 else first):
            bt = batches[head]
            if (bt.loop is rep and bt.n % n == 0 and ops[bt.code] in _ACCUMULATE
                    and bt.ins[0].flat[-1] < 0):  # a head reads its register before writing it
                acc = resolve(bt.ins[0])
                members = [link(head, acc, 1)]
                while members[-1] is not None and head < members[-1]:
                    members.append(link(members[-1], batches[members[-1]].ins[0], 0))
                if members[-1] == head:
                    # the links' accumulators are the chain itself: keep
                    # only its value before the loop, at each outer step
                    start = acc.reshape((-1, inner) + acc.shape[1:])[:, 0]
                    for m in members:
                        batches[m].ins = (start, *batches[m].ins[1:])
                    chains.append((members[::-1], outer, inner))
        return chains

    def finish(self) -> Program:  # noqa: C901 - levels, groups, layout
        batches, nb = self.batches, len(self.batches)
        for bt in batches[1:]:
            _freeze(bt)
        root = np.arange(nb)  # a chain is one node: its first batch
        chains = {members[0]: (members, outer, inner) for members, outer, inner in self.chains}
        for members, _, _ in chains.values():
            root[members] = members[0]

        # every operand with its placeholders replaced by what they stand for
        tables = [t.ravel() for t in self.tables]
        table = np.concatenate(tables) if tables else np.zeros(0, np.int64)
        t_start = np.cumsum([0] + [t.size for t in tables])
        t_width = np.array([t.shape[1] for t in self.tables], np.int64)  # steps
        operands = [(b, i, a.shape) for b in range(1, nb) for i, a in enumerate(batches[b].ins)]
        flat = np.concatenate([a.ravel() for b in range(1, nb) for a in batches[b].ins]
                              or [np.zeros(0, np.int64)])
        while flat.size and flat.min() < 0:
            held = flat < 0
            loop, reg = np.divmod(-1 - (flat[held] >> _REF_SHIFT), _SLOTS)
            flat[held] = table[t_start[loop] + 2 * reg * t_width[loop]
                               + (flat[held] & _REF_MASK)]
        ends = np.cumsum([math.prod(shape) for _, _, shape in operands], dtype=np.int64)
        starts = ends - [math.prod(shape) for _, _, shape in operands]
        ids = root[flat >> _REF_SHIFT]  # the node each reference reads
        span = {(b, i): (slice(s0, s1), shape) for (b, i, shape), s0, s1
                in zip(operands, starts.tolist(), ends.tolist())}

        # the nodes each node reads: an operand mostly reads one
        deps: list[set[int]] = [set() for _ in range(nb)]
        nodes = root.tolist()
        for b in range(1, nb):
            deps[nodes[b]].update(nodes[d] for d in batches[b].after)
        if operands:
            low = np.minimum.reduceat(ids, starts).tolist()
            high = np.maximum.reduceat(ids, starts).tolist()
            for (b, i, _), s0, s1, lo, hi in zip(operands, starts.tolist(), ends.tolist(),
                                                  low, high):
                node = nodes[b]
                if lo == hi:
                    deps[node].add(lo)
                else:
                    seg = ids[s0:s1]
                    deps[node].update((lo, hi) if ((seg == lo) | (seg == hi)).all()
                                      else np.unique(seg).tolist())
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
        ops = {code: key for key, code in self.codes.items()}
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
            b, i = refs >> _REF_SHIFT, (refs & _REF_MASK) >> 1
            return 2 * (base[b] + i % wrap[b] * step[b] + i // wrap[b]) + (refs & 1)

        flat = halves(flat)

        def joined(parts: list[list[int]], field, run: int = 0) -> np.ndarray:
            """``field(b)`` of every batch ``b`` of a group, in its layout."""
            each = [np.stack([field(m) for m in members], axis=1) for members in parts]
            if not run:
                return np.concatenate([a.reshape((-1,) + a.shape[2:]) for a in each])
            steps = [np.moveaxis(a.reshape((-1, run // a.shape[1]) + a.shape[1:]), 0, 2)
                     .reshape((run, -1) + a.shape[2:]) for a in each]
            return np.concatenate(steps, axis=1).reshape((-1,) + each[0].shape[2:])

        def operand(i: int):
            return lambda b: flat[span[(b, i)][0]].reshape(span[(b, i)][1])

        groups = []
        extent: dict[str, int] = {}
        for (_, op, buffer, run), parts in sorted(keyed.items()):
            first = batches[parts[0][0]]
            ins = tuple(joined(parts, operand(i), run) for i in range(bool(run), len(first.ins)))
            if run:  # each run starts from its chain's value before the loop
                ins = (joined([members[:1] for members in parts], operand(0)), *ins)
            extra = (None if first.extra is None
                     else joined(parts, lambda b: batches[b].extra, run))
            addr = None
            if buffer:
                addr = extra[:, None] + np.arange(_WIDTH[op])
                if extra.min() < 0:
                    raise SimulationError(f"negative memory offset {extra.min()} on {buffer!r}")
                extent[buffer] = max(extent.get(buffer, 0), int(extra.max()) + _WIDTH[op])
            n = sum(batches[m].n for members in parts for m in members)
            lo = 2 * int(base[parts[0][0]])
            groups.append(Group(
                op, n, lo, lo + 2 * n * first.outs, ins,
                lane=extra if op in _LANES else None, buffer=buffer or None, addr=addr,
                imm=extra if op == "X_ADD" else None, run=run))

        names = {bid: name for name, bid in self.buffers.items()}
        return Program(
            n_values=n_values,
            groups=tuple(groups),
            consts=np.asarray([[c, 0] for c in self.consts], np.int64).reshape(-1),
            v_final=halves(np.concatenate(self.regs[:32])),
            x_final=halves(np.concatenate(self.regs[32:])),
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
    index << 1 | half``, the index running over the steps of the loops
    around it; batch 0 holds the constants, its value 0 the zero every
    register starts as.  Once every batch has its level the references
    become positions in the value table, which lays each group's outputs
    out consecutively in execution order.
    """
    program = tuple(program)  # keeps every node alive while ids key the decode
    unroll: set[int] = set()
    while True:
        compiler = _Compiler(unroll)
        try:
            compiler.block(program)
            return compiler.finish()
        except _Unroll as exc:
            unroll.add(id(exc.args[0]))


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
