"""Compiled, tile-batched execution of instruction streams.

A generated stream is fully unrolled and does not branch on data, and every
register tile of a layer runs the same stream on different panels.
:func:`compile_stream` therefore turns a stream into a :class:`Program`
once:

* every register write becomes a new SSA *value*, a 16-byte row of a value
  table; a vector register is a pair of references to 64-bit *halves* of
  values, an x register one such reference;
* each instruction gets the level 1 + the highest level of its inputs;
  loads and stores are also ordered per buffer (a load after the last
  store to its buffer, a store after every earlier access to it);
* instructions that compute nothing fold away: ``MOVI_ZERO`` and
  ``MOV_X_IMM`` bind constants, ``SUBS``/``ADD_X`` on known values bind
  their results, the ``MOV_V_TO_X``/``MOV_X_TO_V`` spill copies re-point
  half references, and ``B_NE`` is cost-only;
* the instructions of one opcode at one level form a *group*, held as
  index arrays into the value table.

:meth:`Program.run` issues one numpy operation per group over a value
table with a leading tile axis.  Every lane is computed exactly, then
wrapped to its lane width and checked as
:meth:`repro.arm.simulator.ArmSimulator.step` checks it, so final
registers, memory and :class:`~repro.errors.OverflowDetected` match the
interpreter, which stays as the oracle.  Overflow is decided by the
values alone: a run raises exactly when some instruction wraps a lane
that the interpreter checks, and the interpreter stops at the first one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from ..errors import OverflowDetected, SimulationError
from .isa import Instr

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

_VIDX = {f"v{i}": i for i in range(32)}
_XIDX = {f"x{i}": i for i in range(31)}
#: decoded kinds past the compute ones (1, 2, 3: registers read)
_LOAD_V, _LOAD_X, _STORE_V, _STORE_X, _ZERO, _V_TO_X, _X_TO_V, _IMM, _XADD, _NOP = range(4, 14)
#: compile-time value references: group << _REF_SHIFT | index << 1 | half
_REF_SHIFT = 32
_REF_MASK = (1 << _REF_SHIFT) - 1
#: group keys: level << _CODE_BITS | code of (opcode, buffer)
_CODE_BITS = 12


def _signed64(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value >> 63 else value


class Group(NamedTuple):
    """Same-opcode instructions of one level, as index arrays.

    ``lo:hi`` are the value-table halves the group writes (its outputs are
    numbered consecutively); ``ins`` holds one half-reference array per
    operand, ``(n, 2)`` for a vector register and ``(n,)`` for an x
    register; ``at`` holds each instruction's stream position.
    """

    op: str
    n: int
    lo: int
    hi: int
    ins: tuple[np.ndarray, ...]
    at: np.ndarray
    lane: np.ndarray | None = None
    buffer: str | None = None
    addr: np.ndarray | None = None  #: (n, width) byte addresses
    imm: np.ndarray | None = None


@dataclass(frozen=True)
class Program:
    """A compiled stream; see the module docstring."""

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
    if op in ("ST1_16B", "STR_X"):
        if ins.dst or not ins.src:
            raise IndexError
        if op == "ST1_16B":
            return (_STORE_V, code, bid, _VIDX[ins.src[0]])
        return (_STORE_X, code, bid, _XIDX[ins.src[0]])
    n_dst = 4 if op == "LD4R_B" else 1
    if len(ins.dst) != n_dst:
        raise SimulationError(f"{op} needs exactly {n_dst} destination register(s)")
    if op == "LDR_X":
        return (_LOAD_X, code, bid, _XIDX[ins.dst[0]])
    return (_LOAD_V, code, bid, tuple(_VIDX[r] for r in ins.dst))


def _code(codes: dict, op: str, buffer: str | None) -> int:
    code = codes.setdefault((op, buffer), len(codes))
    if code >= 1 << _CODE_BITS:
        raise SimulationError("stream addresses too many distinct buffers")
    return code


class _Groups(dict):
    """Group key -> ``[id, positions, input refs, extras]``, opening a new
    group the first time a key is used."""

    def __init__(self, glevel: list, gcode: list, gdata: list) -> None:
        super().__init__()
        self.glevel, self.gcode, self.gdata = glevel, gcode, gdata

    def __missing__(self, key: int) -> list:
        g = self[key] = [len(self.gdata), [], [], []]
        self.glevel.append(key >> _CODE_BITS)
        self.gcode.append(key & ((1 << _CODE_BITS) - 1))
        self.gdata.append(g)
        return g


def compile_stream(stream: Sequence[Instr]) -> Program:  # noqa: C901 - one pass, one dispatch
    """Compile ``stream`` into a :class:`Program` (see the module docstring).

    Malformed instructions (a lane out of range, a register of the wrong
    kind, a missing operand) raise :class:`SimulationError` here, before
    anything runs.

    A value is referenced as ``group << _REF_SHIFT | index << 1 | half``
    while compiling; group 0 holds the constants, its value 0 the zero
    every register starts as.  Once every group is known the references
    become positions in the value table, which lays each group's outputs
    out consecutively in execution order.
    """
    codes: dict[tuple[str, str | None], int] = {}
    buffers: dict[str, int] = {}
    consts = [0]  # group 0: the constants, as signed 64-bit low halves
    const_ref = {0: 0}
    known = {0: 0, 1: 0}  # constant half references -> their value
    glevel = [0]
    gcode = [-1]
    gdata: list[list] = [[]]  # per group: [id, positions, input refs, extras]
    groups = _Groups(glevel, gcode, gdata)
    vs = [(0, 1, 0)] * 32  # per v register: (half ref, half ref, level)
    xs = [(0, 0)] * 31  # per x register: (half ref, level)
    SHIFT, BITS = _REF_SHIFT, _CODE_BITS

    def const(bits: int) -> int:
        bits = _signed64(bits)
        ref = const_ref.get(bits)
        if ref is None:
            ref = const_ref[bits] = len(consts) << 1
            consts.append(bits)
            known[ref], known[ref | 1] = bits, 0
        return ref

    # decode each distinct instruction once (generators share them)
    decoded: dict[int, tuple] = {}
    templates: dict[tuple, tuple] = {}
    plan = []
    for ins in stream:
        d = decoded.get(id(ins))
        if d is None:
            d = decoded[id(ins)] = _decode(ins, codes, buffers, templates)
        plan.append(d)
    last_store = [0] * len(buffers)
    last_load = [0] * len(buffers)

    for at, d in enumerate(plan):
        kind = d[0]
        if kind == 3:  # accumulate with two sources
            _, code, dr, a, b, c, lane = d
            sa, sb, sc = vs[a], vs[b], vs[c]
            lv = max(sa[2], sb[2], sc[2]) + 1
            g = groups[(lv << BITS) | code]
            ref = (g[0] << SHIFT) | (len(g[1]) << 1)
            g[1].append(at)
            g[2].extend((sa[0], sa[1], sb[0], sb[1], sc[0], sc[1]))
            if lane is not None:
                g[3].append(lane)
            vs[dr] = (ref, ref | 1, lv)
        elif kind == 2:
            _, code, dr, a, b, _ = d
            sa, sb = vs[a], vs[b]
            lv = max(sa[2], sb[2]) + 1
            g = groups[(lv << BITS) | code]
            ref = (g[0] << SHIFT) | (len(g[1]) << 1)
            g[1].append(at)
            g[2].extend((sa[0], sa[1], sb[0], sb[1]))
            vs[dr] = (ref, ref | 1, lv)
        elif kind == _ZERO:
            vs[d[1]] = (0, 1, 0)
        elif kind == _LOAD_V:
            _, code, bid, dst, offset = d
            lv = last_store[bid] + 1
            if lv > last_load[bid]:
                last_load[bid] = lv
            g = groups[(lv << BITS) | code]
            ref = (g[0] << SHIFT) | (len(g[1]) * len(dst) << 1)
            for r in dst:
                vs[r] = (ref, ref | 1, lv)
                ref += 2
            g[1].append(at)
            g[3].append(offset)
        elif kind == _V_TO_X:
            h = vs[d[2]][d[3]]
            xs[d[1]] = (h, glevel[h >> SHIFT])
        elif kind == _X_TO_V:
            _, dr, src, lane = d
            h, old = xs[src][0], vs[dr]
            h0, h1 = (h, old[1]) if lane == 0 else (old[0], h)
            vs[dr] = (h0, h1, max(glevel[h0 >> SHIFT], glevel[h1 >> SHIFT]))
        elif kind == 1:
            _, code, dr, a, _ = d
            sa = vs[a]
            lv = sa[2] + 1
            g = groups[(lv << BITS) | code]
            ref = (g[0] << SHIFT) | (len(g[1]) << 1)
            g[1].append(at)
            g[2].extend((sa[0], sa[1]))
            vs[dr] = (ref, ref | 1, lv)
        elif kind == _LOAD_X:
            _, code, bid, dst, offset = d
            lv = last_store[bid] + 1
            if lv > last_load[bid]:
                last_load[bid] = lv
            g = groups[(lv << BITS) | code]
            xs[dst] = ((g[0] << SHIFT) | (len(g[1]) << 1), lv)
            g[1].append(at)
            g[3].append(offset)
        elif kind == _STORE_V or kind == _STORE_X:
            _, code, bid, src, offset = d
            s = vs[src] if kind == _STORE_V else xs[src]
            lv = max(s[-1], last_store[bid], last_load[bid]) + 1
            last_store[bid] = lv
            g = groups[(lv << BITS) | code]
            g[1].append(at)
            g[2].extend(s[:-1])
            g[3].append(offset)
        elif kind == _IMM:
            xs[d[1]] = (const(d[2]), 0)
        elif kind == _XADD:
            _, dr, src, delta, code = d
            h, lv = xs[src] if src is not None else (0, 0)
            if h in known:
                xs[dr] = (const(known[h] + delta), 0)
            else:
                g = groups[((lv + 1) << BITS) | code]
                xs[dr] = ((g[0] << SHIFT) | (len(g[1]) << 1), lv + 1)
                g[1].append(at)
                g[2].append(h)
                g[3].append(_signed64(delta))
        # _NOP: B_NE is cost-only

    # lay the groups out in execution order: constants, then each group's
    # outputs consecutively
    ops = {code: key for key, code in codes.items()}
    order = sorted(range(1, len(gdata)),
                   key=lambda gid: (glevel[gid], *(s or "" for s in ops[gcode[gid]])))
    base = np.zeros(len(gdata), np.int64)
    n_values = len(consts)
    for gid in order:
        base[gid] = n_values
        n_values += len(gdata[gid][1]) * (4 if ops[gcode[gid]][0] == "LD4R_B" else 1)

    def halves(refs) -> np.ndarray:
        refs = np.asarray(refs, np.int64)
        return 2 * base[refs >> _REF_SHIFT] + (refs & _REF_MASK)

    def joined(field: int) -> tuple[np.ndarray, list[int]]:
        """One field of every group, concatenated in execution order, and
        where each group's part starts."""
        flat: list[int] = []
        starts = [0]
        for gid in order:
            flat += gdata[gid][field]
            starts.append(len(flat))
        return np.array(flat, np.int64), starts

    (ats, at_start), (refs, ref_start), (extras, extra_start) = (
        joined(1), joined(2), joined(3))
    refs = halves(refs)
    built = []
    extent: dict[str, int] = {}
    for i, gid in enumerate(order):
        op, buffer = ops[gcode[gid]]
        n = at_start[i + 1] - at_start[i]
        lo = 2 * int(base[gid])
        hi = lo if op in ("ST1_16B", "STR_X") else lo + 2 * n * (4 if op == "LD4R_B" else 1)
        ins = refs[ref_start[i]:ref_start[i + 1]]
        if op in ("STR_X", "X_ADD"):
            operands = (ins,)
        else:
            ins = ins.reshape(n, -1, 2)
            operands = tuple(ins[:, j] for j in range(ins.shape[1]))
        extra = extras[extra_start[i]:extra_start[i + 1]]
        addr = None
        if buffer is not None:
            addr = extra[:, None] + np.arange(_WIDTH[op])
            extent[buffer] = max(extent.get(buffer, 0), int(extra.max()) + _WIDTH[op])
        built.append(Group(
            op, n, lo, hi, operands, ats[at_start[i]:at_start[i + 1]],
            lane=extra if op in _LANES else None, buffer=buffer, addr=addr,
            imm=extra if op == "X_ADD" else None))

    names = {bid: name for name, bid in buffers.items()}
    return Program(
        n_values=n_values,
        groups=tuple(built),
        consts=np.asarray([[c, 0] for c in consts], np.int64).reshape(-1),
        v_final=halves([s[:2] for s in vs]),
        x_final=halves([s[0] for s in xs]),
        extent=extent,
        stores=frozenset(names[bid] for bid, lv in enumerate(last_store) if lv),
    )


# ---------------------------------------------------------------------------
# group execution: one numpy operation per group, over (tiles, n, lanes)
# ---------------------------------------------------------------------------


def _read(table: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The 16 bytes of each referenced register, ``(tiles, n, 16)``."""
    return np.take(table, pairs, axis=1).view(np.uint8)


def _read_half(table: np.ndarray, pairs: np.ndarray, g: Group) -> np.ndarray:
    """The 8 bytes of each register that a half-width op reads: the upper
    half for the ``2`` forms, ``(tiles, n, 8)``."""
    half = pairs[:, 1] if "2_" in g.op else pairs[:, 0]
    return np.take(table, half, axis=1).view(np.uint8).reshape(len(table), g.n, 8)


def _write(table: np.ndarray, g: Group, lanes: np.ndarray) -> None:
    table[:, g.lo:g.hi] = np.ascontiguousarray(lanes).reshape(len(table), -1).view(np.int64)


def _settle(exact: np.ndarray, dtype, g: Group, check: bool) -> np.ndarray:
    """Wrap exact lane values to ``dtype``; in checking mode a wrapped lane
    raises :class:`OverflowDetected`, naming the earliest instruction."""
    out = exact.astype(dtype)
    if check and (out != exact).any():
        bad = (out != exact).reshape(len(out), g.n, -1).any(axis=(0, 2))
        raise OverflowDetected(
            f"{g.op}: accumulator wrapped at instruction {int(g.at[bad].min())} "
            f"(exact range [{exact.min()}, {exact.max()}], lane dtype {np.dtype(dtype)})")
    return out


def _smlal_8h(t, mem, g, check):
    acc = _read(t, g.ins[0]).view(np.int16)
    n = _read_half(t, g.ins[1], g).view(np.int8)
    m = _read_half(t, g.ins[2], g).view(np.int8)
    _write(t, g, _settle(acc + n.astype(np.int32) * m, np.int16, g, check))


def _smlal_4s(t, mem, g, check):
    acc = _read(t, g.ins[0]).view(np.int32)
    n = _read_half(t, g.ins[1], g).view(np.int16).astype(np.int64)
    if g.lane is None:
        prod = n * _read_half(t, g.ins[2], g).view(np.int16)
    else:
        prod = n * _read(t, g.ins[2]).view(np.int16)[:, np.arange(g.n), g.lane][..., None]
    _write(t, g, _settle(acc + prod, np.int32, g, check))


def _sdot_4s(t, mem, g, check):
    tiles = len(t)
    acc = _read(t, g.ins[0]).view(np.int32)
    n = _read(t, g.ins[1]).view(np.int8).reshape(tiles, g.n, 4, 4).astype(np.int32)
    m = _read(t, g.ins[2]).view(np.int8).reshape(tiles, g.n, 4, 4)
    if g.lane is not None:
        m = m[:, np.arange(g.n), g.lane][:, :, None, :]
    _write(t, g, _settle(acc + (n * m).sum(axis=-1, dtype=np.int64), np.int32, g, check))


def _mla_16b(t, mem, g, check):
    acc = _read(t, g.ins[0]).view(np.int8)
    n = _read(t, g.ins[1]).view(np.int8)
    m = _read(t, g.ins[2]).view(np.int8)
    _write(t, g, _settle(acc + n.astype(np.int16) * m, np.int8, g, check))


def _saddw_8h(t, mem, g, check):
    base = _read(t, g.ins[0]).view(np.int16)
    m = _read_half(t, g.ins[1], g).view(np.int8)
    _write(t, g, _settle(base.astype(np.int32) + m, np.int16, g, check))


def _saddw_4s(t, mem, g, check):
    base = _read(t, g.ins[0]).view(np.int32)
    m = _read_half(t, g.ins[1], g).view(np.int16)
    _write(t, g, _settle(base.astype(np.int64) + m, np.int32, g, check))


def _uadalp_8h(t, mem, g, check):
    acc = _read(t, g.ins[0]).view(np.uint16)
    n = _read(t, g.ins[1])
    pair = n[..., 0::2].astype(np.uint32) + n[..., 1::2]
    _write(t, g, _settle(acc + pair, np.uint16, g, check))


def _uadalp_4s(t, mem, g, check):
    acc = _read(t, g.ins[0]).view(np.uint32)
    n = _read(t, g.ins[1]).view(np.uint16)
    pair = n[..., 0::2].astype(np.uint64) + n[..., 1::2]
    _write(t, g, _settle(acc + pair, np.uint32, g, check))


def _sshll_8h(t, mem, g, check):
    _write(t, g, _read_half(t, g.ins[0], g).view(np.int8).astype(np.int16))


def _and_16b(t, mem, g, check):
    _write(t, g, np.take(t, g.ins[0], axis=1) & np.take(t, g.ins[1], axis=1))


def _cnt_16b(t, mem, g, check):
    _write(t, g, _POPCOUNT8[_read(t, g.ins[0])])


def _add_4s(t, mem, g, check):  # wraps silently, as the interpreter does
    _write(t, g, _read(t, g.ins[0]).view(np.int32) + _read(t, g.ins[1]).view(np.int32))


def _ld1(t, mem, g, check):
    data = np.take(mem[g.buffer], g.addr, axis=1)
    if g.op == "LD1_16B":
        _write(t, g, data)
    else:  # LD1_8B / LDR_X: 8 bytes, the upper half zeroed
        _write(t, g, np.concatenate([data, np.zeros_like(data)], axis=-1))


def _ldr(t, mem, g, check):  # LD1R_B / LD4R_B: each byte to all 16 lanes
    _write(t, g, np.repeat(np.take(mem[g.buffer], g.addr, axis=1)[..., None], 16, axis=-1))


def _st1_16b(t, mem, g, check):
    mem[g.buffer][:, g.addr] = _read(t, g.ins[0])


def _str_x(t, mem, g, check):
    mem[g.buffer][:, g.addr] = np.take(t, g.ins[0], axis=1).view(np.uint8).reshape(len(t), g.n, 8)


def _x_add(t, mem, g, check):  # SUBS / ADD_X on a value known only at run time
    value = np.take(t, g.ins[0], axis=1) + g.imm
    _write(t, g, np.stack([value, np.zeros_like(value)], axis=-1))


_EXEC: dict[str, Callable[[np.ndarray, dict, Group, bool], None]] = {
    "SMLAL_8H": _smlal_8h, "SMLAL2_8H": _smlal_8h,
    "SMLAL_4S": _smlal_4s, "SMLAL2_4S": _smlal_4s,
    "SMLAL_4S_LANE": _smlal_4s, "SMLAL2_4S_LANE": _smlal_4s,
    "SDOT_4S": _sdot_4s, "SDOT_4S_LANE": _sdot_4s,
    "MLA_16B": _mla_16b,
    "SADDW_8H": _saddw_8h, "SADDW2_8H": _saddw_8h,
    "SADDW_4S": _saddw_4s, "SADDW2_4S": _saddw_4s,
    "UADALP_8H": _uadalp_8h, "UADALP_4S": _uadalp_4s,
    "SSHLL_8H": _sshll_8h, "SSHLL2_8H": _sshll_8h,
    "AND_16B": _and_16b, "CNT_16B": _cnt_16b, "ADD_4S": _add_4s,
    "LD1_16B": _ld1, "LD1_8B": _ld1, "LDR_X": _ld1,
    "LD1R_B": _ldr, "LD4R_B": _ldr,
    "ST1_16B": _st1_16b, "STR_X": _str_x,
    "X_ADD": _x_add,
}
