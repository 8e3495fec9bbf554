"""In-order dual-issue pipeline cost model (Cortex-A53 flavored).

The Raspberry Pi 3B's Cortex-A53 is a 2-wide in-order core with a single
load/store pipe and a single 64-bit NEON pipe.  Instruction streams from the
kernel generators are *statically scheduled* under those constraints:

* at most 2 instructions issue per cycle, strictly in program order;
* at most 1 memory op per cycle; multi-beat memory ops occupy the pipe for
  several cycles;
* NEON ops producing a 128-bit result occupy the 64-bit NEON datapath for
  2 cycles (this is exactly why ``MLA.16B`` has twice the MAC throughput of
  ``SMLAL.8H`` per the paper — same 2-cycle occupancy, 16 vs 8 lanes);
* RAW hazards stall issue until the producing instruction's latency has
  elapsed — except accumulator chains (``SMLAL``/``MLA``/``SADDW``/
  ``UADALP`` feeding the same destination), which hardware forwards with an
  effective 1-cycle latency.  Without that forwarding, long MAC chains
  would be latency-bound and the paper's schemes could not work at all.

Scheduling is greedy and exact, and it fast-forwards: the generators emit
loop programs (:mod:`repro.arm.loops`), and once the state at the start
of a repeated body recurs, relative to the issue cycle, the schedule of
every later run of the same iterations is the last one shifted in time,
so a K loop costs its distinct periods, not its length (:func:`_run`).

The table values are documented estimates in the spirit of the A53
software-optimization data; what the experiments rely on is the *relative*
structure (lanes per instruction, load vs arithmetic cost, the price of
drain rounds and of v<->x moves), not any single absolute number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import SimulationError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .isa import ACCUM_OPS, Instr
from .loops import Node, Repeat


@dataclass(frozen=True)
class InstrCost:
    """Issue/latency description of one opcode."""

    mem_cycles: int = 0  #: cycles the load/store pipe is occupied
    neon_cycles: int = 0  #: cycles the NEON pipe is occupied
    latency: int = 1  #: producer -> general consumer latency
    acc_latency: int | None = None  #: producer -> accumulate-chain latency


def _table() -> dict[str, InstrCost]:
    return {
        # loads / stores -----------------------------------------------------
        "LD1_16B": InstrCost(mem_cycles=2, latency=4),
        "LD1_8B": InstrCost(mem_cycles=1, latency=4),
        # one 32-bit load + 4-way splat; far cheaper than 4 scalar loads,
        # which is the entire point of the re-designed GEMM (Fig. 1b)
        "LD4R_B": InstrCost(mem_cycles=2, latency=5),
        "LD1R_B": InstrCost(mem_cycles=1, latency=4),
        "ST1_16B": InstrCost(mem_cycles=2, latency=1),
        "LDR_X": InstrCost(mem_cycles=1, latency=3),
        "STR_X": InstrCost(mem_cycles=1, latency=1),
        # multiply-accumulate -------------------------------------------------
        # 128-bit results on a 64-bit datapath: 2-cycle occupancy
        "SMLAL_8H": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "SMLAL2_8H": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "SMLAL_4S": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "SMLAL2_4S": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "SMLAL_4S_LANE": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "SMLAL2_4S_LANE": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "MLA_16B": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        # ARMv8.2 extension (not on the Pi 3B's A53; modeled for the
        # what-if comparison bench): 16 MACs per instruction, int32 out
        "SDOT_4S": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "SDOT_4S_LANE": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        # widening adds / drains ----------------------------------------------
        "SADDW_8H": InstrCost(neon_cycles=2, latency=3, acc_latency=1),
        "SADDW2_8H": InstrCost(neon_cycles=2, latency=3, acc_latency=1),
        "SADDW_4S": InstrCost(neon_cycles=2, latency=3, acc_latency=1),
        "SADDW2_4S": InstrCost(neon_cycles=2, latency=3, acc_latency=1),
        "UADALP_8H": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "UADALP_4S": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        # other vector ---------------------------------------------------------
        "SSHLL_8H": InstrCost(neon_cycles=2, latency=3),
        "SSHLL2_8H": InstrCost(neon_cycles=2, latency=3),
        "AND_16B": InstrCost(neon_cycles=2, latency=2),
        "CNT_16B": InstrCost(neon_cycles=2, latency=3),
        "ADD_4S": InstrCost(neon_cycles=2, latency=2),
        "MOVI_ZERO": InstrCost(neon_cycles=1, latency=1),
        # v <-> x transfers are the expensive part of the Alg. 1 spill
        # dance: the A53 transfers through memory-pipe-adjacent paths with
        # multi-cycle occupancy, which is precisely what erodes the 8-bit
        # scheme (its drain fires every 2 K-steps, Sec. 5.2)
        "MOV_V_TO_X": InstrCost(neon_cycles=2, latency=5),
        "MOV_X_TO_V": InstrCost(neon_cycles=2, latency=5),
        # scalar bookkeeping -----------------------------------------------------
        "MOV_X_IMM": InstrCost(latency=1),
        "SUBS": InstrCost(latency=1),
        "ADD_X": InstrCost(latency=1),
        "B_NE": InstrCost(latency=1),
    }


@dataclass(frozen=True)
class CostTable:
    """Opcode -> cost mapping plus machine-wide issue parameters."""

    costs: dict[str, InstrCost]
    issue_width: int = 2
    clock_hz: float = 1.2e9  # Raspberry Pi 3B: 1.2 GHz Cortex-A53

    def cost(self, op: str) -> InstrCost:
        try:
            return self.costs[op]
        except KeyError:
            raise SimulationError(f"no cost entry for opcode {op!r}") from None


A53_COST_TABLE = CostTable(costs=_table())


@dataclass
class PipelineResult:
    """Outcome of statically scheduling one stream."""

    cycles: int
    instructions: int
    mem_busy: int  #: cycles the LS pipe was occupied
    neon_busy: int  #: cycles the NEON pipe was occupied
    stall_cycles: int  #: issue-pointer advances forced by hazards/structural

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def seconds(self, table: CostTable = A53_COST_TABLE) -> float:
        return self.cycles / table.clock_hz

    # -- persistence (repro.perf cache of scheduled streams) ----------------

    def to_json(self) -> dict:
        """Plain-dict form for the persistent schedule cache: scheduling a
        micro-kernel stream is deterministic, so the result can be reloaded
        across processes instead of re-scheduling identical streams."""
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "mem_busy": self.mem_busy,
            "neon_busy": self.neon_busy,
            "stall_cycles": self.stall_cycles,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PipelineResult":
        return cls(
            cycles=int(data["cycles"]),
            instructions=int(data["instructions"]),
            mem_busy=int(data["mem_busy"]),
            neon_busy=int(data["neon_busy"]),
            stall_cycles=int(data["stall_cycles"]),
        )


def _decode(program: Iterable[Node], table: CostTable) -> tuple[list, int]:
    """Integer form of ``program`` for :meth:`PipelineModel.schedule`.

    Returns the program as a list of parts, each a straight-line segment
    (a list of rows) or a ``(parts, count)`` repeat, and the number of
    registers.  A row holds what steers an instruction's schedule: NEON
    and memory pipe cycles, latency, accumulate-chain latency, whether the
    op accumulates, and source and destination register indices.  One row
    object serves every instruction of one ``(op, dst, src)`` signature,
    so loads of different addresses into the same registers share it, and
    a body is decoded once however many times it runs.
    """
    rows: dict[tuple, tuple] = {}
    regs: dict[str, int] = {}

    def row(ins: Instr) -> tuple:
        sig = (ins.op, ins.dst, ins.src)
        r = rows.get(sig)
        if r is None:
            c = table.cost(ins.op)
            r = rows[sig] = (
                c.mem_cycles, c.neon_cycles, c.latency,
                c.acc_latency or c.latency, ins.op in ACCUM_OPS,
                tuple(regs.setdefault(x, len(regs)) for x in ins.src),
                tuple(regs.setdefault(x, len(regs)) for x in ins.dst))
        return r

    def parts(nodes: Iterable[Node]) -> list:
        out: list = []
        for node in nodes:
            if isinstance(node, Repeat):
                out.append((parts(node.body), node.count))
            else:
                if not out or not isinstance(out[-1], list):
                    out.append([])
                out[-1].append(row(node))
        return out

    return parts(program), len(regs)


def _issue(rows: list[tuple], st: list[int], ready: list[int], acc_ready: list[int],
           width: int) -> None:
    """Greedy in-order issue of ``rows`` from the state ``st`` (the issue
    cycle, slots used in it, and the cycles the LS and NEON pipes free
    up) and the register ready times, all updated in place."""
    cur, slots, mem_free, neon_free = st
    for mem_c, neon_c, lat, acc_lat, is_acc, srcs, dsts in rows:
        # operand readiness (an accumulator operand uses forwarding)
        t = cur
        for r in srcs:
            if ready[r] > t:
                t = ready[r]
        if is_acc:
            for r in dsts:
                if acc_ready[r] > t:
                    t = acc_ready[r]
        if mem_c and mem_free > t:
            t = mem_free
        if neon_c and neon_free > t:
            t = neon_free
        if t > cur:
            cur = t
            slots = 1
        elif slots < width:
            slots += 1
        else:  # issue slots of this cycle used up
            t = cur + 1
            if mem_c and mem_free > t:
                t = mem_free
            if neon_c and neon_free > t:
                t = neon_free
            cur = t
            slots = 1
        if mem_c:
            mem_free = t + mem_c
        if neon_c:
            neon_free = t + neon_c
        for r in dsts:
            ready[r] = t + lat
            acc_ready[r] = t + acc_lat
    st[:] = cur, slots, mem_free, neon_free


def _periods(count: int, i: int, j: int) -> int:
    """Whole periods of ``i - j`` iterations left at iteration ``i`` of a
    repeat of ``count``: how far the fast-forward jumps."""
    return (count - i) // (i - j)


def _run(parts: list, st: list[int], ready: list[int], acc_ready: list[int],
         width: int) -> None:
    """Issue ``parts`` (see :func:`_decode`), fast-forwarding repeats.

    At the start of every iteration of a repeat the state is snapshotted
    relative to the issue cycle (slots used this cycle; pipe free times
    and register ready times clipped at the cycle, since a time already
    past acts exactly like the cycle itself).  The body is the same at
    every iteration, so when a snapshot recurs, the iterations since its
    last visit map that state onto itself shifted by their cycle
    difference, and so does every later run of as many iterations: the
    whole periods left are applied at once by moving every time forward.
    """
    for part in parts:
        if isinstance(part, list):
            _issue(part, st, ready, acc_ready, width)
            continue
        body, count = part
        seen: dict[tuple, tuple[int, int]] = {}
        i = 0
        while i < count:
            cur = st[0]
            key = (st[1], st[2] - cur if st[2] > cur else 0,
                   st[3] - cur if st[3] > cur else 0,
                   *[r - cur if r > cur else 0 for r in ready],
                   *[r - cur if r > cur else 0 for r in acc_ready])
            hit = seen.setdefault(key, (i, cur))
            if hit[0] < i:
                m = _periods(count, i, hit[0])
                shift = m * (cur - hit[1])
                st[0] += shift
                st[2] += shift
                st[3] += shift
                ready[:] = [r + shift for r in ready]
                acc_ready[:] = [r + shift for r in acc_ready]
                i += m * (i - hit[0])
                seen = {}  # no shorter period follows; the rest runs through
                if i == count:
                    break
            _run(body, st, ready, acc_ready, width)
            i += 1


def _totals(parts: list) -> tuple[int, int, int]:
    """Instructions and LS and NEON pipe cycles of ``parts``, repeats counted."""
    n = mem = neon = 0
    for part in parts:
        if isinstance(part, list):
            n += len(part)
            mem += sum(r[0] for r in part)
            neon += sum(r[1] for r in part)
        else:
            pn, pm, pv = _totals(part[0])
            n, mem, neon = n + pn * part[1], mem + pm * part[1], neon + pv * part[1]
    return n, mem, neon


class PipelineModel:
    """Greedy in-order scheduler over a cost table.

    :meth:`schedule` is exact and costs time in proportion to a program's
    distinct work rather than its length: each repeated body of a loop
    program (:mod:`repro.arm.loops`) is decoded once and fast-forwarded
    period by period (see :func:`_run`).  The per-instruction loop over
    the flattened stream it must equal is kept as the test oracle.
    """

    def __init__(self, table: CostTable = A53_COST_TABLE) -> None:
        self.table = table

    def schedule(self, program: Iterable[Node]) -> PipelineResult:
        """Schedule a loop program, or a flat stream (a program without
        repeats)."""
        table = self.table
        parts, n_regs = _decode(program, table)
        st = [0, 0, 0, 0]
        _run(parts, st, [0] * n_regs, [0] * n_regs, table.issue_width)
        cur, _, mem_free, neon_free = st

        # pipe occupancy does not depend on when an op issues
        instructions, mem_busy, neon_busy = _totals(parts)
        total = max(cur + 1, mem_free, neon_free)
        min_possible = max(
            (instructions + table.issue_width - 1) // table.issue_width,
            mem_busy,
            neon_busy,
        )
        result = PipelineResult(
            cycles=total,
            instructions=instructions,
            mem_busy=mem_busy,
            neon_busy=neon_busy,
            stall_cycles=max(0, total - min_possible),
        )
        if obs_trace.active():
            # per-program scheduling detail, gated: schedule() sits behind
            # the persistent memo but still runs for every novel program
            obs_metrics.counter("arm_pipeline_streams").inc()
            obs_metrics.counter("arm_pipeline_instructions").inc(instructions)
            obs_metrics.histogram("arm_pipeline_cycles").observe(total)
            obs_metrics.histogram("arm_pipeline_stalls").observe(
                result.stall_cycles)
        return result
