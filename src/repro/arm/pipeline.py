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

Scheduling is greedy and exact, and it fast-forwards: once the state at
some instruction recurs, relative to the issue cycle, ahead of a verbatim
repeat of the instructions in between, the schedule of every such repeat
is the last one shifted in time, so a K loop costs its distinct periods,
not its length (:func:`_issue`).

The table values are documented estimates in the spirit of the A53
software-optimization data; what the experiments rely on is the *relative*
structure (lanes per instruction, load vs arithmetic cost, the price of
drain rounds and of v<->x moves), not any single absolute number.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

from ..errors import SimulationError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .isa import ACCUM_OPS, Instr


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


#: most distinct anchor snapshots one schedule keeps, and the most recent
#: visits kept per snapshot (a state can recur every K step while the
#: signatures only repeat every few steps, e.g. a 4-deep register
#: rotation); past either bound older entries go, which can only cost a
#: missed jump, never a wrong cycle
_MAX_SNAPSHOTS = 1024
_VISITS_KEPT = 8
#: the fields of an instruction that steer its schedule
_SIGNATURE = attrgetter("op", "dst", "src")


def _decode(
    stream: Sequence[Instr], table: CostTable
) -> tuple[list[tuple], list[int], int]:
    """Integer form of ``stream`` for :meth:`PipelineModel.schedule`.

    Returns one row per distinct ``(op, dst, src)`` signature (NEON and
    memory pipe cycles, latency, accumulate-chain latency, whether the op
    accumulates, source and destination register indices), the signature
    index of every instruction, and the number of registers.  Only those
    fields steer the schedule: loads of different addresses into the same
    registers share a row.  Each distinct ``Instr`` object is looked at
    once; the per-instruction passes run inside ``dict``/``map``.
    """
    ids = list(map(id, stream))
    objects = dict(zip(ids, stream))
    signatures = list(map(_SIGNATURE, objects.values()))
    row_of = dict.fromkeys(signatures)
    rows: list[tuple] = []
    regs: dict[str, int] = {}
    for sig in row_of:
        op, dst, src = sig
        c = table.cost(op)
        row_of[sig] = len(rows)
        rows.append((
            c.mem_cycles, c.neon_cycles, c.latency,
            c.acc_latency or c.latency, op in ACCUM_OPS,
            tuple(regs.setdefault(r, len(regs)) for r in src),
            tuple(regs.setdefault(r, len(regs)) for r in dst),
        ))
    sig_of = dict(zip(objects, map(row_of.__getitem__, signatures)))
    return rows, list(map(sig_of.__getitem__, ids)), len(regs)


def _repeats(sigs: list[int], start: int, stop: int) -> int:
    """How many more times ``sigs[start:stop]`` follows itself verbatim."""
    period = stop - start
    m, end = 0, stop + period
    body = None
    # the last signatures must agree before a whole period is compared
    while end <= len(sigs) and sigs[end - 1] == sigs[stop - 1]:
        if body is None:
            body = sigs[start:stop]
        if sigs[end - period:end] != body:
            break
        m += 1
        end += period
    return m


def _issue(rows: list[tuple], sigs: list[int], n_regs: int, anchor: int,
           width: int) -> tuple[int, int, int]:
    """Greedy in-order issue of ``sigs``; returns the final issue cycle and
    the cycles the LS and NEON pipes free up.

    At every occurrence of the ``anchor`` signature the scheduler state is
    snapshotted relative to the issue cycle (slots used this cycle; pipe
    free times and register ready times clipped at the cycle, since a time
    already past acts exactly like the cycle itself).  When a snapshot
    repeats, the run of signatures between the two occurrences maps that
    state onto itself shifted by their cycle difference; for every verbatim
    repeat of the run that follows, the schedule repeats shifted again, so
    those periods are applied at once by moving every time forward.
    """
    n = len(sigs)
    ready = [0] * n_regs  # cycle each register's value is ready
    acc_ready = [0] * n_regs  # the same for an accumulate chain
    cur = slots = mem_free = neon_free = 0
    seen: dict[tuple, list[tuple[int, int]]] = {}
    pos = 0
    while pos < n:
        start, pos = pos, n
        for i in range(start, n):
            s = sigs[i]
            if s == anchor:
                key = (slots,
                       mem_free - cur if mem_free > cur else 0,
                       neon_free - cur if neon_free > cur else 0,
                       *[r - cur if r > cur else 0 for r in ready],
                       *[r - cur if r > cur else 0 for r in acc_ready])
                hits = seen.get(key)
                if hits is None:
                    if len(seen) >= _MAX_SNAPSHOTS:
                        seen.clear()
                    seen[key] = [(i, cur)]
                else:
                    # the newest earlier visit whose run repeats from here
                    for p, c0 in reversed(hits):
                        m = _repeats(sigs, p, i)
                        if m:
                            break
                    if m:
                        shift = m * (cur - c0)
                        cur += shift
                        mem_free += shift
                        neon_free += shift
                        ready = [r + shift for r in ready]
                        acc_ready = [r + shift for r in acc_ready]
                        pos = i + m * (i - p)  # resume the scan there
                        break
                    hits.append((i, cur))
                    if len(hits) > _VISITS_KEPT:
                        del hits[0]

            mem_c, neon_c, lat, acc_lat, is_acc, srcs, dsts = rows[s]
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
    return cur, mem_free, neon_free


class PipelineModel:
    """Greedy in-order scheduler over a cost table.

    :meth:`schedule` is exact and costs time in proportion to a stream's
    distinct work rather than its length: the unrolled K loop of a
    micro-kernel is fast-forwarded period by period (see :func:`_issue`).
    The per-instruction loop it must equal is kept as the test oracle.
    """

    def __init__(self, table: CostTable = A53_COST_TABLE) -> None:
        self.table = table

    def schedule(self, stream: Iterable[Instr]) -> PipelineResult:
        table = self.table
        # a sequence keeps every object alive while decoding keys on id()
        if not isinstance(stream, (tuple, list)):
            stream = tuple(stream)
        rows, sigs, n_regs = _decode(stream, table)
        counts = Counter(sigs)
        # the most frequent signature (the first seen, on a tie)
        anchor = max(counts, key=counts.__getitem__) if counts else -1
        cur, mem_free, neon_free = _issue(
            rows, sigs, n_regs, anchor, table.issue_width)

        instructions = len(sigs)
        # pipe occupancy does not depend on when an op issues
        mem_busy = sum(rows[s][0] * c for s, c in counts.items())
        neon_busy = sum(rows[s][1] * c for s, c in counts.items())
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
            # per-stream scheduling detail, gated: schedule() sits behind
            # the persistent memo but still runs for every novel stream
            obs_metrics.counter("arm_pipeline_streams").inc()
            obs_metrics.counter("arm_pipeline_instructions").inc(instructions)
            obs_metrics.histogram("arm_pipeline_cycles").observe(total)
            obs_metrics.histogram("arm_pipeline_stalls").observe(
                result.stall_cycles)
        return result
