"""The per-instruction pipeline scheduler, kept as the oracle.

:func:`schedule_reference` is the greedy in-order dual-issue loop that
:meth:`repro.arm.pipeline.PipelineModel.schedule` used before it learnt to
fast-forward periodic streams.  It walks every instruction of the stream,
so it is slow on long streams, and it is the definition the production
scheduler must match field for field (``tests/test_arm_schedule_oracle.py``,
``benchmarks/test_arm_schedule_equivalence.py``).
"""

from __future__ import annotations

from typing import Iterable

from repro.arm.isa import ACCUM_OPS, Instr
from repro.arm.pipeline import A53_COST_TABLE, CostTable, PipelineResult


def schedule_reference(
    stream: Iterable[Instr], table: CostTable = A53_COST_TABLE
) -> PipelineResult:
    reg_ready: dict[str, int] = {}
    reg_ready_acc: dict[str, int] = {}
    mem_free = 0  # first cycle the LS pipe is free
    neon_free = 0
    cur_cycle = 0
    slots_used = 0
    instructions = 0
    mem_busy = 0
    neon_busy = 0
    ideal = 0

    for ins in stream:
        instructions += 1
        c = table.cost(ins.op)
        is_acc = ins.op in ACCUM_OPS

        # operand readiness (accumulator operand uses forwarded time)
        ready = 0
        for reg in ins.src:
            ready = max(ready, reg_ready.get(reg, 0))
        for reg in ins.dst:
            if is_acc:
                ready = max(ready, reg_ready_acc.get(reg, 0))
            # non-accumulating writes don't read dst

        t = max(cur_cycle, ready)
        if c.mem_cycles:
            t = max(t, mem_free)
        if c.neon_cycles:
            t = max(t, neon_free)
        if t == cur_cycle and slots_used >= table.issue_width:
            t = cur_cycle + 1
            if c.mem_cycles:
                t = max(t, mem_free)
            if c.neon_cycles:
                t = max(t, neon_free)

        # issue at cycle t
        if t > cur_cycle:
            cur_cycle = t
            slots_used = 1
        else:
            slots_used += 1
        if c.mem_cycles:
            mem_free = t + c.mem_cycles
            mem_busy += c.mem_cycles
        if c.neon_cycles:
            neon_free = t + c.neon_cycles
            neon_busy += c.neon_cycles
        for reg in ins.dst:
            reg_ready[reg] = t + c.latency
            reg_ready_acc[reg] = t + (c.acc_latency if c.acc_latency else c.latency)
        ideal += 1

    total = max(cur_cycle + 1, mem_free, neon_free)
    min_possible = max(
        (instructions + table.issue_width - 1) // table.issue_width,
        mem_busy,
        neon_busy,
    )
    return PipelineResult(
        cycles=total,
        instructions=instructions,
        mem_busy=mem_busy,
        neon_busy=neon_busy,
        stall_cycles=max(0, total - min_possible),
    )
