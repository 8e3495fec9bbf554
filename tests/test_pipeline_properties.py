"""Property tests on the ARM pipeline model and simulator invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.arm import pipeline
from repro.arm.isa import Instr, MemRef
from repro.arm.loops import Repeat, flatten
from repro.arm.pipeline import A53_COST_TABLE, CostTable, InstrCost, PipelineModel
from repro.arm.simulator import ArmSimulator

from .pipeline_oracle import schedule_reference

_VECTOR_POOL = [
    ("MOVI_ZERO", 1, 0),
    ("SMLAL_8H", 1, 2),
    ("MLA_16B", 1, 2),
    ("SADDW_4S", 1, 2),
    ("AND_16B", 1, 2),
    ("CNT_16B", 1, 1),
    ("SDOT_4S", 1, 2),
]


@st.composite
def random_streams(draw, min_size=1, max_size=60):
    n = draw(st.integers(min_size, max_size))
    stream = []
    for _ in range(n):
        kind = draw(st.integers(0, len(_VECTOR_POOL) + 1))
        if kind == len(_VECTOR_POOL):
            stream.append(Instr("LD1_16B", dst=(f"v{draw(st.integers(0, 31))}",),
                                mem=MemRef("A", draw(st.integers(0, 15)) * 16)))
        elif kind == len(_VECTOR_POOL) + 1:
            stream.append(Instr("SUBS", dst=("x9",), src=("x9",), imm=1))
        else:
            op, n_dst, n_src = _VECTOR_POOL[kind]
            dst = tuple(f"v{draw(st.integers(0, 31))}" for _ in range(n_dst))
            src = tuple(f"v{draw(st.integers(0, 31))}" for _ in range(n_src))
            stream.append(Instr(op, dst=dst, src=src))
    return stream


@given(random_streams())
@settings(max_examples=60, deadline=None)
def test_cycle_bounds(stream):
    """cycles is bracketed by issue width below and serial latency above."""
    r = PipelineModel(A53_COST_TABLE).schedule(stream)
    lower = max(
        -(-len(stream) // A53_COST_TABLE.issue_width),
        r.mem_busy,
        r.neon_busy,
    )
    assert r.cycles >= lower
    serial = sum(
        max(A53_COST_TABLE.cost(i.op).latency,
            A53_COST_TABLE.cost(i.op).mem_cycles,
            A53_COST_TABLE.cost(i.op).neon_cycles) + 1
        for i in stream
    )
    assert r.cycles <= serial + 1
    assert r.stall_cycles >= 0
    assert r.instructions == len(stream)


@given(random_streams(), random_streams())
@settings(max_examples=40, deadline=None)
def test_concatenation_superadditive_lower_bound(a, b):
    """Scheduling a+b takes at least as long as the longer prefix and no
    more than the sum (in-order issue can't speed up by appending)."""
    model = PipelineModel(A53_COST_TABLE)
    ra = model.schedule(a)
    rb = model.schedule(b)
    rab = model.schedule(a + b)
    assert rab.cycles >= max(ra.cycles - 1, 1)
    assert rab.cycles <= ra.cycles + rb.cycles + 2


@given(random_streams())
@settings(max_examples=30, deadline=None)
def test_simulator_is_deterministic(stream):
    def run():
        sim = ArmSimulator({"A": np.arange(256, dtype=np.uint8)})
        sim.run(stream)
        return sim.regs.snapshot()

    s1, s2 = run(), run()
    assert np.array_equal(s1["v"], s2["v"])
    assert np.array_equal(s1["x"], s2["x"])


@given(random_streams())
@settings(max_examples=30, deadline=None)
def test_checked_mode_agrees_when_it_passes(stream):
    """If overflow checking raises nothing, results match unchecked mode."""
    from repro.errors import OverflowDetected

    base = ArmSimulator({"A": np.arange(256, dtype=np.uint8)})
    base.run(stream)
    checked = ArmSimulator({"A": np.arange(256, dtype=np.uint8)},
                           check_overflow=True)
    try:
        checked.run(stream)
    except OverflowDetected:
        return  # wrap occurred; nothing to compare
    assert np.array_equal(base.regs.snapshot()["v"],
                          checked.regs.snapshot()["v"])


# -- loop programs: the scheduler's fast-forward -----------------------------


def _load(reg, offset=0):
    return Instr("LD1_16B", dst=(reg,), mem=MemRef("A", offset))


#: a prologue leaves v5..v7 ready well after the body starts, so the state
#: at the body's start needs several iterations to settle
_CONVERGING = ([_load("v5"), _load("v6"), _load("v7")],
               [Instr("MOVI_ZERO", dst=("v0",))], 40, 0,
               [Instr("AND_16B", dst=("v1",), src=("v5", "v7"))])
#: an 11-instruction body repeated, then cut short like a K that is not a
#: multiple of the drain interval
_CUT_SHORT = ([Instr("MOV_X_IMM", dst=("x9",), imm=5)],
              [_load("v0"), _load("v2", 16),
               *(Instr("SMLAL_8H", dst=(f"v{10 + j}",), src=("v0", "v2"))
                 for j in range(8)),
               Instr("SADDW_4S", dst=("v20",), src=("v20", "v10"))], 25, 7,
              [Instr("ST1_16B", src=("v20",), mem=MemRef("C", 0))])


def _assemble(prologue, body, repeats, cut, epilogue):
    """The program: the body as a :class:`Repeat`, then cut short."""
    return [*prologue, *([Repeat(body, repeats)] if repeats else []), *body[:cut], *epilogue]


def assert_schedules_as_the_oracle(program, table=A53_COST_TABLE):
    assert PipelineModel(table).schedule(program) == schedule_reference(flatten(program), table)


#: few registers and every kind of operand, so that the scheduler meets
#: states that differ in one detail only (used with random cost tables)
_TIGHT_OPS = ("MOVI_ZERO", "SMLAL_8H", "AND_16B", "SUBS", "MOV_X_IMM", "LD1_16B", "ST1_16B")


@st.composite
def tight_streams(draw, min_size=0, max_size=6):
    regs = st.sampled_from(("v0", "v1", "v2"))
    stream = []
    for _ in range(draw(st.integers(min_size, max_size))):
        op = draw(st.sampled_from(_TIGHT_OPS))
        if op == "MOVI_ZERO":
            stream.append(Instr(op, dst=(draw(regs),)))
        elif op in ("SMLAL_8H", "AND_16B"):
            stream.append(Instr(op, dst=(draw(regs),), src=(draw(regs), draw(regs))))
        elif op == "SUBS":
            stream.append(Instr(op, dst=("x9",), src=("x9",), imm=1))
        elif op == "MOV_X_IMM":
            stream.append(Instr(op, dst=("x1",), imm=0))
        elif op == "LD1_16B":
            stream.append(_load(draw(regs)))
        else:
            stream.append(Instr(op, src=(draw(regs),), mem=MemRef("C", 0)))
    return stream


@st.composite
def periodic_streams(draw, streams=random_streams, body_size=12, edge_size=20):
    """A random body repeated between a random prologue and epilogue,
    the last period possibly cut short."""
    body = draw(streams(min_size=1, max_size=body_size))
    return (draw(streams(min_size=0, max_size=edge_size)), body,
            draw(st.integers(0, 40)), draw(st.integers(0, len(body) - 1)),
            draw(streams(min_size=0, max_size=edge_size)))


@given(periodic_streams())
@example(_CONVERGING)
@example(_CUT_SHORT)
@settings(max_examples=100, deadline=None)
def test_periodic_streams_schedule_as_the_oracle(parts):
    assert_schedules_as_the_oracle(_assemble(*parts))


@st.composite
def cost_tables(draw):
    """Random costs for the tight ops: accumulate forwarding slower than
    the NEON pipe, pipes busier than latencies, stores on the NEON pipe,
    one to three issue slots; every part of the state the fast-forward
    compares then matters."""
    costs = dict(A53_COST_TABLE.costs)
    for op in _TIGHT_OPS:
        costs[op] = InstrCost(
            mem_cycles=draw(st.integers(0, 3)),
            neon_cycles=draw(st.integers(0, 3)),
            latency=draw(st.integers(1, 5)),
            acc_latency=draw(st.sampled_from((None, 1, 3, 6))),
        )
    return CostTable(costs=costs, issue_width=draw(st.integers(1, 3)))


@given(cost_tables(), periodic_streams(tight_streams, body_size=4, edge_size=5))
@settings(max_examples=150, deadline=None)
def test_periodic_streams_schedule_as_the_oracle_on_any_cost_table(table, parts):
    assert_schedules_as_the_oracle(_assemble(*parts), table)


def _table(width, **costs):
    """A53 costs with ``op=(mem, neon, latency, acc_latency)`` overrides."""
    table = dict(A53_COST_TABLE.costs)
    for op, (mem, neon, lat, acc) in costs.items():
        table[op] = InstrCost(mem_cycles=mem, neon_cycles=neon, latency=lat, acc_latency=acc)
    return CostTable(costs=table, issue_width=width)


_MOVI = Instr("MOVI_ZERO", dst=("v0",))
_SMLAL = Instr("SMLAL_8H", dst=("v0",), src=("v0", "v0"))
_MOVX = Instr("MOV_X_IMM", dst=("x1",), imm=0)


#: for each part of the snapshot, a program whose repeat starts two
#: iterations in states that agree on everything but that part; leaving
#: it out of the snapshot would fast-forward with the wrong cycle step
@pytest.mark.parametrize("table, program", [
    # the third MOVI finds both issue slots of its cycle taken
    (_table(2, MOVI_ZERO=(0, 0, 1, None)), [Repeat((_MOVI,), 3)]),
    # at the second MOVI the NEON pipe is still busy with the first
    (_table(1, MOVI_ZERO=(0, 2, 1, None), LD1_16B=(0, 0, 1, None)),
     [_load("v0"), Repeat((_MOVI,), 2)]),
    # the load/store pipe is still busy with the prologue's op
    (_table(2, MOVI_ZERO=(1, 0, 2, None), SMLAL_8H=(3, 0, 2, None)),
     [_SMLAL, Repeat((_MOVI,), 4)]),
    # AND forwards to an accumulate chain later than to other readers
    (_table(2, AND_16B=(0, 0, 1, 3), SMLAL_8H=(0, 0, 1, None),
            MOVI_ZERO=(0, 0, 1, None), MOV_X_IMM=(0, 0, 1, None)),
     [Instr("AND_16B", dst=("v0",), src=("v0", "v0")), Repeat((_MOVX,), 10), _SMLAL]),
    # SMLAL forwards to an accumulate chain sooner than to other readers
    (A53_COST_TABLE, [_SMLAL, Repeat((_MOVX,), 20),
                      Instr("AND_16B", dst=("v1",), src=("v0", "v0"))]),
], ids=["issue-slots", "neon-pipe", "memory-pipe", "accumulate-ready", "register-ready"])
def test_every_part_of_the_snapshot_matters(table, program):
    assert_schedules_as_the_oracle(program, table)


@pytest.fixture
def jumps(monkeypatch):
    """Every ``(iteration, earlier iteration, periods)`` the fast-forward took."""
    calls = []

    def record(count, i, j):
        calls.append((i, j, real(count, i, j)))
        return calls[-1][2]

    real = pipeline._periods
    monkeypatch.setattr(pipeline, "_periods", record)
    return calls


@pytest.mark.parametrize("parts", [_CONVERGING, _CUT_SHORT], ids=["converging", "cut-short"])
def test_fast_forward_jumps_and_stays_exact(parts, jumps):
    assert_schedules_as_the_oracle(_assemble(*parts))
    taken = [(i, periods) for i, _, periods in jumps if periods]
    assert taken, "a long repeat must be fast-forwarded"
    if parts is _CONVERGING:
        # v5..v7 are still pending for the first iterations: no jump
        # before the state has settled
        assert taken[0][0] >= 3


def test_body_state_that_never_repeats_runs_the_slow_path(jumps):
    """While v5..v7 are pending the state at the body's start changes
    every iteration, so a repeat that ends before it settles runs
    every iteration."""
    prologue, body, _, _, epilogue = _CONVERGING
    assert_schedules_as_the_oracle([*prologue, Repeat(body, 3), *epilogue])
    assert jumps == []
