"""Random loop programs through the compiler and the scheduler.

:func:`compile_stream` compiles each repeated body once, with a step axis,
and :meth:`PipelineModel.schedule` fast-forwards it; both must act exactly
like their oracles on the flattened stream: :class:`ArmSimulator`
(registers, memory, and whether :class:`OverflowDetected` is raised) and
:func:`tests.pipeline_oracle.schedule_reference`.  The programs nest
repeats, carry loads and accumulating chains across iterations, and spill
int32 accumulators to x registers as Alg. 1 does.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arm.isa import ALL_OPS, Instr, MemRef
from repro.arm.loops import Repeat, flatten
from repro.arm.pipeline import PipelineModel

from .pipeline_oracle import schedule_reference
from .test_arm_compiled import V, X, assert_same, make_instr, random_bytes, random_state
from .test_pipeline_properties import cost_tables

#: an accumulating op for each lane type the compiler sums chains in
_CHAIN_OPS = ("SMLAL_8H", "SMLAL2_4S", "MLA_16B", "SADDW_8H", "SADDW2_4S", "UADALP_8H",
              "SDOT_4S_LANE", "SUBS")
#: the int32 accumulator spilled to x0/x1 through v0, as in Alg. 1's drain
_SPILL = (Instr("MOV_X_TO_V", dst=("v0",), src=("x0",), lane=0),
          Instr("MOV_X_TO_V", dst=("v0",), src=("x1",), lane=1),
          Instr("SADDW_4S", dst=("v0",), src=("v0", "v3")),
          Instr("MOV_V_TO_X", dst=("x0",), src=("v0",), lane=0),
          Instr("MOV_V_TO_X", dst=("x1",), src=("v0",), lane=1))


def chain_link(op, pick):
    """One link of a chain: ``op`` accumulating into a register it reads."""
    if op == "SUBS":
        return Instr(op, dst=("x2",), src=("x2",), imm=pick((1, 3, 1 << 62)))
    acc = pick(V[:3])
    src = (pick(V), pick(V))[:1 if op in ("UADALP_8H",) else 2]
    if op.startswith("SADDW"):
        return Instr(op, dst=(acc,), src=(acc, pick(V)))
    return Instr(op, dst=(acc,), src=src, lane=pick(range(4)) if op.endswith("LANE") else None)


@st.composite
def programs(draw, depth=2, min_size=0):
    """Straight-line instructions, chain links, spills and nested repeats
    over few registers, so iterations read what the last one wrote."""
    pick = lambda seq: draw(st.sampled_from(list(seq)))  # noqa: E731
    nodes = []
    for _ in range(draw(st.integers(min_size, 4))):
        kind = draw(st.sampled_from(("instr", "chain", "chain", "spill", "load")
                                    + ("repeat",) * 2 * (depth > 0)))
        if kind == "instr":
            nodes.append(make_instr(pick(sorted(ALL_OPS)), pick))
        elif kind == "chain":
            nodes.append(chain_link(pick(_CHAIN_OPS), pick))
        elif kind == "spill":
            nodes.extend(_SPILL)
        elif kind == "load":
            nodes.append(Instr("LD1_16B", dst=(pick(V),), mem=MemRef("R", pick((0, 8, 16)))))
        else:
            nodes.append(Repeat(draw(programs(depth - 1, min_size=1)),
                                draw(st.integers(1, 40)),
                                {"R": pick((0, 1, 16)), "M": pick((0, 8))}))
    return nodes


def buffers(program, seed, small):
    """Random bytes for every buffer, large enough for every access."""
    rng = np.random.default_rng(seed)
    need = {"R": 16 * len(V) + 8 * len(X), "M": 64}
    for ins in flatten(program):
        if ins.mem is not None:
            need[ins.mem.buffer] = max(need[ins.mem.buffer], ins.mem.offset + 16)
    return {name: random_bytes(rng, size, small) for name, size in need.items()}


def small_enough(program):
    return len(flatten(program)) <= 1500


@given(programs(min_size=1).filter(small_enough), st.integers(0, 2**32 - 1), st.booleans(),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_random_programs_compile_as_the_interpreter_runs_them(body, seed, small, check):
    program = random_state() + body
    assert_same(program, buffers(program, seed, small), check)


#: an op adding one to every lane of v0 from v1's bytes, and v0's lane type
_PLUS_ONE = {
    "SMLAL_8H": (Instr("SMLAL_8H", dst=("v0",), src=("v1", "v1")), np.int16),
    "MLA_16B": (Instr("MLA_16B", dst=("v0",), src=("v1", "v1")), np.int8),
    "SADDW_8H": (Instr("SADDW_8H", dst=("v0",), src=("v0", "v1")), np.int16),
    "UADALP_8H": (Instr("UADALP_8H", dst=("v0",), src=("v1",)), np.uint16),
}


@pytest.mark.parametrize("op", sorted(_PLUS_ONE))
@pytest.mark.parametrize("count", [1, 7, 40])
def test_a_chain_first_leaves_its_lane_range_at_any_iteration(op, count):
    """The chain starts ``first`` steps short of its lane maximum, so it
    first leaves the lane range at iteration ``first`` of ``count``
    (never, if that is past the last): compiled, it raises exactly when
    the interpreter does, and unchecked both wrap alike."""
    link, lane = _PLUS_ONE[op]
    ones = np.tile(np.array([1, 0] if op == "UADALP_8H" else [1], np.uint8), 16)[:16]
    program = [Instr("LD1_16B", dst=("v0",), mem=MemRef("R", 0)),
               Instr("LD1_16B", dst=("v1",), mem=MemRef("R", 16)),
               Repeat((link,), count)]
    for first in sorted({0, count // 2, count - 1, count}):
        start = np.full(16 // np.dtype(lane).itemsize, np.iinfo(lane).max - first, lane)
        bufs = {"R": np.concatenate([start.view(np.uint8), ones])}
        assert assert_same(program, bufs, True) == (first < count)
        assert not assert_same(program, bufs, False)


@given(programs(min_size=1).filter(small_enough))
@settings(max_examples=150, deadline=None)
def test_random_programs_schedule_as_the_oracle(program):
    assert PipelineModel().schedule(program) == schedule_reference(flatten(program))


@given(cost_tables(), programs(min_size=1).filter(small_enough))
@settings(max_examples=150, deadline=None)
def test_random_programs_schedule_as_the_oracle_on_any_cost_table(table, program):
    assert PipelineModel(table).schedule(program) == schedule_reference(flatten(program), table)

