"""The compiled executor against the interpreter (the oracle).

Every test runs one program both ways, compiled and interpreted as its
flattened stream, from zeroed registers, and asserts the same final v/x
registers and memory, and that :class:`OverflowDetected` is raised
exactly when the interpreter raises it.  Streams start by loading random
bytes into the registers they use, so every opcode sees random operands.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.arm import compiled, loops
from repro.arm.compiled import compile_stream
from repro.arm.isa import ALL_OPS, Instr, MemRef
from repro.arm.kernels import generate_mla_kernel, generate_smlal_kernel
from repro.arm.loops import flatten
from repro.arm.simulator import ArmSimulator
from repro.conv.padding import pack_a, pack_b
from repro.errors import OverflowDetected, SimulationError

#: registers the random streams use: few, so sources alias destinations
#: and values are read in the middle of accumulation chains
V = [f"v{i}" for i in range(6)]
X = [f"x{i}" for i in range(4)]
MEM_BYTES = 64  #: the scratch buffer "M" that loads and stores share

_SOURCES = {  # opcode -> number of vector sources
    **dict.fromkeys(("SMLAL_8H", "SMLAL2_8H", "SMLAL_4S", "SMLAL2_4S", "SMLAL_4S_LANE",
                     "SMLAL2_4S_LANE", "SDOT_4S", "SDOT_4S_LANE", "MLA_16B", "SADDW_8H",
                     "SADDW2_8H", "SADDW_4S", "SADDW2_4S", "AND_16B", "ADD_4S"), 2),
    **dict.fromkeys(("UADALP_8H", "UADALP_4S", "SSHLL_8H", "SSHLL2_8H", "CNT_16B"), 1),
}
_LANES = {"SMLAL_4S_LANE": 8, "SMLAL2_4S_LANE": 8, "SDOT_4S_LANE": 4,
          "MOV_V_TO_X": 2, "MOV_X_TO_V": 2}
_WIDTH = {"LD1_16B": 16, "LD1_8B": 8, "LD4R_B": 4, "LD1R_B": 1, "LDR_X": 8,
          "ST1_16B": 16, "STR_X": 8}


def make_instr(op, pick):
    """One well-formed ``op``; ``pick(seq)`` chooses among options."""
    lane = pick(range(_LANES[op])) if op in _LANES else None
    mem = MemRef("M", pick(range(MEM_BYTES - _WIDTH[op] + 1))) if op in _WIDTH else None
    if op in _SOURCES:
        return Instr(op, dst=(pick(V),), src=tuple(pick(V) for _ in range(_SOURCES[op])),
                     lane=lane)
    if op == "LD4R_B":
        return Instr(op, dst=tuple(pick(V) for _ in range(4)), mem=mem)
    if op in ("LD1_16B", "LD1_8B", "LD1R_B"):
        return Instr(op, dst=(pick(V),), mem=mem)
    if op == "LDR_X":
        return Instr(op, dst=(pick(X),), mem=mem)
    if op == "ST1_16B":
        return Instr(op, src=(pick(V),), mem=mem)
    if op == "STR_X":
        return Instr(op, src=(pick(X),), mem=mem)
    if op == "MOVI_ZERO":
        return Instr(op, dst=(pick(V),))
    if op == "MOV_V_TO_X":
        return Instr(op, dst=(pick(X),), src=(pick(V),), lane=lane)
    if op == "MOV_X_TO_V":
        return Instr(op, dst=(pick(V),), src=(pick(X),), lane=lane)
    if op == "MOV_X_IMM":
        return Instr(op, dst=(pick(X),), imm=pick((0, 1, -1, 7, 1 << 40, -(1 << 62))))
    if op in ("SUBS", "ADD_X"):
        src = pick(((), (pick(X),), (pick(X),)))
        return Instr(op, dst=(pick(X),), src=src, imm=pick((0, 1, 3, 1 << 63)))
    assert op == "B_NE"
    return Instr(op)


def random_state():
    """Loads of random bytes into every register the streams use."""
    return ([Instr("LD1_16B", dst=(v,), mem=MemRef("R", 16 * i)) for i, v in enumerate(V)]
            + [Instr("LDR_X", dst=(x,), mem=MemRef("R", 16 * len(V) + 8 * i))
               for i, x in enumerate(X)])


def random_bytes(rng, shape, small):
    """Full-range bytes, or bytes of magnitude <= 2 (whose chains rarely
    wrap), so checked runs see both outcomes."""
    if small:
        return rng.choice(np.array([0, 1, 2, 254, 255], np.uint8), shape)
    return rng.integers(0, 256, shape, dtype=np.uint8)


def interpret(stream, buffers, check):
    sim = ArmSimulator({k: b.copy() for k, b in buffers.items()}, check_overflow=check)
    try:
        sim.run(stream)
    except OverflowDetected:
        return None
    snap = sim.regs.snapshot()
    return snap["v"], snap["x"], {k: sim.buffer(k).copy() for k in buffers}


def run_compiled(stream, buffers, check):
    try:
        written, v, x = compile_stream(stream).run(buffers, check_overflow=check)
    except OverflowDetected:
        return None
    return v, x, {k: written.get(k, b) for k, b in buffers.items()}


def assert_same(program, buffers, check):
    want = interpret(flatten(program), buffers, check)
    got = run_compiled(program, buffers, check)
    assert (got is None) == (want is None), "OverflowDetected differs from the interpreter"
    if want is not None:
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        for name in buffers:
            assert np.array_equal(got[2][name], want[2][name]), name
    return want is None


def buffers_for(rng, small):
    return {"R": random_bytes(rng, 16 * len(V) + 8 * len(X), small),
            "M": random_bytes(rng, MEM_BYTES, small)}


@pytest.mark.parametrize("op", sorted(ALL_OPS))
@pytest.mark.parametrize("check", [False, True])
def test_each_opcode_matches_interpreter(op, check):
    raised = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        pick = lambda seq: seq[rng.integers(len(seq))]  # noqa: E731
        stream = random_state() + [make_instr(op, pick) for _ in range(12)]
        raised.append(assert_same(stream, buffers_for(rng, small=seed % 2 == 0), check))
    if not check:
        assert not any(raised)


@st.composite
def random_streams(draw):
    ops = sorted(ALL_OPS)
    body = draw(st.lists(st.sampled_from(ops), min_size=1, max_size=40))
    pick = lambda seq: draw(st.sampled_from(list(seq)))  # noqa: E731
    return random_state() + [make_instr(op, pick) for op in body]


#: each case the strategy is meant to reach, in one stream
_FEATURES = random_state() + [
    Instr("SMLAL_8H", dst=("v0",), src=("v0", "v1")),  # a source is the destination
    Instr("SMLAL2_8H", dst=("v2",), src=("v0", "v0")),  # v0 read mid-chain
    Instr("SMLAL_8H", dst=("v0",), src=("v3", "v1")),
    Instr("MOV_X_TO_V", dst=("v0",), src=("x1",), lane=1),  # a partial 64-bit write
    Instr("ST1_16B", src=("v0",), mem=MemRef("M", 8)),
    Instr("LD1_16B", dst=("v4",), mem=MemRef("M", 0)),  # a load of stored bytes
    Instr("SADDW_4S", dst=("v5",), src=("v5", "v4")),
]


@given(random_streams(), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
@example(_FEATURES, 1, True, True)
@example(_FEATURES, 1, False, False)
@settings(max_examples=150, deadline=None)
def test_random_streams_match_interpreter(stream, seed, small, check):
    """All opcodes mixed: sources equal to destinations, registers read
    mid-chain, 64-bit halves written by MOV_X_TO_V, stores and loads on
    the same buffer."""
    assert_same(stream, buffers_for(np.random.default_rng(seed), small), check)


@pytest.mark.parametrize("check", [False, True])
def test_tiles_in_one_call_match_one_run_each(check):
    rng = np.random.default_rng(3)
    pick = lambda seq: seq[rng.integers(len(seq))]  # noqa: E731
    ops = sorted(ALL_OPS)
    stream = random_state() + [make_instr(pick(ops), pick) for _ in range(200)]
    tiles = 9
    stacked = {"R": random_bytes(rng, (tiles, 16 * len(V) + 8 * len(X)), small=True),
               "M": random_bytes(rng, (tiles, MEM_BYTES), small=True)}
    runs = [interpret(stream, {k: b[t] for k, b in stacked.items()}, check)
            for t in range(tiles)]
    got = run_compiled(stream, stacked, check)
    assert (got is None) == any(r is None for r in runs)
    if got is not None:
        for t, (v, x, mem) in enumerate(runs):
            assert np.array_equal(got[0][t], v) and np.array_equal(got[1][t], x)
            for name in stacked:
                assert np.array_equal(got[2][name][t], mem[name])


def test_stacked_panels_broadcast_like_a_gemm():
    """(m, 1, bytes) A panels against (1, n, bytes) B panels run every tile
    of the GEMM, each as its own interpreter run would."""
    rng = np.random.default_rng(7)
    k = 37
    kern = generate_smlal_kernel(4, k)
    a = rng.integers(-8, 8, (32, k)).astype(np.int8)
    b = rng.integers(-8, 8, (k, 12)).astype(np.int8)
    ap = pack_a(a, 16).reshape(2, 1, -1)
    bp = pack_b(b, 4).reshape(1, 3, -1)
    tiles = kern.execute(ap, bp, check_overflow=True)
    assert tiles.shape == (2, 3, 16, 4) and tiles.v.shape == (2, 3, 32, 16)
    for i in range(2):
        for j in range(3):
            c = np.zeros(kern.c_bytes, np.uint8)
            sim = ArmSimulator({"A": ap[i, 0], "B": bp[0, j], "C": c}, check_overflow=True)
            sim.run(kern.stream)
            assert np.array_equal(tiles[i, j], c.view(np.int32).reshape(4, 16).T)
            assert np.array_equal(tiles.v[i, j], sim.regs.snapshot()["v"])
            assert np.array_equal(tiles.x[i, j], sim.regs.snapshot()["x"])


def kernel_buffers(kern, a, b):
    return {"A": pack_a(a, kern.m_r).view(np.uint8), "B": pack_b(b, kern.n_r).view(np.uint8),
            "C": np.zeros(kern.c_bytes, np.uint8)}


def test_kernel_streams_match_interpreter():
    rng = np.random.default_rng(11)
    for kern, hi in ((generate_smlal_kernel(8, 40), 127), (generate_mla_kernel(3, 30), 4)):
        a = rng.integers(-hi, hi, (kern.m_r, kern.k)).astype(np.int8)
        b = rng.integers(-hi, hi, (kern.k, kern.n_r)).astype(np.int8)
        assert not assert_same(kern.code, kernel_buffers(kern, a, b), True)
    # one step past the 2-bit MLA chain, at the worst case, wraps in both
    kern = generate_mla_kernel(2, 32, chain_steps=32, allow_unsafe=True)
    worst = kernel_buffers(kern, np.full((64, 32), -2, np.int8), np.full((32, 1), -2, np.int8))
    assert assert_same(kern.code, worst, True)
    assert not assert_same(kern.code, worst, False)


@pytest.fixture
def no_group_runs(monkeypatch):
    """Fails the test if any instruction group executes."""
    def refuse(*args):
        raise AssertionError("an instruction ran")
    monkeypatch.setattr(compiled, "_EXEC", {op: refuse for op in compiled._EXEC})


@pytest.mark.parametrize("bad", [
    Instr("SMLAL_4S_LANE", dst=("v0",), src=("v1", "v2"), lane=8),
    Instr("SDOT_4S_LANE", dst=("v0",), src=("v1", "v2"), lane=4),
    Instr("MOV_V_TO_X", dst=("x0",), src=("v1",), lane=2),
    Instr("SMLAL_8H", dst=("v0",), src=("x1", "v2")),
    Instr("LD4R_B", dst=("v0", "v1"), mem=MemRef("M", 0)),
])
def test_malformed_instruction_raises_before_running(bad, no_group_runs):
    stream = [Instr("ST1_16B", src=("v0",), mem=MemRef("M", 0)), bad]
    with pytest.raises(SimulationError):
        compile_stream(stream).run({"M": np.zeros(MEM_BYTES, np.uint8)})


@pytest.mark.parametrize("buffers", [
    {"M": np.zeros(MEM_BYTES, np.uint8)},  # the load overruns M
    {"N": np.zeros(MEM_BYTES + 16, np.uint8)},  # M is unbound
])
def test_bad_memory_raises_before_running(buffers, no_group_runs):
    stream = [Instr("ST1_16B", src=("v0",), mem=MemRef("M", 0)),
              Instr("LD1_16B", dst=("v1",), mem=MemRef("M", MEM_BYTES))]
    with pytest.raises(SimulationError):
        compile_stream(stream).run(buffers)


def test_group_counts_of_long_streams(monkeypatch):
    """One numpy operation per group, and as many groups however long the
    K loop: each repeated body compiles once.  Neither running nor
    scheduling a kernel flattens its program."""
    groups = {k: len(generate_smlal_kernel(8, k).program.groups) for k in (64, 1024, 4608)}
    assert groups[64] == groups[1024] == groups[4608] < 40
    assert len(generate_smlal_kernel(8, 1024).stream) == 27695
    mla = generate_mla_kernel(2, 1152)
    assert len(mla.stream) == 10997 and len(mla.program.groups) < 60

    def refuse(*args):
        raise AssertionError("the program was flattened")

    monkeypatch.setattr(loops, "_unroll", refuse)
    kern = generate_smlal_kernel(8, 4608)
    kern.execute(np.zeros(kern.a_bytes, np.int8), np.zeros(kern.b_bytes, np.int8),
                 check_overflow=True)
    assert kern.cycles().instructions == 124463
