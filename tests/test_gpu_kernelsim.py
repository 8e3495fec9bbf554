"""Event-driven block-level GPU simulator (Alg. 2 / Fig. 6, scheduled)."""

import itertools

import pytest

from repro.errors import ShapeError, SimulationError
from repro.gpu.mma import mma_shape
from repro.gpu.tiling import TilingParams

from .gpu_kernelsim import (
    BlockInstr,
    generate_block_program,
    schedule_block_program,
)

SMALL = TilingParams(16, 16, 16, 16, 1, 1)
MID = TilingParams(64, 64, 32, 16, 2, 2)


def test_program_structure():
    prog = generate_block_program(SMALL, 8, 4, double_buffer=True)
    ops = [p.op for p in prog]
    # double buffering: the second iteration's GLD precedes the first MMA
    first_mma = ops.index("MMA")
    glds_before = [p for p in prog[:first_mma] if p.op == "GLD_A"]
    assert {p.k_iter for p in glds_before} == {0, 1}
    assert ops[-1] == "EPI"
    # stages alternate
    stages = [p.stage for p in prog if p.op == "GLD_A"]
    assert stages == [0, 1, 0, 1]


@pytest.mark.parametrize("double_buffer", [True, False])
@pytest.mark.parametrize("tiling,bits", [
    (SMALL, 8), (MID, 8), (TilingParams(32, 16, 64, 32, 2, 1), 4)])
def test_program_stages_every_fragment_once(tiling, bits, double_buffer):
    """Each iteration's tiles pass GLD -> STS -> BAR -> LDS before a warp's
    MMAs read them, no stage is refilled while an earlier iteration still
    reads it, and the MMAs cover every fragment of the block tile once per
    iteration."""
    mm, nn, kk = mma_shape(bits)
    k_iters = 4
    prog = generate_block_program(tiling, bits, k_iters,
                                  double_buffer=double_buffer)
    at = {}
    for pos, ins in enumerate(prog):
        at.setdefault((ins.op, ins.k_iter, ins.warp), []).append(pos)
    warps = list(itertools.product(range(tiling.block_row_warps),
                                   range(tiling.block_col_warps)))
    frags = sorted(itertools.product(range(0, tiling.m_frag, mm),
                                     range(0, tiling.n_frag, nn),
                                     range(0, tiling.k_tile, kk)))
    for i in range(k_iters):
        (bar,) = at[("BAR", i, None)]
        for x in "AB":
            (gld,), (sts,) = at[(f"GLD_{x}", i, None)], at[(f"STS_{x}", i, None)]
            assert gld < sts < bar
            stage = prog[sts].stage
            assert prog[gld].stage == stage
            for j in range(i):  # earlier users of the same staging buffer
                if prog[at[(f"STS_{x}", j, None)][0]].stage == stage:
                    assert gld > at[(f"STS_{x}", j, None)][0]
                    assert sts > max(at[("LDS_FRAG", j, w)][0] for w in warps)
        for warp in warps:
            (lds,) = at[("LDS_FRAG", i, warp)]
            mmas = at[("MMA", i, warp)]
            assert bar < lds < min(mmas)
            assert sorted(prog[p].frag for p in mmas) == frags
            assert {prog[p].stage for p in mmas} == {prog[lds].stage}
    assert prog[-1].op == "EPI"


def test_instr_validation():
    with pytest.raises(SimulationError):
        BlockInstr("NOT_AN_OP")
    with pytest.raises(ShapeError):
        generate_block_program(SMALL, 8, 0)


def test_double_buffer_overlap_fig6():
    """The event-driven schedule reproduces Fig. 6: with the register
    temporal buffer, global loads hide under mma; without it, the WAR on
    the staging registers serializes the pipeline."""
    db = schedule_block_program(
        generate_block_program(MID, 8, 16, double_buffer=True), MID, 8)
    nd = schedule_block_program(
        generate_block_program(MID, 8, 16, double_buffer=False), MID, 8)
    assert db.cycles < nd.cycles * 0.85
    assert db.overlap_cycles > 0


def test_reorder_ablation_in_schedule():
    on = schedule_block_program(
        generate_block_program(MID, 8, 16), MID, 8, reorder_smem=True)
    off = schedule_block_program(
        generate_block_program(MID, 8, 16), MID, 8, reorder_smem=False)
    assert off.cycles > on.cycles
    assert off.smem_busy == pytest.approx(4 * on.smem_busy)


def test_schedule_accounting_consistent():
    s = schedule_block_program(generate_block_program(MID, 8, 8), MID, 8)
    assert s.cycles >= max(s.mem_busy, s.tensor_busy, s.smem_busy)
    assert s.mem_utilization <= 1.0
    assert s.overlap_cycles >= 0


def test_cross_validation_with_analytic_model():
    """Per-block cycles from the event-driven simulator land within a small
    factor of the closed-form model (they share no code)."""
    from repro.gpu.pipelinemodel import kernel_time
    from repro.types import GemmShape

    k_iters = 16
    gemm = GemmShape(m=MID.m_tile, k=MID.k_tile * k_iters, n=MID.n_tile)
    analytic = kernel_time(gemm, 8, MID).total_cycles
    event = schedule_block_program(
        generate_block_program(MID, 8, k_iters), MID, 8).cycles
    ratio = event / analytic
    assert 0.3 < ratio < 3.0
