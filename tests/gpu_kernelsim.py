"""Block-level GPU kernel simulator: Alg. 2 as a scheduled program.

:mod:`repro.gpu.implicit_gemm` computes the kernel's *semantics*; this
module builds the kernel as an explicit **block program**, the statement
sequence one thread block executes, staging tiles through a register
buffer and shared memory exactly as Fig. 6 lays out:

    I    GLD   stage next A/B tiles from global memory into the register
               temporal buffer (overlaps with IV under double buffering)
    II   STS   spill the register buffer into shared memory
    sync BAR   __syncthreads
    III  LDS   each warp loads its A/B fragments from shared memory
    IV   MMA   tensor-core fragment multiply-accumulate
    end  EPI   in-place bias/requant + STG of the C fragments

:func:`schedule_block_program` runs the program through an event-driven
scheduler (memory, shared-memory and tensor pipes) honoring the
dependencies and barriers.  It reproduces the Fig. 6 overlap claim
mechanically and cross-validates the closed-form model in
:mod:`repro.gpu.pipelinemodel` (``tests/test_gpu_kernelsim.py``); no
production code runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ShapeError, SimulationError
from repro.gpu.device import GpuDevice, TU102
from repro.gpu.mma import mma_shape
from repro.gpu.tiling import TilingParams

#: block-program opcodes
OPS = ("GLD_A", "GLD_B", "STS_A", "STS_B", "BAR", "LDS_FRAG", "MMA", "EPI")


@dataclass(frozen=True)
class BlockInstr:
    """One block-level statement."""

    op: str
    #: which k_outer iteration's tile this statement touches
    k_iter: int = 0
    #: warp coordinates for warp-granular statements (LDS/MMA)
    warp: tuple[int, int] | None = None
    #: mma coordinates within the warp fragment
    frag: tuple[int, int, int] | None = None  #: (fm, fn, k_lo)
    #: which of the two staging buffers this statement uses
    stage: int = 0

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise SimulationError(f"unknown block op {self.op!r}")


def generate_block_program(
    tiling: TilingParams,
    bits: int,
    k_iters: int,
    *,
    double_buffer: bool = True,
) -> list[BlockInstr]:
    """The statement stream of one thread block over ``k_iters`` K tiles.

    With double buffering, iteration ``i+1``'s GLD statements are emitted
    *before* iteration ``i``'s MMAs (they fill the alternate staging
    buffer), which is what lets the scheduler overlap them; without it,
    every iteration serializes GLD -> STS -> sync -> LDS -> MMA.
    """
    if k_iters <= 0:
        raise ShapeError(f"k_iters must be positive, got {k_iters}")
    mm, nn, kk = mma_shape(bits)
    out: list[BlockInstr] = []

    def emit_gld(i: int) -> None:
        s = i % 2 if double_buffer else 0
        out.append(BlockInstr("GLD_A", k_iter=i, stage=s))
        out.append(BlockInstr("GLD_B", k_iter=i, stage=s))

    def emit_compute(i: int) -> None:
        s = i % 2 if double_buffer else 0
        out.append(BlockInstr("STS_A", k_iter=i, stage=s))
        out.append(BlockInstr("STS_B", k_iter=i, stage=s))
        out.append(BlockInstr("BAR", k_iter=i))
        for wr in range(tiling.block_row_warps):
            for wc in range(tiling.block_col_warps):
                warp = (wr, wc)
                out.append(BlockInstr("LDS_FRAG", k_iter=i, warp=warp, stage=s))
                for k_lo in range(0, tiling.k_tile, kk):
                    for fm in range(0, tiling.m_frag, mm):
                        for fn in range(0, tiling.n_frag, nn):
                            out.append(BlockInstr(
                                "MMA", k_iter=i, warp=warp,
                                frag=(fm, fn, k_lo), stage=s,
                            ))

    if double_buffer:
        emit_gld(0)
        for i in range(k_iters):
            if i + 1 < k_iters:
                emit_gld(i + 1)  # stage I for the next iteration (Fig. 6)
            emit_compute(i)
    else:
        for i in range(k_iters):
            emit_gld(i)
            emit_compute(i)
    out.append(BlockInstr("EPI", k_iter=k_iters - 1))
    return out


# ---------------------------------------------------------------------------
# Temporal (event-driven) scheduling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSchedule:
    """Timing outcome of one block program."""

    cycles: float
    mem_busy: float
    tensor_busy: float
    smem_busy: float
    overlap_cycles: float  #: memory-pipe cycles hidden under compute

    @property
    def mem_utilization(self) -> float:
        return self.mem_busy / self.cycles if self.cycles else 0.0


def schedule_block_program(
    program: list[BlockInstr],
    tiling: TilingParams,
    bits: int,
    *,
    device: GpuDevice = TU102,
    active_blocks_per_sm: int = 1,
    reorder_smem: bool = True,
    l2_service: float = 3.0,
) -> BlockSchedule:
    """Event-driven schedule of one block on one SM's pipes.

    Three resources: the memory pipe (global loads + stores), the shared-
    memory pipe (STS/LDS), the tensor pipe (MMA).  A statement starts when
    its resource is free *and* its dependencies completed: STS needs the
    matching GLD, LDS needs the barrier, MMA needs its warp's LDS, and the
    barrier needs the STS of its iteration.  Per-SM global bandwidth is the
    device bandwidth divided across SMs and concurrent blocks, boosted by
    ``l2_service``: neighboring blocks along a GEMM row/column share their
    A/B tiles, so most GLDs are L2 hits rather than DRAM fetches.
    """
    elem = bits / 8
    mm, nn, kk = mma_shape(bits)
    gmem_bw = (device.dram_bytes_per_cycle * l2_service
               / device.sm_count / active_blocks_per_sm)
    smem_bw = device.smem_bytes_per_cycle / active_blocks_per_sm
    if not reorder_smem:
        smem_bw /= 4.0  # LDS.32 storm (Fig. 5)
    tc_rate = device.mac_rate(bits) / active_blocks_per_sm

    a_bytes = tiling.m_tile * tiling.k_tile * elem
    b_bytes = tiling.k_tile * tiling.n_tile * elem
    frag_bytes = (tiling.m_frag * tiling.k_tile
                  + tiling.k_tile * tiling.n_frag) * elem
    mma_cycles = (mm * nn * kk) / tc_rate

    mem_free = smem_free = tensor_free = 0.0
    mem_busy = smem_busy = tensor_busy = 0.0
    gld_done: dict[tuple[str, int], float] = {}
    sts_done: dict[tuple[str, int], float] = {}
    stage_free: dict[tuple[str, int], float] = {}  #: WAR: staging regs reusable
    bar_done: dict[int, float] = {}
    lds_done: dict[tuple[tuple[int, int], int], float] = {}
    gmem_latency = 300.0  # cycles: the latency double buffering hides

    def run(resource_free: float, ready: float, duration: float) -> tuple[float, float]:
        start = max(resource_free, ready)
        return start, start + duration

    end = 0.0
    for ins in program:
        if ins.op in ("GLD_A", "GLD_B"):
            dur = (a_bytes if ins.op == "GLD_A" else b_bytes) / gmem_bw
            # WAR on the staging registers: a single-buffered kernel cannot
            # start the next tile's load until the previous STS drained the
            # buffer — the serialization Fig. 6's double buffer removes
            war = stage_free.get((ins.op[-1], ins.stage), 0.0)
            start, done = run(mem_free, war, dur)
            mem_free = done
            mem_busy += dur
            gld_done[(ins.op[-1], ins.k_iter)] = done + gmem_latency
        elif ins.op in ("STS_A", "STS_B"):
            dep = gld_done[(ins.op[-1], ins.k_iter)]
            dur = (a_bytes if ins.op == "STS_A" else b_bytes) / smem_bw
            start, done = run(smem_free, dep, dur)
            smem_free = done
            smem_busy += dur
            sts_done[(ins.op[-1], ins.k_iter)] = done
            stage_free[(ins.op[-1], ins.stage)] = done
        elif ins.op == "BAR":
            dep = max(sts_done.get(("A", ins.k_iter), 0.0),
                      sts_done.get(("B", ins.k_iter), 0.0),
                      tensor_free)  # all warps must arrive
            bar_done[ins.k_iter] = dep
        elif ins.op == "LDS_FRAG":
            dep = bar_done[ins.k_iter]
            dur = frag_bytes / smem_bw
            start, done = run(smem_free, dep, dur)
            smem_free = done
            smem_busy += dur
            lds_done[(ins.warp, ins.k_iter)] = done
        elif ins.op == "MMA":
            dep = lds_done[(ins.warp, ins.k_iter)]
            start, done = run(tensor_free, dep, mma_cycles)
            tensor_free = done
            tensor_busy += mma_cycles
        elif ins.op == "EPI":
            out_bytes = tiling.m_tile * tiling.n_tile * elem
            dur = out_bytes / gmem_bw
            start, done = run(mem_free, tensor_free, dur)
            mem_free = done
            mem_busy += dur
        end = max(end, mem_free, smem_free, tensor_free)

    serial = mem_busy + smem_busy + tensor_busy
    return BlockSchedule(
        cycles=end,
        mem_busy=mem_busy,
        tensor_busy=tensor_busy,
        smem_busy=smem_busy,
        overlap_cycles=max(0.0, serial - end),
    )
