"""Structure-of-arrays GPU pricing: whole tiling populations in one shot.

The profile-run auto-search (Sec. 5.1) prices tens of thousands of
kernel-template instantiations per network.  :mod:`repro.gpu.pipelinemodel`
prices one candidate per Python call; this module decomposes a
``list[TilingParams]`` into parallel numpy arrays (one int64 column per
template parameter — MTile / NTile / KTile / KStep / warp-grid counts) and
reimplements every term of the scalar model as array expressions, so an
entire population is priced in a handful of numpy kernels.

**Bit-identity is the contract.**  Each array expression performs the same
float64 operations in the same order as its scalar twin (`_compute_cycles`,
`_dram_cycles`, the shared-memory term, `_blocks_per_sm`, occupancy,
launch), element by element.  IEEE-754 float64 arithmetic is deterministic,
so ``kernel_time_batch(...)[i]`` equals ``kernel_time(space[i], ...)`` to
the last bit — the equivalence suite in ``tests/test_gpu_random_tilings.py``
asserts it for every bit width and kernel-kwarg combination, and
:mod:`repro.gpu.autotune` leans on it to keep vectorized sweep winners
identical to the serial baseline.  The scalar path stays as the oracle
(and as the hardened fallback for fault-injected candidates).

The GEMM may differ per lane: a :class:`GemmArrays` in place of the
:class:`~repro.types.GemmShape` lets one call price many sweeps'
candidates, or bound one population for S shapes as an ``(S, C)`` array.

Illegal candidates never raise here: :func:`validate_mask` vectorizes
:func:`repro.gpu.tiling.validate_tiling` into a boolean legality mask
(including the "block does not fit on an SM" occupancy check the scalar
path raises for), and cycle lanes whose mask is ``False`` carry garbage
the caller must not read.  Denominators are clamped on those lanes only,
so legal lanes see exactly the scalar arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import TilingError
from ..obs import metrics as obs_metrics
from ..types import GemmShape
from .device import GpuDevice, TU102
from .mma import mma_shape
from .pipelinemodel import _K_ITER_OVERHEAD, _launch_cycles, GpuKernelPerf
from .tiling import TilingParams

#: TilingParams fields, in dataclass order (the SoA column set)
_FIELDS = ("m_tile", "n_tile", "k_tile", "k_step",
           "block_row_warps", "block_col_warps")


def _ceil_div(a, b):
    """Vector ceiling division (non-negative ``a``, positive ``b``)."""
    return -((-a) // b)


@dataclass(frozen=True)
class GemmArrays:
    """Per-lane GEMM dimensions: int64 ``m``/``k``/``n`` arrays that
    broadcast against a :class:`TilingArrays` population."""

    m: np.ndarray
    k: np.ndarray
    n: np.ndarray

    @classmethod
    def from_shapes(
        cls, shapes: Sequence[GemmShape], lanes=slice(None)
    ) -> "GemmArrays":
        """``shapes`` at numpy index ``lanes``: one row per lane given each
        lane's shape index, or ``(S, 1)`` columns with ``np.s_[:, None]``."""
        dims = np.array([(g.m, g.k, g.n) for g in shapes], dtype=np.int64)
        return cls(*np.moveaxis(dims.reshape(-1, 3)[lanes], -1, 0))

    def at(self, i: int) -> GemmShape:
        return GemmShape(int(self.m[i]), int(self.k[i]), int(self.n[i]))


@dataclass(frozen=True)
class TilingArrays:
    """A tiling population as parallel int64 columns (structure of arrays).

    Built once per (bits, device) search space and cached by the autotuner;
    ``take`` re-slices it for chunked pricing without touching the original
    ``TilingParams`` objects.
    """

    m_tile: np.ndarray
    n_tile: np.ndarray
    k_tile: np.ndarray
    k_step: np.ndarray
    block_row_warps: np.ndarray
    block_col_warps: np.ndarray

    @classmethod
    def from_params(cls, tilings: Sequence[TilingParams]) -> "TilingArrays":
        return cls(**{
            name: np.array([getattr(t, name) for t in tilings], dtype=np.int64)
            for name in _FIELDS
        })

    def __len__(self) -> int:
        return int(self.m_tile.shape[0])

    def take(self, indices) -> "TilingArrays":
        """The sub-population at ``indices`` (any numpy fancy index)."""
        return TilingArrays(**{
            name: getattr(self, name)[indices] for name in _FIELDS
        })

    def param_at(self, i: int) -> TilingParams:
        """The ``i``-th candidate back as a scalar :class:`TilingParams`."""
        return TilingParams(*(int(getattr(self, name)[i]) for name in _FIELDS))

    # -- derived columns (mirror the TilingParams properties) ---------------

    @property
    def warps_per_block(self) -> np.ndarray:
        return self.block_row_warps * self.block_col_warps

    @property
    def threads_per_block(self) -> np.ndarray:
        return self.warps_per_block * 32

    def smem_bytes(self, bits: int, *, double_buffer: bool = True) -> np.ndarray:
        """A_Tile + B_Tile staging footprint per candidate (int64).

        Matches ``int(tiles * factor)`` of the scalar property: the float
        product is non-negative, so truncation equals ``floor``.
        """
        elem = bits / 8
        tiles = (self.m_tile * self.k_tile + self.k_tile * self.n_tile) * elem
        return np.floor(tiles * (2 if double_buffer else 1)).astype(np.int64)

    def regs_per_thread(self, bits: int) -> np.ndarray:
        """Accumulator + operand + bookkeeping registers per thread.

        Warp-grid denominators are clamped to 1 so illegal lanes (killed by
        :func:`validate_mask` anyway) cannot divide by zero; legal lanes are
        untouched and reproduce the scalar float64 sequence exactly.
        """
        elem = bits / 8
        brw = np.maximum(1, self.block_row_warps)
        bcw = np.maximum(1, self.block_col_warps)
        m_frag = self.m_tile // brw
        n_frag = self.n_tile // bcw
        acc = m_frag * n_frag / 32
        frag = (m_frag + n_frag) * self.k_step * elem / 32 / 4
        return np.floor(acc + 2 * frag).astype(np.int64) + 16


def validate_mask(
    tilings: TilingArrays,
    bits: int,
    *,
    device: GpuDevice = TU102,
    double_buffer: bool = True,
) -> np.ndarray:
    """Boolean legality mask — ``True`` exactly where
    :func:`repro.gpu.tiling.validate_tiling` would *not* raise."""
    mm, nn, kk = mma_shape(bits)
    t = tilings
    brw = np.maximum(1, t.block_row_warps)
    bcw = np.maximum(1, t.block_col_warps)
    m_frag = t.m_tile // brw
    n_frag = t.n_tile // bcw
    rpt = t.regs_per_thread(bits)
    return (
        (t.m_tile > 0) & (t.n_tile > 0) & (t.k_tile > 0) & (t.k_step > 0)
        & (t.block_row_warps > 0) & (t.block_col_warps > 0)
        & (t.m_tile % brw == 0) & (t.n_tile % bcw == 0)
        & (m_frag % mm == 0) & (n_frag % nn == 0)
        & (t.k_tile % np.maximum(1, t.k_step) == 0) & (t.k_step % kk == 0)
        & (t.threads_per_block <= 1024)
        & (t.smem_bytes(bits, double_buffer=double_buffer)
           <= device.max_smem_per_block)
        & (rpt <= 255)
        & (rpt * t.threads_per_block <= device.regs_per_sm)
    )


def _grid_blocks(gemm: GemmShape | GemmArrays, t: TilingArrays) -> np.ndarray:
    return (_ceil_div(gemm.m, np.maximum(1, t.m_tile))
            * _ceil_div(gemm.n, np.maximum(1, t.n_tile)))


def _blocks_per_sm(
    t: TilingArrays, bits: int, device: GpuDevice, double_buffer: bool
) -> np.ndarray:
    by_smem = device.smem_per_sm // np.maximum(
        1, t.smem_bytes(bits, double_buffer=double_buffer))
    by_threads = device.max_threads_per_sm // np.maximum(1, t.threads_per_block)
    by_regs = device.regs_per_sm // np.maximum(
        1, t.regs_per_thread(bits) * t.threads_per_block)
    return np.maximum(0, np.minimum(
        np.minimum(by_smem, by_threads),
        np.minimum(by_regs, device.max_blocks_per_sm),
    ))


def _compute_cycles(
    gemm: GemmShape | GemmArrays,
    bits: int,
    t: TilingArrays,
    device: GpuDevice,
    *,
    tensor_core: bool,
    base_efficiency: float,
    split_k: int,
    occupancy,
) -> np.ndarray:
    k_tile = np.maximum(1, t.k_tile)
    k_pad = _ceil_div(gemm.k, k_tile) * k_tile
    k_pad_block = _ceil_div(_ceil_div(k_pad, split_k), k_tile) * k_tile
    block_macs = t.m_tile * t.n_tile * k_pad_block
    rate = device.mac_rate(bits, tensor_core=tensor_core)
    eff = base_efficiency * (0.35 + 0.65 * occupancy)
    k_iters = _ceil_div(k_pad_block, k_tile)
    block_cycles = block_macs / (rate * eff) + k_iters * _K_ITER_OVERHEAD
    blocks = _grid_blocks(gemm, t) * split_k
    return _ceil_div(blocks, device.sm_count) * block_cycles


def _dram_cycles(
    gemm: GemmShape | GemmArrays,
    bits: int,
    t: TilingArrays,
    device: GpuDevice,
    *,
    coalesced: bool,
    in_place_epilogue: bool,
    out_elem_bytes: float,
    split_k: int,
) -> np.ndarray:
    elem = bits / 8
    m_blocks = _ceil_div(gemm.m, np.maximum(1, t.m_tile))
    n_blocks = _ceil_div(gemm.n, np.maximum(1, t.n_tile))
    a_bytes_once = gemm.m * gemm.k * elem
    b_bytes_once = gemm.k * gemm.n * elem
    a_rereads = np.maximum(0, n_blocks - 1) * a_bytes_once
    b_rereads = np.maximum(0, m_blocks - 1) * b_bytes_once
    l2_speedup = 3.0
    a_reread_cost = a_rereads / np.where(
        a_bytes_once <= device.l2_bytes, l2_speedup, 1.0)
    b_reread_cost = b_rereads / np.where(
        b_bytes_once <= device.l2_bytes, l2_speedup, 1.0)
    out_bytes = gemm.m * gemm.n * (out_elem_bytes if in_place_epilogue else 4.0)
    if split_k > 1:
        base_blocks = _grid_blocks(gemm, t)
        partial = base_blocks * split_k * t.m_tile * t.n_tile * 4.0
        out_bytes = out_bytes + 2.0 * partial
    transaction_derate = 1.0 if coalesced else 4.0
    dram_bytes = (a_bytes_once + b_bytes_once + a_reread_cost
                  + b_reread_cost + out_bytes)
    return dram_bytes * transaction_derate / device.dram_bytes_per_cycle


def kernel_lower_bound_batch(
    gemm: GemmShape | GemmArrays,
    bits: int,
    tilings: TilingArrays,
    *,
    device: GpuDevice = TU102,
    tensor_core: bool = True,
    double_buffer: bool = True,
    reorder_smem: bool = True,
    coalesced: bool = True,
    in_place_epilogue: bool = True,
    out_elem_bytes: float = 1.0,
    base_efficiency: float = 0.55,
    split_k: int = 1,
) -> np.ndarray:
    """Per-candidate admissible lower bounds (float64 vector).

    Element ``i`` is bit-identical to
    :func:`repro.gpu.pipelinemodel.kernel_lower_bound` on candidate ``i``;
    the bound pass of a whole sweep (or of S, as ``(S, C)``) is one call.
    """
    del reorder_smem  # smem term is lower-bounded by 0, as in the scalar
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        compute = _compute_cycles(
            gemm, bits, tilings, device,
            tensor_core=tensor_core, base_efficiency=base_efficiency,
            split_k=split_k, occupancy=1.0,
        )
        dram = _dram_cycles(
            gemm, bits, tilings, device,
            coalesced=coalesced, in_place_epilogue=in_place_epilogue,
            out_elem_bytes=out_elem_bytes, split_k=split_k,
        )
        body = np.maximum(compute, dram) if double_buffer else compute + dram
    return body + _launch_cycles(device, split_k)


@dataclass(frozen=True)
class BatchKernelPerf:
    """Cycle breakdowns for a whole tiling population (SoA mirror of
    :class:`~repro.gpu.pipelinemodel.GpuKernelPerf`).

    ``legal`` marks the candidates the scalar path would price without
    raising; cycle lanes where it is ``False`` are undefined and must not
    be read (a :class:`GemmArrays` ``gemm`` is lane-aligned).
    :meth:`perf_at` reconstitutes one lane as a scalar
    :class:`GpuKernelPerf` that compares equal (``==``, bit-for-bit) to
    the scalar model's result.
    """

    gemm: GemmShape | GemmArrays
    bits: int
    tilings: TilingArrays
    compute_cycles: np.ndarray
    dram_cycles: np.ndarray
    smem_cycles: np.ndarray
    launch_cycles: float
    blocks: np.ndarray
    blocks_per_sm: np.ndarray
    occupancy: np.ndarray
    overlapped: bool
    legal: np.ndarray

    def __len__(self) -> int:
        return len(self.tilings)

    @property
    def total_cycles(self) -> np.ndarray:
        if self.overlapped:
            body = np.maximum(
                np.maximum(self.compute_cycles, self.dram_cycles),
                self.smem_cycles,
            )
        else:
            body = self.compute_cycles + self.dram_cycles + 0.5 * self.smem_cycles
        return body + self.launch_cycles

    def perf_at(self, i: int) -> GpuKernelPerf:
        if not bool(self.legal[i]):
            raise TilingError(
                f"{self.tilings.param_at(i).describe()}: illegal candidate "
                f"lane has no defined cycle breakdown"
            )
        gemm = self.gemm
        return GpuKernelPerf(
            gemm=gemm.at(i) if isinstance(gemm, GemmArrays) else gemm,
            tiling=self.tilings.param_at(i),
            bits=self.bits,
            compute_cycles=float(self.compute_cycles[i]),
            dram_cycles=float(self.dram_cycles[i]),
            smem_cycles=float(self.smem_cycles[i]),
            launch_cycles=float(self.launch_cycles),
            blocks=int(self.blocks[i]),
            blocks_per_sm=int(self.blocks_per_sm[i]),
            occupancy=float(self.occupancy[i]),
            overlapped=self.overlapped,
        )


def kernel_time_batch(
    gemm: GemmShape | GemmArrays,
    bits: int,
    tilings: TilingArrays,
    *,
    device: GpuDevice = TU102,
    tensor_core: bool = True,
    double_buffer: bool = True,
    reorder_smem: bool = True,
    coalesced: bool = True,
    in_place_epilogue: bool = True,
    out_elem_bytes: float = 1.0,
    base_efficiency: float = 0.55,
    split_k: int = 1,
) -> BatchKernelPerf:
    """Price a whole tiling population in one shot.

    Same keyword surface as :func:`repro.gpu.pipelinemodel.kernel_time`;
    every legal lane's breakdown is bit-identical to the scalar call.
    One batched profile-run counter tick replaces the scalar path's
    per-call (capture-gated) tick — cheap enough to record unconditionally,
    which is what makes ``gpu_profile_runs{pricing_mode=vector}`` reliable
    in metrics snapshots.
    """
    if split_k < 1:
        raise TilingError(f"split_k must be >= 1, got {split_k}")
    t = tilings
    elem = bits / 8

    legal = validate_mask(t, bits, device=device, double_buffer=double_buffer)
    base_blocks = _grid_blocks(gemm, t)
    blocks = base_blocks * split_k
    bps = _blocks_per_sm(t, bits, device, double_buffer)
    legal = legal & (bps > 0)  # the scalar "block does not fit on an SM"

    warps_resident = bps * t.warps_per_block
    occupancy = np.minimum(1.0, warps_resident / 16.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        compute = _compute_cycles(
            gemm, bits, t, device,
            tensor_core=tensor_core, base_efficiency=base_efficiency,
            split_k=split_k, occupancy=occupancy,
        )
        dram = _dram_cycles(
            gemm, bits, t, device,
            coalesced=coalesced, in_place_epilogue=in_place_epilogue,
            out_elem_bytes=out_elem_bytes, split_k=split_k,
        )
        k_tile = np.maximum(1, t.k_tile)
        k_pad = _ceil_div(gemm.k, k_tile) * k_tile
        k_pad_block = _ceil_div(_ceil_div(k_pad, split_k), k_tile) * k_tile
        frag_bytes_per_block = (
            t.block_col_warps * t.m_tile
            + t.block_row_warps * t.n_tile
        ) * k_pad_block * elem
        smem_bytes_total = blocks * frag_bytes_per_block
        smem_bw = device.smem_bytes_per_cycle if reorder_smem else 24.0
        active_sms = np.minimum(blocks, device.sm_count)
        smem = smem_bytes_total / (smem_bw * active_sms)

    launch = _launch_cycles(device, split_k)
    obs_metrics.counter(
        "gpu_profile_runs", bits=bits, pricing_mode="vector"
    ).inc(len(t))
    return BatchKernelPerf(
        gemm=gemm,
        bits=bits,
        tilings=t,
        compute_cycles=compute,
        dram_cycles=dram,
        smem_cycles=smem,
        launch_cycles=launch,
        blocks=blocks,
        blocks_per_sm=bps,
        occupancy=occupancy,
        overlapped=double_buffer,
        legal=legal,
    )
