"""Analytic GPU kernel cost model, for one tiling or a whole population.

Composes the quantities the paper's optimizations manipulate:

* **compute** — tensor-core (or dp4a) MAC cycles, derated by achieved
  occupancy and wave quantization (few blocks -> idle SMs, the reason
  shape-adapted tiling wins at batch 1, Sec. 5.3);
* **dram** — per-block A/B tile traffic (A re-read once per N-tile column,
  B once per M-tile row; re-reads are served partly by L2) plus the
  epilogue store;
* **smem** — staged-fragment traffic, 4x more instructions (and
  correspondingly less bandwidth) without the Fig. 5 reordering;
* **overlap** — with the Fig. 6 register double buffer, compute and memory
  pipelines overlap (``max``); without it they serialize (``+``).

Each term is one function written with plain operators and numpy's
``minimum``/``maximum``, so it takes a
:class:`~repro.gpu.tiling.TilingParams` with a
:class:`~repro.types.GemmShape`, or a
:class:`~repro.gpu.tiling.TilingArrays` population with a ``GemmShape``
or per-lane :class:`GemmArrays`.  One lane of a population runs the same
float64 operations, in the same order, as the one-tiling call, and
IEEE-754 arithmetic is deterministic, so
``kernel_time_batch(...).perf_at(i) == kernel_time(...)`` bit for bit.
:func:`kernel_time` validates its tiling and returns Python numbers;
:func:`kernel_time_batch` prices a legal population (the autotuner's,
built from :func:`~repro.gpu.tiling.search_space`) in a handful of numpy
kernels.  Legality is decided once, by
:func:`~repro.gpu.tiling.validate_tiling`, so no term guards against an
illegal tiling or a non-positive GEMM dimension.

All times are device cycles; ``GpuKernelPerf.microseconds`` converts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import TilingError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..types import ConvSpec, GemmShape
from .device import GpuDevice, TU102
from .tiling import TilingArrays, TilingParams, default_tiling, validate_tiling

#: cycles per k_outer iteration: __syncthreads, staging pointer math,
#: predicated-gather index arithmetic — what makes micro tiles non-free
_K_ITER_OVERHEAD = 60.0


@dataclass(frozen=True)
class GemmArrays:
    """Per-lane GEMM dimensions: int64 ``m``/``k``/``n`` arrays that
    broadcast against a :class:`~repro.gpu.tiling.TilingArrays`."""

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


# ---------------------------------------------------------------------------
# The terms
# ---------------------------------------------------------------------------


def _ceil_div(a, b):
    """Ceiling division of ints or int64 arrays, ``a >= 0`` and ``b > 0``."""
    return -(-a // b)


def grid_blocks(gemm, tiling):
    """Thread blocks launched for a GEMM under a tiling (grid level)."""
    return _ceil_div(gemm.m, tiling.m_tile) * _ceil_div(gemm.n, tiling.n_tile)


def _k_pad_block(gemm, t, split_k: int):
    """One block's K: padded to whole KTiles, split ``split_k`` ways, and
    padded to whole KTiles again."""
    k_pad = _ceil_div(gemm.k, t.k_tile) * t.k_tile
    return _ceil_div(_ceil_div(k_pad, split_k), t.k_tile) * t.k_tile


def _blocks_per_sm(t, bits: int, device: GpuDevice, double_buffer: bool):
    """Resident blocks per SM: the scarcest of shared memory, threads,
    registers and block slots (at least 1 for a legal tiling)."""
    by_smem = device.smem_per_sm // t.smem_bytes(bits, double_buffer=double_buffer)
    by_threads = device.max_threads_per_sm // t.threads_per_block
    by_regs = device.regs_per_sm // (t.regs_per_thread(bits) * t.threads_per_block)
    return np.minimum(np.minimum(by_smem, by_threads),
                      np.minimum(by_regs, device.max_blocks_per_sm))


def _occupancy(t, blocks_per_sm):
    """Resident warps over the 16 that keep the tensor pipes fed, capped at 1."""
    return np.minimum(1.0, blocks_per_sm * t.warps_per_block / 16.0)


def _compute_cycles(gemm, bits: int, t, device: GpuDevice, *, tensor_core: bool,
                    base_efficiency: float, split_k: int, occupancy):
    """Tensor-pipe cycles at a given occupancy (shared with the pruning
    bound, which calls it at ``occupancy=1.0`` — the best case, since the
    efficiency derate is monotone in occupancy)."""
    k_pad_block = _k_pad_block(gemm, t, split_k)
    block_macs = t.m_tile * t.n_tile * k_pad_block
    rate = device.mac_rate(bits, tensor_core=tensor_core)
    eff = base_efficiency * (0.35 + 0.65 * occupancy)
    k_iters = _ceil_div(k_pad_block, t.k_tile)
    block_cycles = block_macs / (rate * eff) + k_iters * _K_ITER_OVERHEAD
    # an SM's concurrent blocks share its tensor pipes, so throughput-wise
    # blocks serialize per SM; partial waves still pay a full block time
    blocks = grid_blocks(gemm, t) * split_k
    return _ceil_div(blocks, device.sm_count) * block_cycles


def _dram_cycles(gemm, bits: int, t, device: GpuDevice, *, coalesced: bool,
                 in_place_epilogue: bool, out_elem_bytes: float, split_k: int):
    """Global-memory cycles; exact for any tiling (no occupancy term)."""
    elem = bits / 8
    a_bytes_once = gemm.m * gemm.k * elem
    b_bytes_once = gemm.k * gemm.n * elem
    a_rereads = (_ceil_div(gemm.n, t.n_tile) - 1) * a_bytes_once
    b_rereads = (_ceil_div(gemm.m, t.m_tile) - 1) * b_bytes_once
    # re-reads hit L2 when the operand fits there (weights usually do): the
    # divisor is exactly 3.0 where it fits, else 1.0 (a bool times 2.0)
    a_reread_cost = a_rereads / (1.0 + 2.0 * (a_bytes_once <= device.l2_bytes))
    b_reread_cost = b_rereads / (1.0 + 2.0 * (b_bytes_once <= device.l2_bytes))
    out_bytes = gemm.m * gemm.n * (out_elem_bytes if in_place_epilogue else 4.0)
    if split_k > 1:
        # partial int32 tiles written then re-read by the reduction kernel
        partial = grid_blocks(gemm, t) * split_k * t.m_tile * t.n_tile * 4.0
        out_bytes = out_bytes + 2.0 * partial
    transaction_derate = 1.0 if coalesced else 4.0
    dram_bytes = (a_bytes_once + b_bytes_once + a_reread_cost
                  + b_reread_cost + out_bytes)
    return dram_bytes * transaction_derate / device.dram_bytes_per_cycle


def _smem_cycles(gemm, bits: int, t, device: GpuDevice, *, reorder_smem: bool,
                 split_k: int):
    """Shared-memory cycles of the staged-fragment reads."""
    blocks = grid_blocks(gemm, t) * split_k
    elem = bits / 8
    # every warp re-reads its A/B fragments from the staged tiles: warps in
    # the same block row share B columns and warps in the same column share
    # A rows, so the per-block LDS traffic is (bcw*MTile + brw*NTile)*K
    frag_bytes_per_block = (
        t.block_col_warps * t.m_tile + t.block_row_warps * t.n_tile
    ) * _k_pad_block(gemm, t, split_k) * elem
    smem_bytes_total = blocks * frag_bytes_per_block
    # without the Fig. 5 reordering each 16 bytes take four LDS.32 issue
    # slots instead of one LDS.128 — the path becomes instruction-bound
    smem_bw = device.smem_bytes_per_cycle if reorder_smem else 24.0
    active_sms = np.minimum(blocks, device.sm_count)
    return smem_bytes_total / (smem_bw * active_sms)


def _launch_cycles(device: GpuDevice, split_k: int) -> float:
    launch = device.launch_overhead_s * device.clock_hz
    if split_k > 1:
        launch *= 2  # the trailing reduction kernel
    return launch


def _total_cycles(perf):
    """Body plus launch of a :class:`GpuKernelPerf` or
    :class:`BatchKernelPerf`: with the double buffer the pipelines
    overlap (``max``), without it they serialize."""
    if perf.overlapped:
        body = np.maximum(np.maximum(perf.compute_cycles, perf.dram_cycles),
                          perf.smem_cycles)
    else:
        body = perf.compute_cycles + perf.dram_cycles + 0.5 * perf.smem_cycles
    return body + perf.launch_cycles


def kernel_lower_bound(
    gemm: GemmShape | GemmArrays,
    bits: int,
    tiling: TilingParams | TilingArrays,
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
):
    """An *admissible* lower bound on ``kernel_time(...).total_cycles``,
    a float64 per lane for a population (``(S, C)`` for ``(S, 1)``
    :class:`GemmArrays` columns against ``C`` tilings).

    Built from the same terms as :func:`kernel_time` so the two cannot
    drift apart:

    * **compute floor** — the exact compute term evaluated at occupancy
      1.0 (its best case: the efficiency derate is monotone increasing in
      occupancy, which ``min(1, ...)`` caps at 1);
    * **bandwidth floor** — the exact DRAM term, which carries no
      occupancy dependence at all;
    * the shared-memory term is bounded below by zero and dropped.

    With the Fig. 6 double buffer the pipelines overlap, so the body is
    ``max`` of its terms and the bound is ``max(compute_floor, dram)``;
    without it the body is a sum and the bound tightens to
    ``compute_floor + dram``.  Either way ``bound <= total_cycles`` for
    every legal tiling, which is what makes branch-and-bound pruning in
    :mod:`repro.gpu.autotune` exact: a candidate is discarded only when
    its bound already exceeds the incumbent's *achieved* time.

    It reads only the tiling's MTile, NTile and KTile: the warp counts
    and ``k_step`` enter the model through occupancy, which the compute
    floor fixes at 1 and the DRAM term lacks, and the dropped smem term.
    So the autotuner bounds each distinct block once.

    ``reorder_smem`` is accepted (and ignored) so the autotuner can pass
    its kernel kwargs through unfiltered.
    """
    del reorder_smem  # smem term is lower-bounded by 0
    compute = _compute_cycles(
        gemm, bits, tiling, device,
        tensor_core=tensor_core, base_efficiency=base_efficiency,
        split_k=split_k, occupancy=1.0,
    )
    dram = _dram_cycles(
        gemm, bits, tiling, device,
        coalesced=coalesced, in_place_epilogue=in_place_epilogue,
        out_elem_bytes=out_elem_bytes, split_k=split_k,
    )
    body = np.maximum(compute, dram) if double_buffer else compute + dram
    return body + _launch_cycles(device, split_k)


def _breakdown(
    gemm, bits: int, t, device: GpuDevice, tensor_core: bool,
    double_buffer: bool, reorder_smem: bool, coalesced: bool,
    in_place_epilogue: bool, out_elem_bytes: float, base_efficiency: float,
    split_k: int,
) -> tuple:
    """Every term, in the field order :class:`GpuKernelPerf` and
    :class:`BatchKernelPerf` share after their GEMM, tiling and bits."""
    if split_k < 1:
        raise TilingError(f"split_k must be >= 1, got {split_k}")
    bps = _blocks_per_sm(t, bits, device, double_buffer)
    occupancy = _occupancy(t, bps)
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
    smem = _smem_cycles(gemm, bits, t, device,
                        reorder_smem=reorder_smem, split_k=split_k)
    return (compute, dram, smem, _launch_cycles(device, split_k),
            grid_blocks(gemm, t) * split_k, bps, occupancy, double_buffer)


# ---------------------------------------------------------------------------
# One tiling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GpuKernelPerf:
    """Cycle breakdown of one kernel launch, in Python numbers."""

    gemm: GemmShape
    tiling: TilingParams
    bits: int
    compute_cycles: float
    dram_cycles: float
    smem_cycles: float
    launch_cycles: float
    blocks: int
    blocks_per_sm: int
    occupancy: float
    overlapped: bool

    @functools.cached_property
    def total_cycles(self) -> float:
        return float(_total_cycles(self))

    def microseconds(self, device: GpuDevice = TU102) -> float:
        return device.microseconds(self.total_cycles)

    @property
    def bound(self) -> str:
        parts = {
            "compute": self.compute_cycles,
            "dram": self.dram_cycles,
            "smem": self.smem_cycles,
        }
        return max(parts, key=parts.get)


def _perf(gemm: GemmShape, tiling: TilingParams, bits: int, compute, dram,
          smem, launch, blocks, bps, occupancy, overlapped) -> GpuKernelPerf:
    """One tiling's terms as a :class:`GpuKernelPerf` of Python numbers
    (a numpy scalar would change the ``repr`` that result digests hash)."""
    return GpuKernelPerf(
        gemm=gemm,
        tiling=tiling,
        bits=bits,
        compute_cycles=float(compute),
        dram_cycles=float(dram),
        smem_cycles=float(smem),
        launch_cycles=float(launch),
        blocks=int(blocks),
        blocks_per_sm=int(bps),
        occupancy=float(occupancy),
        overlapped=overlapped,
    )


def kernel_time(
    gemm: GemmShape,
    bits: int,
    tiling: TilingParams | None = None,
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
) -> GpuKernelPerf:
    """Cycle estimate for one implicit-GEMM conv kernel launch.

    ``base_efficiency`` is the fraction of peak MAC rate a well-occupied
    kernel sustains (instruction mix, bank conflicts, scheduling); the
    TensorRT baseline uses a higher constant (heavily-tuned SASS,
    Sec. 5.3) and cuDNN's dp4a path its own.  ``split_k`` > 1 models the
    library kernels that shard the reduction across blocks (the paper's
    own parameter set does not include it), paying partial-sum traffic and
    a reduction launch.
    """
    tiling = tiling or default_tiling(bits)
    validate_tiling(tiling, bits, device=device, double_buffer=double_buffer)
    terms = _breakdown(
        gemm, bits, tiling, device, tensor_core, double_buffer, reorder_smem,
        coalesced, in_place_epilogue, out_elem_bytes, base_efficiency, split_k)
    if obs_trace.active():
        # one profile run of the pipeline model; per-call detail is gated
        # because single-tiling calls come in the hundreds per figure pass
        # (a population records batched, ungated)
        obs_metrics.counter(
            "gpu_profile_runs", bits=bits, pricing_mode="scalar"
        ).inc()
    return _perf(gemm, tiling, bits, *terms)


# ---------------------------------------------------------------------------
# A population
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchKernelPerf:
    """Cycle breakdowns of a tiling population, one lane per candidate
    (the arrays of :class:`GpuKernelPerf`; a :class:`GemmArrays` ``gemm``
    is lane-aligned).  :meth:`perf_at` returns one lane as the
    :class:`GpuKernelPerf` :func:`kernel_time` gives, equal bit for bit."""

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

    @property
    def total_cycles(self) -> np.ndarray:
        return _total_cycles(self)

    def perf_at(self, i: int) -> GpuKernelPerf:
        gemm = self.gemm
        return _perf(
            gemm.at(i) if isinstance(gemm, GemmArrays) else gemm,
            self.tilings.param_at(i), self.bits,
            self.compute_cycles[i], self.dram_cycles[i], self.smem_cycles[i],
            self.launch_cycles, self.blocks[i], self.blocks_per_sm[i],
            self.occupancy[i], self.overlapped,
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
    """Price a tiling population in one shot: :func:`kernel_time`'s
    keywords and terms, but every tiling must already pass
    :func:`~repro.gpu.tiling.validate_tiling` on ``device`` (the
    autotuner's come from :func:`~repro.gpu.tiling.search_space`).  The
    batched profile-run tick is cheap enough to record unconditionally,
    which makes ``gpu_profile_runs{pricing_mode=vector}`` reliable."""
    terms = _breakdown(
        gemm, bits, tilings, device, tensor_core, double_buffer, reorder_smem,
        coalesced, in_place_epilogue, out_elem_bytes, base_efficiency, split_k)
    obs_metrics.counter(
        "gpu_profile_runs", bits=bits, pricing_mode="vector"
    ).inc(len(tilings))
    return BatchKernelPerf(gemm, bits, tilings, *terms)


def conv_gemm_shape(spec: ConvSpec) -> GemmShape:
    """The implicit GEMM problem of an NHWC convolution."""
    return GemmShape(
        m=spec.batch * spec.out_spatial, k=spec.gemm_k, n=spec.out_channels
    )


def conv_time(
    spec: ConvSpec,
    bits: int,
    tiling: TilingParams | None = None,
    **kwargs,
) -> GpuKernelPerf:
    """Kernel time for a convolution layer (thin wrapper over
    :func:`kernel_time` on the layer's implicit-GEMM shape)."""
    perf = kernel_time(conv_gemm_shape(spec), bits, tiling, **kwargs)
    # per-layer cycle entry from the GPU pipeline model (profile surface)
    obs_metrics.gauge(
        "gpu_conv_cycles", layer=spec.name, bits=bits
    ).set(perf.total_cycles)
    return perf
