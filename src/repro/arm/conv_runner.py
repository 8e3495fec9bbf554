"""Full convolution layers on the simulated ARM CPU.

Two entry points:

* :func:`execute_arm_conv` — *functional*: run the actual generated
  instruction stream over every register tile of the layer in one
  compiled pass (:mod:`repro.arm.compiled`) and fold the tiles into the
  output tensor.  Bit-exact against :func:`repro.conv.ref.conv2d_ref`,
  with the Sec. 3.3 overflow check on, at the full size of the paper's
  ResNet-50 layers (``benchmarks/test_sec33_real_layers.py``).
* :func:`time_arm_conv` / :func:`ncnn_conv_cycles` /
  :func:`tvm_popcount_cycles` — *performance*: compose statically
  scheduled kernel cycles with the layer-level cost model into a
  cycle/mS estimate with a full breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..conv.im2col import im2col, output_from_gemm, weight_matrix
from ..conv.padding import pack_gemm_operands
from ..errors import ShapeError, UnsupportedBitsError
from ..obs import metrics as obs_metrics
from ..types import ConvSpec, GemmShape, Layout
from ..util import ceil_div, round_up
from .cost_model import (
    PI3B,
    ArmMachine,
    _generate,
    is_pointwise_unit_stride,
    kernel_geometry,
    scheme_for_bits,
    tile_cycles,
    tile_cycles_batch,
)


# ---------------------------------------------------------------------------
# Performance path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArmConvPerf:
    """Cycle breakdown for one convolution layer on the ARM path."""

    spec_name: str
    scheme: str
    bits: int
    kernel_cycles: float
    im2col_cycles: float
    pack_cycles: float
    requant_cycles: float
    mem_cycles: float
    overhead_cycles: float
    quant_cycles: float = 0.0  #: fp32->int8 quantize + int32->fp32 dequantize

    @property
    def total_cycles(self) -> float:
        return (
            self.kernel_cycles
            + self.im2col_cycles
            + self.pack_cycles
            + self.requant_cycles
            + self.mem_cycles
            + self.overhead_cycles
            + self.quant_cycles
        )

    def milliseconds(self, machine: ArmMachine = PI3B) -> float:
        return machine.ms(self.total_cycles)


#: load bandwidth the kernel LD costs already assume (L1 hits): one
#: LD1_16B per 2 cycles
_L1_BYTES_PER_CYCLE = 8.0


def _stream_level_bw(footprint: float, machine: ArmMachine) -> float:
    """Bandwidth serving a streamed operand, by its reuse footprint."""
    if footprint <= machine.l1_bytes * 0.75:  # leave L1 room for the other operand
        return _L1_BYTES_PER_CYCLE
    if footprint <= machine.l2_bytes:
        return machine.l2_bytes_per_cycle
    return machine.dram_bytes_per_cycle


def _gemm_mem_cycles(
    gemm: GemmShape,
    m_r: int,
    n_r: int,
    machine: ArmMachine,
    *,
    extra_dram_bytes: float = 0.0,
    operand_bytes_per_elem: float = 1.0,
) -> float:
    """Cache/DRAM cycles the kernel's L1-hit load costs do not cover.

    Both packed operands are *streamed* through the register tile: each of
    the ``ceil(M/m_r) * ceil(N/n_r)`` tiles reads ``K*m_r`` A bytes and
    ``K*n_r`` B bytes.  An operand whose reuse footprint exceeds a cache
    level is re-fetched from the level below at that level's bandwidth; the
    penalty is the bandwidth *shortfall* versus the L1 rate the pipeline
    model already charges.  This is what makes the 64x1 MLA tile pay for
    re-streaming its 64-row A panel per output column (K*64 bytes rarely
    fit L1), and the small-m_r ncnn tile pay for B panel re-reads.
    """
    m_tiles = ceil_div(gemm.m, m_r)
    n_tiles = ceil_div(gemm.n, n_r)
    tiles = m_tiles * n_tiles

    # A: footprint = one packed A panel (reused across the n sweep)
    a_panel = gemm.k * m_r * operand_bytes_per_elem
    a_streamed = tiles * a_panel
    a_bw = _stream_level_bw(a_panel, machine)

    # B: footprint = the whole packed B (reused across the m sweep)
    b_panel_total = gemm.k * round_up(gemm.n, n_r) * operand_bytes_per_elem
    b_streamed = m_tiles * b_panel_total
    b_bw = _stream_level_bw(b_panel_total, machine)

    def shortfall(bytes_: float, bw: float) -> float:
        return bytes_ * max(0.0, 1.0 / bw - 1.0 / _L1_BYTES_PER_CYCLE)

    unique = (
        gemm.m * gemm.k * operand_bytes_per_elem  # packed A (weights), cold
        + b_panel_total  # packed B, cold
        + gemm.m * gemm.n * 4  # int32 C write-back
        + extra_dram_bytes
    )
    return (
        shortfall(a_streamed, a_bw)
        + shortfall(b_streamed, b_bw)
        + unique / machine.dram_bytes_per_cycle
    )


def _quant_pass_cycles(spec: ConvSpec, machine: ArmMachine) -> float:
    """The quantize/dequantize element passes around every conv layer."""
    return (
        spec.input_elems * machine.quantize_cycles_per_elem
        + spec.output_elems * machine.dequantize_cycles_per_elem
    )


def gemm_kernel_cycles(
    gemm: GemmShape,
    scheme: str,
    bits: int,
    *,
    interleave: bool = True,
) -> float:
    """Register-tile kernel cycles for a full (padded) GEMM."""
    m_r, n_r = kernel_geometry(scheme)
    tiles = ceil_div(gemm.m, m_r) * ceil_div(gemm.n, n_r)
    return tiles * tile_cycles(scheme, bits, gemm.k, interleave=interleave)


def gemm_kernel_cycles_batch(
    gemms: "list[GemmShape]",
    scheme: str,
    bits: int,
    *,
    interleave: bool = True,
) -> np.ndarray:
    """:func:`gemm_kernel_cycles` over a batch of GEMMs in one shot.

    Element ``i`` is bit-identical to the scalar call on ``gemms[i]``;
    the reduction lengths go through
    :func:`~repro.arm.cost_model.tile_cycles_batch`, so a network's worth
    of layers schedules each distinct micro-kernel stream once.
    """
    m_r, n_r = kernel_geometry(scheme)
    ms = np.array([g.m for g in gemms], dtype=np.int64)
    ns = np.array([g.n for g in gemms], dtype=np.int64)
    ks = np.array([g.k for g in gemms], dtype=np.int64)
    tiles = -((-ms) // m_r) * -((-ns) // n_r)
    return tiles * tile_cycles_batch(scheme, bits, ks, interleave=interleave)


def time_arm_conv(
    spec: ConvSpec,
    bits: int,
    *,
    scheme: str | None = None,
    machine: ArmMachine = PI3B,
    interleave: bool = True,
) -> ArmConvPerf:
    """Cycle estimate for our GEMM-based low-bit convolution (Sec. 3).

    ``scheme=None`` applies the paper's selection: MLA for 2~3-bit, SMLAL
    for 4~8-bit.
    """
    scheme = scheme or scheme_for_bits(bits)
    if scheme not in ("smlal", "mla", "ncnn", "sdot"):
        raise UnsupportedBitsError(bits, f"unsupported GEMM scheme {scheme!r}")
    m_r, n_r = kernel_geometry(scheme)
    groups = spec.groups
    # grouped convolution runs one independent GEMM per group; for
    # depthwise (one output channel per group) the register tile is nearly
    # all padding, which this accounting makes visible (models.mobilenetv1)
    gemm = GemmShape(
        m=spec.out_channels // groups, k=spec.gemm_k, n=spec.gemm_n
    )

    kernel = (spec.batch * groups
              * gemm_kernel_cycles(gemm, scheme, bits, interleave=interleave))

    im2col_bytes = (
        0 if is_pointwise_unit_stride(spec) else groups * gemm.k * gemm.n
    )
    im2col_c = spec.batch * im2col_bytes * machine.im2col_cycles_per_byte

    pack_rate = (
        machine.transpose_pack_cycles_per_byte
        if n_r == 1
        else machine.pack_cycles_per_byte
    )
    pack_bytes = groups * gemm.k * round_up(gemm.n, n_r)
    pack_c = spec.batch * pack_bytes * pack_rate

    requant_c = (spec.batch * spec.out_channels * spec.gemm_n
                 * machine.requant_cycles_per_elem)

    mem_c = spec.batch * groups * _gemm_mem_cycles(
        gemm,
        m_r,
        n_r,
        machine,
        extra_dram_bytes=(spec.input_elems / spec.batch  # raw activation read
                          + (im2col_bytes if im2col_bytes else 0)) / groups,
    )

    perf = ArmConvPerf(
        spec_name=spec.name,
        scheme=scheme,
        bits=bits,
        kernel_cycles=kernel,
        im2col_cycles=im2col_c,
        pack_cycles=pack_c,
        requant_cycles=requant_c,
        mem_cycles=mem_c,
        overhead_cycles=machine.layer_overhead_cycles,
        quant_cycles=_quant_pass_cycles(spec, machine),
    )
    # per-layer cycle entry from the ARM cost model (profile surface)
    obs_metrics.gauge(
        "arm_layer_cycles", layer=spec.name, bits=bits, scheme=scheme
    ).set(perf.total_cycles)
    return perf


def ncnn_conv_cycles(
    spec: ConvSpec,
    *,
    machine: ArmMachine = PI3B,
    allow_winograd: bool = False,
) -> ArmConvPerf:
    """The ncnn 8-bit baseline.

    Default is its explicit-GEMM int8 path — the comparison the paper's
    Fig. 7/8 baseline behaves like (our GEMM kernels beat it on most
    layers, which rules out a winograd baseline on 3x3 layers).  Pass
    ``allow_winograd=True`` to model an ncnn that dispatches 3x3/s1 layers
    to its int8 winograd when faster (available as an ablation)."""
    gemm_perf = time_arm_conv(spec, 8, scheme="ncnn", machine=machine)
    if allow_winograd and spec.is_winograd_eligible():
        from .winograd_runner import time_winograd_conv

        wino = time_winograd_conv(spec, 8, scheme="ncnn", machine=machine)
        if wino.total_cycles < gemm_perf.total_cycles:
            return wino
    return gemm_perf


def tvm_popcount_cycles(
    spec: ConvSpec,
    *,
    machine: ArmMachine = PI3B,
    bits: int = 2,
) -> ArmConvPerf:
    """The TVM bit-serial (popcount) A2W2 baseline of Fig. 9.

    Bit-packs both operands (planes cost ``bitpack_cycles_per_byte`` per
    *packed* byte), then runs the 2x2 popcount tile kernel; the plane-fold
    epilogue is charged analytically per tile (see popcount_scheme docs).
    """
    if bits != 2:
        raise UnsupportedBitsError(bits, "popcount baseline models A2W2")
    gemm = GemmShape.from_conv(spec)
    m_r, n_r = kernel_geometry("popcount")
    tiles = ceil_div(gemm.m, m_r) * ceil_div(gemm.n, n_r)
    kernel = spec.batch * tiles * tile_cycles("popcount", bits, gemm.k)
    fold_epilogue = spec.batch * tiles * 40.0  # 16 acc regs folded per tile

    packed_bytes = bits * (gemm.m * gemm.k + gemm.k * gemm.n) / 8
    pack_c = spec.batch * packed_bytes * machine.bitpack_cycles_per_byte

    im2col_bytes = 0 if is_pointwise_unit_stride(spec) else gemm.k * gemm.n
    im2col_c = spec.batch * im2col_bytes * machine.im2col_cycles_per_byte

    requant_c = spec.batch * gemm.m * gemm.n * machine.requant_cycles_per_elem
    mem_c = spec.batch * _gemm_mem_cycles(
        gemm,
        m_r,
        n_r,
        machine,
        extra_dram_bytes=spec.input_elems / spec.batch,
        operand_bytes_per_elem=bits / 8,  # bit-packed operand streams
    )
    return ArmConvPerf(
        spec_name=spec.name,
        scheme="popcount",
        bits=bits,
        kernel_cycles=kernel + fold_epilogue,
        im2col_cycles=im2col_c,
        pack_cycles=pack_c,
        requant_cycles=requant_c,
        mem_cycles=mem_c,
        overhead_cycles=machine.layer_overhead_cycles,
        quant_cycles=_quant_pass_cycles(spec, machine),
    )


# ---------------------------------------------------------------------------
# Functional path (bit-exact against conv2d_ref)
# ---------------------------------------------------------------------------


def execute_arm_conv(
    spec: ConvSpec,
    x: np.ndarray,
    w: np.ndarray,
    bits: int,
    *,
    scheme: str | None = None,
    check_overflow: bool = True,
    interleave: bool = True,
) -> np.ndarray:
    """Run the layer through real generated instruction streams.

    im2col -> pad/pack (Fig. 2) -> one compiled micro-kernel run over
    every register tile of every image -> tile assembly.  ``bits`` must
    be 2~8 whatever the scheme, and both operands integer arrays inside
    the signed ``bits``-bit range (the kernels read them as int8).
    Returns int64 NCHW output.
    """
    default = scheme_for_bits(bits)  # the width first, whatever the scheme
    scheme = scheme or default
    if scheme not in ("smlal", "mla", "ncnn"):
        raise UnsupportedBitsError(bits, f"unsupported scheme {scheme!r}")
    half = 1 << (bits - 1)
    x, w = np.asarray(x), np.asarray(w)
    for name, arr in (("input", x), ("weights", w)):
        if not np.issubdtype(arr.dtype, np.integer):
            raise ShapeError(f"{spec.name}: {name} must be integer, got {arr.dtype}")
        if arr.size and (arr.min() < -half or arr.max() >= half):
            raise ShapeError(
                f"{spec.name}: {name} outside the {bits}-bit range [{-half}, {half - 1}]")
    m_r, n_r = kernel_geometry(scheme)
    gemm = GemmShape.from_conv(spec)
    kern = _generate(scheme, bits, gemm.k, interleave, None)

    a = weight_matrix(spec, w.astype(np.int8, copy=False))
    x = x.astype(np.int8, copy=False)
    cols = im2col(spec, x)
    b_panels = []
    for img in range(spec.batch):
        packed = pack_gemm_operands(a, cols[img], m_r, n_r)
        b_panels.append(packed.b_packed.reshape(1, packed.n_panels, -1))
    if scheme == "ncnn":  # slack for the 8-byte B load of the last step
        b_panels = [np.pad(b, ((0, 0), (0, 0), (0, 4))) for b in b_panels]
    # every tile of every image in one call: (batch, m_panels, n_panels)
    tiles = kern.execute(packed.a_packed.reshape(packed.m_panels, 1, -1),
                         np.stack(b_panels), check_overflow=check_overflow)
    c = np.asarray(tiles, dtype=np.int64).transpose(0, 1, 3, 2, 4).reshape(
        spec.batch, packed.m_padded, packed.n_padded)
    return output_from_gemm(spec, c[:, : gemm.m, : gemm.n], layout=Layout.NCHW)
