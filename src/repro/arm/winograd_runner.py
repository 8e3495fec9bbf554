"""Winograd F(2x2, 3x3) convolution on the simulated ARM CPU (Sec. 3.4).

The transform domain turns one 3x3/s1 convolution into 16 independent
GEMMs of shape ``(Cout) x (Cin) x (nTiles)`` — one per position of the 4x4
transformed tile — cutting multiplies by 2.25x, at the price of

* input/output transform passes,
* *shorter SMLAL chains*: the transformed operand ranges grow 4x (input)
  and 9/4x (weight), so the safe accumulation chain shrinks sharply with
  bit width (e.g. 56 / 14 / 3 steps for 4/5/6-bit), which is exactly why
  the paper limits winograd to 4~6-bit and why its advantage fades at
  6-bit (Fig. 8).

The ncnn baseline's own int8 winograd path is modeled with the same
structure, using the ncnn kernel (int16-widened operands, no chain limit,
2-byte transformed data).
"""

from __future__ import annotations

import numpy as np

from ..conv.winograd import (
    AT,
    winograd_transform_input,
    winograd_transform_weight,
    _extract_tiles,
)
from ..errors import ShapeError, UnsupportedBitsError
from ..quant.ranges import qrange
from ..types import ConvSpec, GemmShape, Layout
from ..util import ceil_div, round_up
from .conv_runner import ArmConvPerf, _gemm_mem_cycles, _quant_pass_cycles as _quant_pass
from .cost_model import PI3B, ArmMachine, kernel_geometry, tile_cycles
from .ratios import UNROLL_FACTORS

_INT16_MAX = (1 << 15) - 1

#: bit widths the paper applies winograd to (Sec. 3.4)
WINOGRAD_BITS = (4, 5, 6)


def winograd_chain_length(bits: int) -> int:
    """Safe SMLAL chain with *transformed* operand ranges (paper mode).

    Transformed input magnitude: ``4 * 2**(bits-1)``; transformed weight
    magnitude: ``ceil(9/4 * 2**(bits-1))`` (stored rounded in int8).
    """
    if bits not in WINOGRAD_BITS:
        raise UnsupportedBitsError(bits, "winograd kernels cover 4~6-bit")
    half = qrange(bits).max_abs  # 2**(bits-1)
    in_t = 4 * half
    w_t = -(-9 * half // 4)  # ceil(9/4 * half)
    n = _INT16_MAX // (in_t * w_t)
    if n < 1:
        raise UnsupportedBitsError(bits, "transformed range leaves no safe chain")
    return n


def exact_scaled_chain_length(bits: int) -> int:
    """Safe chain in the *exact* integer mode (weights scaled by 4).

    Scaled transformed weight magnitude is ``9 * 2**(bits-1)`` — int8 only
    for 4-bit, which is why the functional instruction-level winograd test
    runs at 4-bit (DESIGN.md deviation note).
    """
    half = qrange(bits).max_abs
    in_t = 4 * half
    w_t = 9 * half
    if w_t > 127 or in_t > 128:
        raise UnsupportedBitsError(bits, "scaled operands exceed int8 storage")
    return _INT16_MAX // (in_t * w_t)


def _tile_counts(spec: ConvSpec) -> int:
    return ceil_div(spec.out_height, 2) * ceil_div(spec.out_width, 2)


def time_winograd_conv(
    spec: ConvSpec,
    bits: int,
    *,
    scheme: str = "smlal",
    machine: ArmMachine = PI3B,
) -> ArmConvPerf:
    """Cycle estimate of the winograd path.

    ``scheme="smlal"`` is our 4~6-bit kernel with the shortened chain;
    ``scheme="ncnn"`` is the baseline's int8 winograd (widened int16 data,
    no drains).
    """
    if not spec.is_winograd_eligible():
        raise ShapeError(f"{spec.name} is not 3x3/s1; winograd inapplicable")
    n_tiles = _tile_counts(spec)
    gemm = GemmShape(m=spec.out_channels, k=spec.in_channels, n=n_tiles)
    m_r, n_r = kernel_geometry("smlal" if scheme == "smlal" else "ncnn")

    if scheme == "smlal":
        chain = winograd_chain_length(bits)
        round_steps = min(chain, UNROLL_FACTORS.get(bits, 32))
        per_tile = tile_cycles("smlal", bits, gemm.k, round_steps=round_steps)
        operand_bytes = 1.0
    elif scheme == "ncnn":
        per_tile = tile_cycles("ncnn", 8, gemm.k)
        operand_bytes = 2.0  # ncnn keeps transformed data in int16
    else:
        raise UnsupportedBitsError(bits, f"unknown winograd scheme {scheme!r}")

    tiles = ceil_div(gemm.m, m_r) * ceil_div(gemm.n, n_r)
    kernel = spec.batch * 16 * tiles * per_tile

    v_elems = 16 * spec.in_channels * n_tiles
    y_elems = 16 * spec.out_channels * n_tiles
    tf_c = spec.batch * (
        v_elems * machine.wino_input_tf_cycles_per_elem
        + y_elems * machine.wino_output_tf_cycles_per_elem
    )

    pack_bytes = 16 * gemm.k * round_up(gemm.n, n_r) * operand_bytes
    pack_c = spec.batch * pack_bytes * machine.pack_cycles_per_byte

    requant_c = spec.batch * spec.out_channels * spec.out_spatial * (
        machine.requant_cycles_per_elem
    )

    mem_c = spec.batch * 16 * _gemm_mem_cycles(
        gemm,
        m_r,
        n_r,
        machine,
        extra_dram_bytes=spec.input_elems / spec.batch / 16,
        operand_bytes_per_elem=operand_bytes,
    )

    return ArmConvPerf(
        spec_name=spec.name,
        scheme=f"winograd-{scheme}",
        bits=bits,
        kernel_cycles=kernel,
        im2col_cycles=tf_c,  # the transform pass plays im2col's role
        pack_cycles=pack_c,
        requant_cycles=requant_c,
        mem_cycles=mem_c,
        overhead_cycles=machine.layer_overhead_cycles,
        quant_cycles=_quant_pass(spec, machine),
    )


# ---------------------------------------------------------------------------
# Functional instruction-level execution (exact mode, 4-bit)
# ---------------------------------------------------------------------------


def execute_winograd_arm(
    spec: ConvSpec,
    x: np.ndarray,
    w: np.ndarray,
    bits: int = 4,
    *,
    check_overflow: bool = True,
) -> np.ndarray:
    """Run winograd through real SMLAL kernel streams (exact integer mode).

    Host code performs the linear transforms (they are the "transform
    engine"; the paper's contribution is the GEMM kernel); the 16
    transform-domain GEMMs run through the real stream in one compiled
    pass over all their register tiles.  Exact only while the scaled transformed weight
    fits int8, i.e. 4-bit operands (see DESIGN.md).
    """
    from ..conv.padding import pack_gemm_operands
    from .kernels import generate_smlal_kernel

    if bits != 4:
        raise UnsupportedBitsError(
            bits, "instruction-level exact winograd requires 4-bit operands"
        )
    if not spec.is_winograd_eligible():
        raise ShapeError(f"{spec.name} is not 3x3/s1; winograd inapplicable")
    x = np.asarray(x)
    if x.shape != spec.input_shape(Layout.NCHW):
        raise ShapeError(f"{spec.name}: bad input shape {x.shape}")

    u4 = winograd_transform_weight(w, scaled=True)  # (O, I, 4, 4), |.| <= 72
    tiles, th, tw = _extract_tiles(spec, x)
    v = winograd_transform_input(tiles)  # (n, I, th, tw, 4, 4), |.| <= 128?
    if np.abs(u4).max() > 127 or np.abs(v).max() > 127:
        raise UnsupportedBitsError(bits, "transformed operands exceed int8")

    chain = exact_scaled_chain_length(bits)
    kern = generate_smlal_kernel(
        bits, spec.in_channels, round_steps=min(chain, 32)
    )
    n_tiles = th * tw
    a_panels, b_panels = [], []
    for uu in range(4):
        for vv in range(4):
            a = u4[:, :, uu, vv].astype(np.int8)  # (O, I)
            for img in range(spec.batch):
                b = (
                    v[img, :, :, :, uu, vv]
                    .reshape(spec.in_channels, n_tiles)
                    .astype(np.int8)
                )
                packed = pack_gemm_operands(a, b, kern.m_r, kern.n_r)
                b_panels.append(packed.b_packed.reshape(1, packed.n_panels, -1))
            a_panels.append(packed.a_packed.reshape(packed.m_panels, 1, -1))
    # the 16 transform-domain GEMMs of every image in one call:
    # tiles (16, batch, m_panels, n_panels)
    a_stack = np.stack(a_panels)[:, None]
    b_stack = np.stack(b_panels).reshape((16, spec.batch) + b_panels[0].shape)
    out = kern.execute(a_stack, b_stack, check_overflow=check_overflow)
    c = np.asarray(out, dtype=np.int64).transpose(0, 1, 2, 4, 3, 5).reshape(
        16, spec.batch, packed.m_padded, packed.n_padded)
    m_out = c[:, :, : spec.out_channels, :n_tiles].reshape(
        4, 4, spec.batch, spec.out_channels, n_tiles).transpose(2, 3, 4, 0, 1)

    y4 = np.einsum("pu,notuv,qv->notpq", AT, m_out, AT, optimize=True)
    if np.any(y4 % 4):
        raise ShapeError("internal error: scaled winograd result not divisible by 4")
    y = y4 // 4
    out_full = y.reshape(spec.batch, spec.out_channels, th, tw, 2, 2)
    out_full = out_full.transpose(0, 1, 2, 4, 3, 5).reshape(
        spec.batch, spec.out_channels, th * 2, tw * 2
    )
    return np.ascontiguousarray(
        out_full[:, :, : spec.out_height, : spec.out_width]
    )
