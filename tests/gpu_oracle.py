"""The per-fragment Alg. 2 loop nest, kept as the oracle.

:func:`conv2d_implicit_gemm_reference` is the body that
:func:`repro.gpu.implicit_gemm.conv2d_implicit_gemm` had before it became
one exact float64 GEMM per k tile.  It walks the kernel one Python
iteration per ``mma`` fragment: grid blocks, ``k_outer`` tiles (A gathered
through the offset buffer, B sliced, both staged as int8 tiles), warps,
k steps and fragments, each a real ``mma.m8n8k16`` / ``mma.m8n8k32`` call
whose int32 result adds into an int64 block accumulator.  It is slow on
full-size layers, and it is the definition the production path must match
bit for bit, output dtype included (``tests/test_gpu_implicit_gemm.py``).
"""

from __future__ import annotations

import numpy as np

from repro.conv.im2col import weight_matrix
from repro.errors import ShapeError
from repro.gpu.implicit_gemm import EPILOGUES, ConvGpuOutput, _epilogue, _mma_for
from repro.gpu.mma import mma_shape, pack_int4, unpack_int4
from repro.gpu.precompute import build_offsets
from repro.gpu.tiling import TilingParams, default_tiling, validate_tiling
from repro.types import ConvSpec, GemmShape, Layout
from repro.util import ceil_div


def conv2d_implicit_gemm_reference(
    spec: ConvSpec,
    x: np.ndarray,
    w: np.ndarray,
    *,
    bits: int = 8,
    tiling: TilingParams | None = None,
    epilogue: str = "none",
    bias: np.ndarray | None = None,
    requant_mult: float | np.ndarray = 0.03125,
    dequant_scale: float = 1.0,
    pack_nibbles: bool | None = None,
) -> ConvGpuOutput:
    if epilogue not in EPILOGUES:
        raise ShapeError(f"unknown epilogue {epilogue!r}; one of {EPILOGUES}")
    x = np.asarray(x)
    if x.shape != spec.input_shape(Layout.NHWC):
        raise ShapeError(
            f"{spec.name}: input {x.shape} != NHWC {spec.input_shape(Layout.NHWC)}"
        )
    half = 1 << (bits - 1)
    if x.size and (x.min() < -half or x.max() >= half):
        raise ShapeError(f"input exceeds {bits}-bit range")
    mma = _mma_for(bits)
    mm, nn, kk = mma_shape(bits)
    tiling = tiling or default_tiling(bits)
    validate_tiling(tiling, bits)
    if pack_nibbles is None:
        pack_nibbles = bits == 4

    if bias is not None:
        bias = np.asarray(bias, dtype=np.int32)
        if bias.shape != (spec.out_channels,):
            raise ShapeError(f"bias shape {bias.shape} != ({spec.out_channels},)")

    offsets = build_offsets(spec)
    # B matrix: (K, Cout) with NHWC K ordering (dy, dx, c)
    b_full = weight_matrix(spec, w, layout=Layout.NHWC).T.copy()

    gemm = GemmShape(m=spec.batch * spec.out_spatial, k=spec.gemm_k,
                     n=spec.out_channels)
    m_pad = ceil_div(gemm.m, tiling.m_tile) * tiling.m_tile
    n_pad = ceil_div(gemm.n, tiling.n_tile) * tiling.n_tile
    k_pad = ceil_div(gemm.k, tiling.k_tile) * tiling.k_tile
    c_full = np.zeros((m_pad, n_pad), dtype=np.int64)

    pixels_per_img = spec.out_spatial
    k_tile_num = k_pad // tiling.k_tile
    blocks = 0
    for m0 in range(0, m_pad, tiling.m_tile):
        for n0 in range(0, n_pad, tiling.n_tile):
            blocks += 1
            acc_tile = np.zeros((tiling.m_tile, tiling.n_tile), dtype=np.int64)
            for ko in range(k_tile_num):
                k0 = ko * tiling.k_tile
                a_tile = _gather_a_tile(
                    spec, x, offsets, m0, k0, tiling, gemm, pixels_per_img
                )
                b_tile = _slice_b_tile(b_full, k0, n0, tiling, gemm)
                if pack_nibbles:
                    a_tile = unpack_int4(pack_int4(a_tile))
                    b_tile = unpack_int4(pack_int4(b_tile))
                # warp-level fragments, mma at a time (Alg. 2 lines 6-14)
                for wr in range(tiling.block_row_warps):
                    fr = wr * tiling.m_frag
                    for wc in range(tiling.block_col_warps):
                        fc = wc * tiling.n_frag
                        for ks in range(0, tiling.k_tile, tiling.k_step):
                            for ki in range(0, tiling.k_step, kk):
                                k_lo = ks + ki
                                for fm in range(0, tiling.m_frag, mm):
                                    for fn in range(0, tiling.n_frag, nn):
                                        a_frag = a_tile[
                                            fr + fm : fr + fm + mm,
                                            k_lo : k_lo + kk,
                                        ]
                                        b_frag = b_tile[
                                            k_lo : k_lo + kk,
                                            fc + fn : fc + fn + nn,
                                        ]
                                        acc_tile[
                                            fr + fm : fr + fm + mm,
                                            fc + fn : fc + fn + nn,
                                        ] += mma(a_frag, b_frag)
            c_full[m0 : m0 + tiling.m_tile, n0 : n0 + tiling.n_tile] = acc_tile

    c = c_full[: gemm.m, : gemm.n]
    out = _epilogue(c, epilogue, bits, bias, requant_mult, dequant_scale)
    shaped = out.reshape(spec.batch, spec.out_height, spec.out_width,
                         spec.out_channels)
    return ConvGpuOutput(
        data=shaped, epilogue=epilogue, bits=bits, blocks=blocks, tiling=tiling
    )


def _gather_a_tile(spec, x, offsets, m0, k0, tiling, gemm, pixels_per_img):
    """Stage one A_Tile: predicated gathers through the offset buffer."""
    rows = np.arange(m0, m0 + tiling.m_tile)
    cols = np.arange(k0, k0 + tiling.k_tile)
    tile = np.zeros((tiling.m_tile, tiling.k_tile), dtype=np.int8)
    valid_rows = rows < gemm.m
    valid_cols = cols < gemm.k
    if not valid_rows.any() or not valid_cols.any():
        return tile
    vr = rows[valid_rows]
    vc = cols[valid_cols]
    imgs = vr // pixels_per_img
    pix = vr % pixels_per_img
    for img in np.unique(imgs):
        sel = imgs == img
        gathered = offsets.gather(x[img], pix[sel], vc)
        # scatter into the padded tile
        r_idx = np.nonzero(valid_rows)[0][sel]
        tile[np.ix_(r_idx, np.nonzero(valid_cols)[0])] = gathered
    return tile


def _slice_b_tile(b_full, k0, n0, tiling, gemm):
    tile = np.zeros((tiling.k_tile, tiling.n_tile), dtype=np.int8)
    k1 = min(k0 + tiling.k_tile, gemm.k)
    n1 = min(n0 + tiling.n_tile, gemm.n)
    if k1 > k0 and n1 > n0:
        tile[: k1 - k0, : n1 - n0] = b_full[k0:k1, n0:n1]
    return tile
