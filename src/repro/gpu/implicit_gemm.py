"""Functional implicit-precomp GEMM convolution (Alg. 2).

Computes the paper's kernel as whole-array index arithmetic over the
structure it walks:

* grid level — C (the ``batch*OH*OW x Cout`` NHWC output matrix) is cut
  into ``MTile x NTile`` block tiles, so every operand is zero-padded to
  whole tiles: A to ``(m_pad, k_pad)``, B to ``(k_pad, n_pad)``;
* ``k_outer`` staging — A is *gathered* from the input through the
  precomputed offset buffer with predicated loads (never an explicit
  im2col matrix), one gather per image; B is the weight matrix, padded
  once (the shared-memory staging of lines 3-4).  int4 operands
  round-trip through the packed two-per-byte storage format once each;
* ``k_outer`` / warp level — for each ``KTile`` slice of K, one GEMM
  gives every block's partial at once: the int32 value that block's
  ``mma.m8n8k16`` / ``mma.m8n8k32`` sequence over the k tile produces
  (lines 6-14).  The partials add up in int64;
* epilogue — bias + re-quantization (or fused dequantization / ReLU) apply
  *in place* on the accumulators before the single store (line 15).

The k-tile GEMMs run in float64 on BLAS, exact by a bound (DESIGN.md
§5.18): a partial sums ``KTile`` products of at most ``2^(2*bits-2)``
each, and the shared-memory budget that :func:`validate_tiling` enforces
keeps ``KTile`` small enough that this is at most 2^25.  So every partial
is an integer far below 2^53, exact in any BLAS order, and fits the
int32 an ``mma`` returns.  Bit-exact against the NCHW reference (tests
transpose layouts) and against the per-fragment loop nest this replaced,
which is the oracle in ``tests/gpu_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..conv.im2col import weight_matrix
from ..errors import ShapeError, UnsupportedBitsError
from ..quant.ranges import qrange
from ..quant.schemes import requantize, requantize_per_channel
from ..types import ConvSpec, GemmShape, Layout
from ..util import ceil_div
from .mma import mma_m8n8k16_int8, mma_m8n8k32_int4, pack_int4, unpack_int4
from .precompute import build_offsets
from .tiling import TilingParams, default_tiling, validate_tiling

EPILOGUES = ("none", "requant", "requant_relu", "dequant", "dequant_relu")


@dataclass(frozen=True)
class ConvGpuOutput:
    """Result tensor plus the metadata the runtime needs downstream."""

    data: np.ndarray  #: NHWC; int32 ("none"), int8 (requant*) or f64 (dequant*)
    epilogue: str
    bits: int
    blocks: int
    tiling: TilingParams


def _mma_for(bits: int):
    """The Tensor Core instruction of a bit width (Sec. 2.3)."""
    if bits == 8:
        return mma_m8n8k16_int8
    if bits == 4:
        return mma_m8n8k32_int4
    raise UnsupportedBitsError(bits, "GPU path covers 4-bit and 8-bit")


def _epilogue(
    acc: np.ndarray,
    mode: str,
    bits: int,
    bias: np.ndarray | None,
    requant_mult: float,
    dequant_scale: float,
) -> np.ndarray:
    """In-place bias + re-quantization on the int32 fragment (Sec. 4.3)."""
    if bias is not None:
        acc = acc + bias[None, :]
    if mode == "none":
        return acc.astype(np.int32)
    if mode.startswith("requant"):
        out_range = qrange(bits)
        mult = np.asarray(requant_mult)
        if mult.ndim == 1:  # per-output-channel weight scales
            q = requantize_per_channel(acc, mult, out_range, axis=-1)
        else:
            q = requantize(acc, float(mult), out_range)
        if mode.endswith("relu"):
            # 'changing the truncated range of re-quantization' (Sec. 4.4)
            q = np.clip(q, 0, out_range.qmax)
        return q.astype(np.int8)
    if mode.startswith("dequant"):
        f = acc.astype(np.float64) * dequant_scale
        if mode.endswith("relu"):
            f = np.maximum(f, 0.0)
        return f
    raise ShapeError(f"unknown epilogue {mode!r}")


def conv2d_implicit_gemm(
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
    """Run the Alg. 2 kernel functionally (NHWC activations, OIHW weights).

    Both operands must be integer arrays inside the signed ``bits``-bit
    range.  ``pack_nibbles`` (int4 only; default on) round-trips both
    staged operands through the packed two-per-byte storage format.
    """
    _mma_for(bits)  # the width picks the instruction: check it before the data
    if epilogue not in EPILOGUES:
        raise ShapeError(f"unknown epilogue {epilogue!r}; one of {EPILOGUES}")
    x = np.asarray(x)
    w = np.asarray(w)
    if x.shape != spec.input_shape(Layout.NHWC):
        raise ShapeError(
            f"{spec.name}: input {x.shape} != NHWC {spec.input_shape(Layout.NHWC)}"
        )
    half = 1 << (bits - 1)
    for name, arr in (("input", x), ("weights", w)):
        if not np.issubdtype(arr.dtype, np.integer):
            raise ShapeError(f"{spec.name}: {name} must be integer, got {arr.dtype}")
        if arr.size and (arr.min() < -half or arr.max() >= half):
            raise ShapeError(
                f"{spec.name}: {name} outside the {bits}-bit range [{-half}, {half - 1}]"
            )
    tiling = tiling or default_tiling(bits)
    validate_tiling(tiling, bits)
    if pack_nibbles is None:
        pack_nibbles = bits == 4

    if bias is not None:
        bias = np.asarray(bias, dtype=np.int32)
        if bias.shape != (spec.out_channels,):
            raise ShapeError(f"bias shape {bias.shape} != ({spec.out_channels},)")

    gemm = GemmShape(m=spec.batch * spec.out_spatial, k=spec.gemm_k,
                     n=spec.out_channels)
    m_pad = ceil_div(gemm.m, tiling.m_tile) * tiling.m_tile
    n_pad = ceil_div(gemm.n, tiling.n_tile) * tiling.n_tile
    k_pad = ceil_div(gemm.k, tiling.k_tile) * tiling.k_tile

    # A: one predicated gather per image through the offset buffer
    offsets = build_offsets(spec)
    pixels, taps = np.arange(spec.out_spatial), np.arange(gemm.k)
    a = np.zeros((m_pad, k_pad), dtype=np.int8)
    for img in range(spec.batch):
        rows = slice(img * spec.out_spatial, (img + 1) * spec.out_spatial)
        a[rows, : gemm.k] = offsets.gather(x[img], pixels, taps)
    # B: (K, Cout) with NHWC K ordering (dy, dx, c)
    b = np.zeros((k_pad, n_pad), dtype=np.int8)
    b[: gemm.k, : gemm.n] = weight_matrix(spec, w, layout=Layout.NHWC).T
    if pack_nibbles:
        a = unpack_int4(pack_int4(a))
        b = unpack_int4(pack_int4(b))

    a = a.astype(np.float64)
    b = b.astype(np.float64)
    acc = np.zeros((m_pad, n_pad), dtype=np.int64)
    # k_outer: every block's k-tile partial at once, exact by the bound above
    for k0 in range(0, k_pad, tiling.k_tile):
        k1 = k0 + tiling.k_tile
        acc += (a[:, k0:k1] @ b[k0:k1]).astype(np.int32)

    out = _epilogue(acc[: gemm.m, : gemm.n], epilogue, bits, bias,
                    requant_mult, dequant_scale)
    shaped = out.reshape(spec.batch, spec.out_height, spec.out_width,
                         spec.out_channels)
    blocks = (m_pad // tiling.m_tile) * (n_pad // tiling.n_tile)
    return ConvGpuOutput(
        data=shaped, epilogue=epilogue, bits=bits, blocks=blocks, tiling=tiling
    )
