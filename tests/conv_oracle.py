"""The int64 per-tap einsum convolution, kept as the oracle.

:func:`conv2d_reference` is the direct convolution that
:func:`repro.conv.ref.conv2d_ref` computed before it learnt to run on BLAS.
It sums every tap in an int64 ``einsum`` (wrapping modulo 2^64, as numpy
integers do), so it is slow on full-size layers, and it is the definition
the production reference must match bit for bit
(``tests/test_conv_ref_exact.py``, ``benchmarks/test_conv_ref_real_layers.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.types import ConvSpec, Layout


def conv2d_reference(
    spec: ConvSpec,
    x: np.ndarray,
    w: np.ndarray,
    *,
    layout: Layout = Layout.NCHW,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    x = np.asarray(x)
    w = np.asarray(w)
    if not np.issubdtype(x.dtype, np.integer) or not np.issubdtype(w.dtype, np.integer):
        raise ShapeError("conv2d_ref operates on integer (quantized) tensors")
    if x.shape != spec.input_shape(layout):
        raise ShapeError(
            f"{spec.name}: input shape {x.shape} != expected {spec.input_shape(layout)}"
        )
    if w.shape != spec.weight_shape(Layout.NCHW):
        raise ShapeError(
            f"{spec.name}: weight shape {w.shape} != expected "
            f"{spec.weight_shape(Layout.NCHW)}"
        )

    if layout is Layout.NHWC:
        x = np.transpose(x, (0, 3, 1, 2))  # to NCHW internally

    n, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    sh, sw = spec.stride
    ph, pw = spec.padding
    oh, ow = spec.out_height, spec.out_width
    groups = spec.groups

    xp = np.zeros((n, cin, h + 2 * ph, wd + 2 * pw), dtype=np.int64)
    xp[:, :, ph : ph + h, pw : pw + wd] = x

    out = np.zeros((n, cout, oh, ow), dtype=np.int64)
    w64 = w.astype(np.int64)
    cout_g = cout // groups
    for g in range(groups):
        xg = xp[:, g * cin_g : (g + 1) * cin_g]
        wg = w64[g * cout_g : (g + 1) * cout_g]
        for i in range(kh):
            for j in range(kw):
                # window of shape (n, cin_g, oh, ow) for tap (i, j)
                win = xg[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
                # (n, oh, ow, cin_g) . (cout_g, cin_g) accumulation
                out[:, g * cout_g : (g + 1) * cout_g] += np.einsum(
                    "nchw,oc->nohw", win, wg[:, :, i, j], optimize=True
                )
    if bias is not None:
        bias = np.asarray(bias, dtype=np.int64)
        if bias.shape != (cout,):
            raise ShapeError(f"bias shape {bias.shape} != ({cout},)")
        out += bias[None, :, None, None]

    if layout is Layout.NHWC:
        out = np.transpose(out, (0, 2, 3, 1))
    return out
