"""Golden reference: direct convolution by definition (Sec. 2.2).

Deliberately simple and trusted; every other algorithm is validated against
it.  Both convs here share one per-tap GEMM core: for each tap (i, j), the
strided window of the padded input, as ``(n, groups, cin_g, oh*ow)``, is
multiplied by that tap's weights with ``np.matmul`` and accumulated.

:func:`conv2d_ref` runs the core in float64, on BLAS, when
``K * max|x| * max|w| < 2**53``: every partial sum is then an integer of
magnitude below 2^53, which float64 holds exactly in whatever order BLAS
adds.  Otherwise it runs the core in int64, which wraps modulo 2^64 as
numpy integers do.  The int64 per-tap ``einsum`` this replaced is the
oracle, in ``tests/conv_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..types import ConvSpec, Layout

#: weights are cast to the accumulation dtype one block of about this many
#: elements at a time, so a float64 copy of a layer's weights never exists
_WEIGHT_BLOCK = 1 << 18


def _conv_taps(spec: ConvSpec, x: np.ndarray, w: np.ndarray, dtype: type) -> np.ndarray:
    """NCHW ``x`` convolved with OIHW ``w``, summed in ``dtype``; returns
    ``(n, cout, oh, ow)``."""
    n, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    sh, sw = spec.stride
    ph, pw = spec.padding
    oh, ow = spec.out_height, spec.out_width
    groups = spec.groups
    cout_g = cout // groups
    xp = np.zeros((n, cin, h + 2 * ph, wd + 2 * pw), dtype=dtype)
    xp[:, :, ph : ph + h, pw : pw + wd] = x
    out = np.zeros((n, groups, cout_g, oh * ow), dtype=dtype)
    rows = max(1, _WEIGHT_BLOCK // cin)  # rows of every group per block
    for i in range(kh):
        for j in range(kw):
            win = xp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
            win = win.reshape(n, groups, cin_g, oh * ow)
            tap = w[:, :, i, j].reshape(groups, cout_g, cin_g)
            for r in range(0, cout_g, rows):
                out[:, :, r : r + rows] += tap[:, r : r + rows].astype(dtype) @ win
    return out.reshape(n, cout, oh, ow)


def _max_abs(a: np.ndarray) -> int:
    return max(-int(a.min()), int(a.max()))


def conv2d_float(
    spec: ConvSpec,
    x: np.ndarray,
    w: np.ndarray,
) -> np.ndarray:
    """Float NCHW convolution — the full-precision reference the accuracy
    analysis and calibration compare the quantized pipeline against."""
    x = np.asarray(x)
    w = np.asarray(w)
    if x.shape != spec.input_shape(Layout.NCHW):
        raise ShapeError(f"{spec.name}: input {x.shape}")
    if w.shape != spec.weight_shape(Layout.NCHW):
        raise ShapeError(f"{spec.name}: weight {w.shape}")
    return _conv_taps(spec, x, w, np.float64)


def conv2d_ref(
    spec: ConvSpec,
    x: np.ndarray,
    w: np.ndarray,
    *,
    layout: Layout = Layout.NCHW,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Direct convolution with exact int32/int64 accumulation.

    Parameters
    ----------
    spec:
        Layer geometry; ``x`` and ``w`` must match it.
    x:
        Integer input activations, ``spec.input_shape(layout)``.
    w:
        Integer weights, ``spec.weight_shape(Layout.NCHW)`` — weights are
        always OIHW here; backends reorder internally.
    layout:
        Activation layout (NCHW on ARM, NHWC on GPU, per the paper).
    bias:
        Optional int32 per-output-channel bias of length ``out_channels``.

    Returns
    -------
    int64 array of ``spec.output_shape(layout)``.
    """
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

    # below 2^53 every partial sum is an exact float64 integer (module doc)
    exact = spec.gemm_k * _max_abs(x) * _max_abs(w) < 2**53
    out = _conv_taps(spec, x, w, np.float64 if exact else np.int64)
    out = out.astype(np.int64, copy=False)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.int64)
        if bias.shape != (spec.out_channels,):
            raise ShapeError(f"bias shape {bias.shape} != ({spec.out_channels},)")
        out += bias[None, :, None, None]

    if layout is Layout.NHWC:
        out = np.transpose(out, (0, 2, 3, 1))
    return out
