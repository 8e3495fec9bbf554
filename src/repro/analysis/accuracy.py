"""Quantization-fidelity analysis: the Sec. 5.1 "no accuracy loss" claim.

The paper argues correctness on two levels: (1) low-bit linear
quantization costs little model accuracy (cited training work), and
(2) the kernels themselves introduce *zero* additional error over 32-bit
integer math ("our optimized low-bit convolution kernels guarantee the
same results as 32-bit computation").

Claim (2) is enforced bit-exactly throughout the test suite.  This module
quantifies claim (1) mechanically: push data through a quantized network
and measure the signal-to-quantization-noise ratio against the
full-precision float network, as a function of bit width.  SQNR must grow
~6 dB per extra bit (the classic uniform-quantizer law), which both
characterizes the quantizer and doubles as a sanity check that no kernel
adds hidden error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..conv.ref import conv2d_float
from ..errors import ReproError
from ..runtime.network import Network, execute_network


def float_reference_network(
    net: Network, x: np.ndarray, weights: dict[str, np.ndarray]
) -> np.ndarray:
    """The full-precision counterpart: float conv + ReLU per stage."""
    cur = np.asarray(x, dtype=np.float64)
    for stage in net.stages:
        spec = stage.spec
        cur = conv2d_float(spec, cur, weights[spec.name])
        has_relu = any(op.kind == "relu" for op in stage.graph) or any(
            op.attrs.get("epilogue") == "requant_relu"
            for op in stage.graph.convs()
        )
        if has_relu:
            cur = np.maximum(cur, 0.0)
    return cur


@dataclass(frozen=True)
class SqnrReport:
    """Output fidelity of the quantized network vs the float reference."""

    bits: int
    sqnr_db: float
    max_abs_err: float
    ref_rms: float


def output_sqnr(
    net: Network,
    x: np.ndarray,
    weights: dict[str, np.ndarray],
) -> SqnrReport:
    """Signal-to-quantization-noise ratio of one network's output."""
    bits = net.stages[0].graph.convs()[0].attrs["bits"]
    q_out = execute_network(net, x, weights)
    f_out = float_reference_network(net, x, weights)
    err = q_out - f_out
    ref_rms = float(np.sqrt(np.mean(f_out**2)))
    err_rms = float(np.sqrt(np.mean(err**2)))
    if ref_rms == 0:
        raise ReproError("degenerate reference output (all zeros)")
    sqnr = float("inf") if err_rms == 0 else 20 * np.log10(ref_rms / err_rms)
    return SqnrReport(
        bits=bits,
        sqnr_db=sqnr,
        max_abs_err=float(np.max(np.abs(err))),
        ref_rms=ref_rms,
    )


def sqnr_sweep(
    build,  # Callable[[int], Network]
    x: np.ndarray,
    weights: dict[str, np.ndarray],
    bits_list: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
) -> list[SqnrReport]:
    """SQNR at each bit width for the same architecture and weights."""
    return [output_sqnr(build(bits), x, weights) for bits in bits_list]
