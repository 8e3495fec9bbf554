"""The paper's ARM claims at the scale of its real layers (Sec. 3.3).

The full sweep, every unique ResNet-50 conv at 2~8 bits, lives in
``benchmarks/test_sec33_real_layers.py``; these are its tier-1 cuts.
"""

import numpy as np
import pytest

from repro.arm.conv_runner import execute_arm_conv
from repro.arm.cost_model import kernel_geometry, scheme_for_bits
from repro.arm.kernels import generate_mla_kernel, generate_smlal_kernel
from repro.arm.ratios import chain_length
from repro.conv.im2col import im2col, weight_matrix
from repro.conv.padding import pack_a, pack_b
from repro.conv.ref import conv2d_ref
from repro.errors import OverflowDetected
from repro.models import get_model_layers
from repro.quant.ranges import scheme_qrange
from repro.types import ConvSpec


def test_reference_layer_is_bit_exact():
    """64->64, 14x14, 3x3 at 4 bits: every tile through the real stream."""
    spec = ConvSpec("ref", in_channels=64, out_channels=64, height=14, width=14,
                    kernel=(3, 3), stride=(1, 1), padding=(1, 1))
    rng = np.random.default_rng(14)
    x = rng.integers(-8, 8, spec.input_shape()).astype(np.int8)
    w = rng.integers(-8, 8, spec.weight_shape()).astype(np.int8)
    out = execute_arm_conv(spec, x, w, 4, check_overflow=True)
    assert np.array_equal(out, conv2d_ref(spec, x, w))


def one_tile(layer: ConvSpec, bits: int) -> ConvSpec:
    """One register tile of ``layer`` (its K, kernel and stride), cropped
    away from the padding so every product of the reduction is real."""
    m_r, n_r = kernel_geometry(scheme_for_bits(bits))
    out_hw = 2 if n_r == 4 else 1  # 4 or 1 output pixels: the tile's columns
    (k, _), (stride, _) = layer.kernel, layer.stride
    hw = (out_hw - 1) * stride + k
    return ConvSpec(f"{layer.name}-tile", in_channels=layer.in_channels, out_channels=m_r,
                    height=hw, width=hw, kernel=layer.kernel, stride=layer.stride,
                    padding=(0, 0))


def conv16_tile(bits: int) -> ConvSpec:
    """One register tile of conv16 (K = 512 * 3 * 3 = 4608)."""
    return one_tile(next(s for s in get_model_layers("resnet50") if s.name == "conv16"), bits)


def heavy_operands(rng, shape, bits):
    """Random over the scheme's range, half of them at its most negative
    value, so the partial sums run close to their worst case."""
    r = scheme_qrange(bits)
    values = rng.integers(r.qmin, r.qmax + 1, shape)
    values[rng.random(shape) < 0.5] = r.qmin
    return values.astype(np.int8)


@pytest.mark.parametrize("bits", range(2, 9))
def test_every_reduction_length_one_tile(bits):
    """One tile at each of ResNet-50's ten reduction lengths (K = 64 to
    4,608) through the generated kernel with the overflow check on, so
    every K runs at every width, not only at the one the e2e run gives it."""
    layers = {s.gemm_k: s for s in reversed(get_model_layers("resnet50"))}
    assert sorted(layers) == [64, 128, 256, 512, 576, 1024, 1152, 2048, 2304, 4608]
    rng = np.random.default_rng(bits)
    for k, layer in sorted(layers.items()):
        spec = one_tile(layer, bits)
        assert spec.gemm_k == k
        x = heavy_operands(rng, spec.input_shape(), bits)
        w = heavy_operands(rng, spec.weight_shape(), bits)
        out = execute_arm_conv(spec, x, w, bits, check_overflow=True)
        assert np.array_equal(out, conv2d_ref(spec, x, w)), k


@pytest.mark.parametrize("bits", range(2, 9))
def test_conv16_tile_chain_is_tight(bits):
    """Worst-case operands (every product the largest the scheme range
    allows): draining every published chain length never wraps, and one
    step later does."""
    spec = conv16_tile(bits)
    assert spec.gemm_k == 4608
    worst = scheme_qrange(bits).qmin
    x = np.full(spec.input_shape(), worst, np.int8)
    w = np.full(spec.weight_shape(), worst, np.int8)
    a, b = weight_matrix(spec, w), im2col(spec, x)[0]
    chain = chain_length(bits)

    def run(steps, **kw):
        if bits < 4:
            kern = generate_mla_kernel(bits, spec.gemm_k, chain_steps=steps, **kw)
        else:
            kern = generate_smlal_kernel(bits, spec.gemm_k, round_steps=steps, **kw)
        return kern.execute(pack_a(a, kern.m_r), pack_b(b, kern.n_r), check_overflow=True)

    tile = run(chain)
    want = conv2d_ref(spec, x, w).reshape(spec.out_channels, spec.gemm_n)
    assert np.array_equal(tile, want)
    with pytest.raises(OverflowDetected):
        run(chain + 1, allow_unsafe=True)
