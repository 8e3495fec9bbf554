"""ARM convolution runner: functional exactness + cost-model structure."""

import numpy as np
import pytest

from repro.arm.conv_runner import (
    execute_arm_conv,
    ncnn_conv_cycles,
    time_arm_conv,
    tvm_popcount_cycles,
)
from repro.arm.cost_model import PI3B, is_pointwise_unit_stride, scheme_for_bits
from repro.conv import conv2d_ref
from repro.errors import ShapeError, UnsupportedBitsError
from repro.types import ConvSpec, Layout


def _case(rng, spec, bits):
    half = 1 << (bits - 1)
    lo = -(half - 1) if bits >= 7 else -half
    x = rng.integers(lo, half, spec.input_shape(Layout.NCHW)).astype(np.int8)
    w = rng.integers(lo, half, spec.weight_shape(Layout.NCHW)).astype(np.int8)
    return x, w


@pytest.mark.parametrize("bits", [2, 3, 4, 5, 6, 7, 8])
def test_execute_matches_ref(bits):
    rng = np.random.default_rng(bits)
    spec = ConvSpec("t", in_channels=5, out_channels=9, height=7, width=8,
                    kernel=(3, 3), padding=(1, 1))
    x, w = _case(rng, spec, bits)
    out = execute_arm_conv(spec, x, w, bits, check_overflow=True)
    assert np.array_equal(out, conv2d_ref(spec, x, w))


def test_execute_ncnn_scheme_matches_ref():
    rng = np.random.default_rng(42)
    spec = ConvSpec("t", in_channels=4, out_channels=6, height=6, width=6,
                    kernel=(3, 3), padding=(1, 1))
    x, w = _case(rng, spec, 8)
    out = execute_arm_conv(spec, x, w, 8, scheme="ncnn", check_overflow=True)
    assert np.array_equal(out, conv2d_ref(spec, x, w))


@pytest.mark.parametrize("dtype", [np.int16, np.int64, np.uint8])
def test_wider_integer_operands_run_as_their_int8_values(dtype):
    """The kernels read bytes: an int16 or int64 copy of in-range data must
    give the int8 result, not its bytes reinterpreted."""
    rng = np.random.default_rng(5)
    spec = ConvSpec("t", in_channels=3, out_channels=5, height=5, width=5,
                    kernel=(3, 3), padding=(1, 1))
    x, w = _case(rng, spec, 4)
    if dtype is np.uint8:
        x, w = x & 7, w & 7
    want = conv2d_ref(spec, x, w)
    assert np.array_equal(execute_arm_conv(spec, x.astype(dtype), w.astype(dtype), 4), want)


def test_operands_outside_the_width_are_rejected():
    spec = ConvSpec("t", in_channels=2, out_channels=3, height=4, width=4, kernel=(1, 1))
    x = np.zeros(spec.input_shape(Layout.NCHW), np.int8)
    w = np.zeros(spec.weight_shape(Layout.NCHW), np.int8)
    with pytest.raises(ShapeError, match="input must be integer"):
        execute_arm_conv(spec, x.astype(np.float32), w, 4)
    with pytest.raises(ShapeError, match="weights outside the 4-bit range"):
        execute_arm_conv(spec, x, w + 8, 4)
    # -128 is inside the full signed 8-bit range the e2e operands use
    low = np.full_like(x, -128)
    assert np.array_equal(execute_arm_conv(spec, low, w + 1, 8), conv2d_ref(spec, low, w + 1))
    # the width is checked first, whatever the scheme
    with pytest.raises(UnsupportedBitsError):
        execute_arm_conv(spec, x, w, 16, scheme="ncnn")
    for scheme in ("sdot", "popcount"):
        with pytest.raises(UnsupportedBitsError, match="unsupported scheme"):
            execute_arm_conv(spec, x, w, 8, scheme=scheme)


def test_kernel_rejects_panels_wider_than_a_byte():
    from repro.arm.kernels import generate_smlal_kernel

    kern = generate_smlal_kernel(4, 8)
    a, b = np.zeros(kern.a_bytes, np.int16), np.zeros(kern.b_bytes, np.int8)
    with pytest.raises(ShapeError, match="A panel must hold bytes"):
        kern.execute(a, b)


def test_execute_strided_and_batched():
    rng = np.random.default_rng(7)
    spec = ConvSpec("t", in_channels=3, out_channels=5, height=9, width=9,
                    kernel=(3, 3), stride=(2, 2), padding=(1, 1), batch=2)
    x, w = _case(rng, spec, 4)
    out = execute_arm_conv(spec, x, w, 4)
    assert np.array_equal(out, conv2d_ref(spec, x, w))


def test_scheme_selection():
    assert scheme_for_bits(2) == "mla"
    assert scheme_for_bits(3) == "mla"
    assert scheme_for_bits(4) == "smlal"
    assert scheme_for_bits(8) == "smlal"
    with pytest.raises(UnsupportedBitsError):
        scheme_for_bits(1)
    with pytest.raises(UnsupportedBitsError):
        scheme_for_bits(9)


def test_pointwise_detection():
    pw = ConvSpec("p", in_channels=8, out_channels=8, height=4, width=4,
                  kernel=(1, 1))
    assert is_pointwise_unit_stride(pw)
    assert not is_pointwise_unit_stride(
        ConvSpec("p", in_channels=8, out_channels=8, height=4, width=4,
                 kernel=(1, 1), stride=(2, 2))
    )


MID = ConvSpec("mid", in_channels=128, out_channels=128, height=28, width=28,
               kernel=(3, 3), padding=(1, 1))


def test_perf_breakdown_is_positive():
    perf = time_arm_conv(MID, 4)
    for field in ("kernel_cycles", "im2col_cycles", "pack_cycles",
                  "requant_cycles", "mem_cycles", "overhead_cycles",
                  "quant_cycles"):
        assert getattr(perf, field) >= 0
    assert perf.total_cycles > perf.kernel_cycles
    assert perf.milliseconds() > 0


def test_speedup_monotone_in_bits():
    """Fig. 7's headline trend: lower bits -> higher speedup."""
    base = ncnn_conv_cycles(MID).total_cycles
    speedups = [base / time_arm_conv(MID, b).total_cycles for b in range(2, 9)]
    assert speedups == sorted(speedups, reverse=True)


def test_8bit_is_near_parity_with_ncnn():
    """Sec. 5.2: 'for 8-bit implementation, our optimization achieves
    lower [or comparable] performance compared to ncnn'."""
    base = ncnn_conv_cycles(MID).total_cycles
    ours = time_arm_conv(MID, 8).total_cycles
    assert 0.85 <= base / ours <= 1.15


def test_2bit_beats_ncnn_substantially():
    base = ncnn_conv_cycles(MID).total_cycles
    ours = time_arm_conv(MID, 2).total_cycles
    assert base / ours > 1.5


def test_small_pointwise_layer_has_lower_speedup():
    """The paper's conv1/conv3 observation: tiny 1x1/64ch layers benefit
    least (limited computation intensity after blocking)."""
    small = ConvSpec("s", in_channels=64, out_channels=64, height=56, width=56,
                     kernel=(1, 1))
    sp_small = (ncnn_conv_cycles(small).total_cycles
                / time_arm_conv(small, 2).total_cycles)
    sp_mid = (ncnn_conv_cycles(MID).total_cycles
              / time_arm_conv(MID, 2).total_cycles)
    assert sp_small < sp_mid


def test_interleave_ablation_helps():
    with_il = time_arm_conv(MID, 4, interleave=True).total_cycles
    without = time_arm_conv(MID, 4, interleave=False).total_cycles
    assert with_il < without


def test_batch_scales_costs():
    b1 = time_arm_conv(MID, 4).total_cycles
    b4 = time_arm_conv(MID.with_batch(4), 4).total_cycles
    assert 3.5 * b1 < b4 < 4.5 * b1


def test_tvm_popcount_baseline():
    tvm = tvm_popcount_cycles(MID)
    assert tvm.scheme == "popcount"
    ours = time_arm_conv(MID, 2)
    # Fig. 9: ours wins on most layers
    assert tvm.total_cycles > ours.total_cycles
    with pytest.raises(UnsupportedBitsError):
        tvm_popcount_cycles(MID, bits=3)


def test_ncnn_winograd_dispatch_ablation():
    plain = ncnn_conv_cycles(MID, allow_winograd=False)
    wino = ncnn_conv_cycles(MID, allow_winograd=True)
    assert wino.total_cycles <= plain.total_cycles
    # for a non-eligible layer they coincide
    pw = ConvSpec("p", in_channels=64, out_channels=64, height=28, width=28,
                  kernel=(1, 1))
    assert (ncnn_conv_cycles(pw, allow_winograd=True).total_cycles
            == ncnn_conv_cycles(pw, allow_winograd=False).total_cycles)
