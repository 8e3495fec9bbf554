"""``conv2d_ref`` equals the int64 einsum oracle on both sides of its bound.

:func:`repro.conv.ref.conv2d_ref` sums in float64 on BLAS when
``K * max|x| * max|w| < 2**53`` and in int64 otherwise.  Either way it must
return exactly what :func:`tests.conv_oracle.conv2d_reference` returns:
for every geometry (groups, depthwise, strides, padding, batch), both
activation layouts, with and without bias, for 2-8-bit operands and for
int64 operands that wrap.  The float64-unsafe cases below are built so that
float64 cannot hold the exact sum; they fail if the bound check is dropped.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conv import ref
from repro.conv.ref import conv2d_float, conv2d_ref
from repro.quant.ranges import scheme_qrange
from repro.types import ConvSpec, Layout

from .conv_oracle import conv2d_reference


@st.composite
def conv_specs(draw):
    kind = draw(st.sampled_from(["dense", "grouped", "depthwise"]))
    groups = 1 if kind == "dense" else draw(st.integers(2, 4))
    cin_g, cout_g = (1, 1) if kind == "depthwise" else (
        draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    kh, kw = draw(st.sampled_from([1, 2, 3, 5])), draw(st.sampled_from([1, 3]))
    ph, pw = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    # at least one output row and column
    h = draw(st.integers(max(1, kh - 2 * ph), 9))
    wd = draw(st.integers(max(1, kw - 2 * pw), 9))
    return ConvSpec("h", in_channels=groups * cin_g, out_channels=groups * cout_g,
                    height=h, width=wd, kernel=(kh, kw),
                    stride=(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
                    padding=(ph, pw), groups=groups, batch=draw(st.integers(1, 2)))


def low_bit(rng, shape, bits):
    """Scheme-range operands, half of them at the most negative value."""
    r = scheme_qrange(bits)
    values = rng.integers(r.qmin, r.qmax + 1, shape)
    values[rng.random(shape) < 0.5] = r.qmin
    return values.astype(np.int8)


def assert_matches_oracle(spec, x, w, layout, bias):
    got = conv2d_ref(spec, x, w, layout=layout, bias=bias)
    want = conv2d_reference(spec, x, w, layout=layout, bias=bias)
    assert got.dtype == np.int64 and got.shape == spec.output_shape(layout)
    assert np.array_equal(got, want)


@given(conv_specs(), st.integers(0, 2**32 - 1), st.integers(2, 8),
       st.sampled_from([Layout.NCHW, Layout.NHWC]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_low_bit_operands_match_oracle(spec, seed, bits, layout, with_bias):
    rng = np.random.default_rng(seed)
    x = low_bit(rng, spec.input_shape(layout), bits)
    w = low_bit(rng, spec.weight_shape(), bits)
    bias = (rng.integers(-2**31, 2**31, spec.out_channels).astype(np.int32)
            if with_bias else None)
    assert_matches_oracle(spec, x, w, layout, bias)


@given(conv_specs(), st.integers(0, 2**32 - 1), st.integers(1, 62),
       st.sampled_from([Layout.NCHW, Layout.NHWC]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_int64_operands_match_oracle_on_both_sides_of_the_bound(
        spec, seed, log_mag, layout, with_bias):
    """Magnitudes up to 2^62: small ones take float64, large ones int64,
    where the products and sums wrap modulo 2^64 exactly as the oracle's."""
    rng = np.random.default_rng(seed)
    mag = 1 << log_mag
    x = rng.integers(-mag, mag, spec.input_shape(layout), dtype=np.int64)
    w = rng.integers(-mag, mag, spec.weight_shape(), dtype=np.int64)
    bias = rng.integers(-2**62, 2**62, spec.out_channels) if with_bias else None
    assert_matches_oracle(spec, x, w, layout, bias)


def test_unsigned_operands_match_oracle():
    spec = ConvSpec("u", in_channels=6, out_channels=4, height=7, width=6,
                    kernel=(3, 3), padding=(1, 1), groups=2)
    rng = np.random.default_rng(1)
    x = rng.integers(0, 256, spec.input_shape(), dtype=np.uint8)
    w = rng.integers(-128, 128, spec.weight_shape()).astype(np.int8)
    assert_matches_oracle(spec, x, w, Layout.NCHW, None)
    # uint64 past 2^63 wraps into int64 on the int64 branch, as in the oracle
    big = x.astype(np.uint64) << np.uint64(56)
    assert_matches_oracle(spec, big, w, Layout.NCHW, None)


@pytest.mark.parametrize("groups", [1, 3])
def test_weights_cast_in_blocks_of_output_channels(monkeypatch, groups):
    """Full-size layers cast their weights a block of rows at a time; a
    tiny block makes these small convs take several, with a ragged last."""
    monkeypatch.setattr(ref, "_WEIGHT_BLOCK", 2 * 6 * groups)
    spec = ConvSpec("blk", in_channels=6 * groups, out_channels=7 * groups,
                    height=5, width=6, kernel=(3, 3), padding=(1, 1),
                    groups=groups, batch=2)
    rng = np.random.default_rng(groups)
    x = low_bit(rng, spec.input_shape(), 8)
    w = low_bit(rng, spec.weight_shape(), 8)
    assert_matches_oracle(spec, x, w, Layout.NCHW, None)
    big = x.astype(np.int64) << 40  # the int64 branch blocks the same way
    assert_matches_oracle(spec, big, w.astype(np.int64) << 20, Layout.NCHW, None)


#: (name, spec, x value, w value): each exact output is an odd integer above
#: 2^53, which float64 cannot hold, so summing in float64 gives a wrong answer
UNSAFE = [
    # one product past the bound: (2^26+1)(2^27+1) = 2^53 + 2^27 + 2^26 + 1
    ("product", ConvSpec("p", in_channels=1, out_channels=1, height=1, width=1,
                         kernel=(1, 1)), 2**26 + 1, 2**27 + 1),
    # nine products that fit, whose sum does not: 9 (2^25+1)^2 is about 2^53.2
    ("sum", ConvSpec("s", in_channels=1, out_channels=1, height=3, width=3,
                     kernel=(3, 3)), 2**25 + 1, 2**25 + 1),
]


@pytest.mark.parametrize("name,spec,xv,wv", UNSAFE, ids=[u[0] for u in UNSAFE])
def test_float64_unsafe_operands_take_the_int64_branch(name, spec, xv, wv):
    x = np.full(spec.input_shape(), xv, dtype=np.int64)
    w = np.full(spec.weight_shape(), wv, dtype=np.int64)
    want = conv2d_reference(spec, x, w)
    exact = spec.gemm_k * xv * wv
    assert exact >= 2**53 and exact % 2 == 1 and int(want.item()) == exact
    # a float64 GEMM over the same K products loses the low bit
    gemm = np.matmul(w.reshape(1, -1).astype(np.float64),
                     x.reshape(-1, 1).astype(np.float64))
    assert int(gemm.item()) != exact
    assert np.array_equal(conv2d_ref(spec, x, w), want)


def test_operands_just_under_the_bound_match_oracle():
    """K * max|x| * max|w| = 8 * 2^25 * (2^25 - 1) = 2^53 - 2^28 sums in
    float64; output pixel (0, 0) adds 8 products of one sign and reaches it."""
    spec = ConvSpec("b", in_channels=8, out_channels=2, height=3, width=3,
                    kernel=(1, 1))
    rng = np.random.default_rng(2)
    x = rng.choice([-(2**25), 2**25 - 1], spec.input_shape())
    x[..., 0, 0] = -(2**25)
    w = np.array([2**25 - 1, -(2**25 - 1)]).repeat(8).reshape(spec.weight_shape())
    assert_matches_oracle(spec, x, w, Layout.NCHW, None)
    out = conv2d_ref(spec, x, w)
    assert out[0, 1, 0, 0] == -out[0, 0, 0, 0] == 2**53 - 2**28


@given(conv_specs(), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_conv2d_float_shares_the_core_on_integer_data(spec, seed):
    """The float conv runs the same core; on integer data it is exact,
    grouped and depthwise convs included."""
    rng = np.random.default_rng(seed)
    x = low_bit(rng, spec.input_shape(), 8)
    w = low_bit(rng, spec.weight_shape(), 8)
    out = conv2d_float(spec, x.astype(np.float64), w.astype(np.float64))
    assert out.dtype == np.float64
    assert np.array_equal(out, conv2d_reference(spec, x, w))
