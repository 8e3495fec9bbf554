"""Implicit-precomp GEMM convolution: exactness + offset buffer.

The production path computes each k tile as one float64 GEMM; the
per-fragment ``mma`` loop nest it replaced is the oracle in
``tests/gpu_oracle.py``, and the two must agree bit for bit, output dtype
included, on every geometry, tiling, epilogue and bit width.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conv import conv2d_ref
from repro.errors import ShapeError, TilingError, UnsupportedBitsError
from repro.gpu.autotune import autotune_conv
from repro.gpu.implicit_gemm import EPILOGUES, conv2d_implicit_gemm
from repro.gpu.mma import mma_shape
from repro.gpu.precompute import build_offsets
from repro.gpu.tiling import TilingParams, search_space, validate_tiling
from repro.models import get_model_layers
from repro.types import ConvSpec, Layout

from .gpu_oracle import conv2d_implicit_gemm_reference


def small_tiling(bits):
    kk = 32 if bits == 4 else 16
    return TilingParams(16, 16, kk, kk, 1, 1)


def rand_case(rng, spec, bits):
    half = 1 << (bits - 1)
    x = rng.integers(-half, half, spec.input_shape(Layout.NHWC)).astype(np.int8)
    w = rng.integers(-half, half, spec.weight_shape(Layout.NCHW)).astype(np.int8)
    return x, w


@pytest.mark.parametrize("bits", [4, 8])
def test_matches_reference(bits):
    rng = np.random.default_rng(bits)
    spec = ConvSpec("g", in_channels=6, out_channels=10, height=9, width=7,
                    kernel=(3, 3), stride=(1, 1), padding=(1, 1), batch=2)
    x, w = rand_case(rng, spec, bits)
    out = conv2d_implicit_gemm(spec, x, w, bits=bits, tiling=small_tiling(bits))
    assert np.array_equal(out.data, conv2d_ref(spec, x, w, layout=Layout.NHWC))


@given(st.integers(0, 2**32 - 1), st.sampled_from([4, 8]),
       st.integers(1, 2), st.integers(0, 2))
@settings(max_examples=15, deadline=None)
def test_strided_padded_cases(seed, bits, stride, pad):
    rng = np.random.default_rng(seed)
    spec = ConvSpec("h", in_channels=3, out_channels=5, height=8, width=9,
                    kernel=(3, 3), stride=(stride, stride), padding=(pad, pad))
    x, w = rand_case(rng, spec, bits)
    out = conv2d_implicit_gemm(spec, x, w, bits=bits, tiling=small_tiling(bits))
    assert np.array_equal(out.data, conv2d_ref(spec, x, w, layout=Layout.NHWC))


def test_default_tiling_large_blocks_still_exact():
    rng = np.random.default_rng(1)
    spec = ConvSpec("g", in_channels=4, out_channels=6, height=6, width=6,
                    kernel=(1, 1))
    x, w = rand_case(rng, spec, 8)
    out = conv2d_implicit_gemm(spec, x, w, bits=8)  # 128x128 default tile
    assert np.array_equal(out.data, conv2d_ref(spec, x, w, layout=Layout.NHWC))
    assert out.blocks == 1


def test_int4_nibble_roundtrip_path():
    rng = np.random.default_rng(2)
    spec = ConvSpec("g", in_channels=8, out_channels=8, height=5, width=5,
                    kernel=(3, 3), padding=(1, 1))
    x, w = rand_case(rng, spec, 4)
    packed = conv2d_implicit_gemm(spec, x, w, bits=4, tiling=small_tiling(4),
                                  pack_nibbles=True)
    plain = conv2d_implicit_gemm(spec, x, w, bits=4, tiling=small_tiling(4),
                                 pack_nibbles=False)
    assert np.array_equal(packed.data, plain.data)


def test_epilogues():
    rng = np.random.default_rng(3)
    spec = ConvSpec("g", in_channels=4, out_channels=6, height=6, width=6,
                    kernel=(3, 3), padding=(1, 1))
    x, w = rand_case(rng, spec, 8)
    bias = rng.integers(-50, 50, spec.out_channels).astype(np.int32)
    ref = conv2d_ref(spec, x, w, layout=Layout.NHWC, bias=bias)

    raw = conv2d_implicit_gemm(spec, x, w, bits=8, tiling=small_tiling(8),
                               epilogue="none", bias=bias)
    assert np.array_equal(raw.data, ref)

    dq = conv2d_implicit_gemm(spec, x, w, bits=8, tiling=small_tiling(8),
                              epilogue="dequant", bias=bias, dequant_scale=0.25)
    assert np.allclose(dq.data, ref * 0.25)

    relu = conv2d_implicit_gemm(spec, x, w, bits=8, tiling=small_tiling(8),
                                epilogue="requant_relu", bias=bias)
    assert relu.data.dtype == np.int8
    assert relu.data.min() >= 0
    # where the requantized value would be positive, relu leaves it alone
    rq = conv2d_implicit_gemm(spec, x, w, bits=8, tiling=small_tiling(8),
                              epilogue="requant", bias=bias)
    pos = rq.data > 0
    assert np.array_equal(relu.data[pos], rq.data[pos])
    assert np.all(relu.data[~pos] == 0)


def test_input_validation():
    spec = ConvSpec("g", in_channels=4, out_channels=4, height=6, width=6,
                    kernel=(3, 3), padding=(1, 1))
    x = np.zeros(spec.input_shape(Layout.NHWC), dtype=np.int8)
    w = np.zeros(spec.weight_shape(Layout.NCHW), dtype=np.int8)
    with pytest.raises(ShapeError):
        conv2d_implicit_gemm(spec, x, w, epilogue="bogus")
    with pytest.raises(ShapeError):
        conv2d_implicit_gemm(spec, np.zeros((1, 4, 6, 6), np.int8), w)
    xf = np.full(spec.input_shape(Layout.NHWC), 10, dtype=np.int8)
    with pytest.raises(ShapeError):
        conv2d_implicit_gemm(spec, xf, w, bits=4)  # out of 4-bit range


def test_offset_buffer_size_in_paper_band():
    """Sec. 5.4: the precomputed buffer occupies 0.5 KB ~ 50 KB."""
    from repro.models import resnet50_conv_layers

    for spec in resnet50_conv_layers():
        nbytes = build_offsets(spec).nbytes
        assert nbytes <= 200 * 1024  # offsets stay tiny for every layer
    big = build_offsets(ConvSpec("b", in_channels=512, out_channels=512,
                                 height=14, width=14, kernel=(3, 3),
                                 padding=(1, 1)))
    assert big.nbytes >= 512  # and are not trivially empty


def test_offset_gather_equals_im2col():
    from repro.conv.im2col import im2col_nhwc

    rng = np.random.default_rng(4)
    spec = ConvSpec("g", in_channels=3, out_channels=2, height=7, width=6,
                    kernel=(3, 3), stride=(2, 2), padding=(1, 1))
    x = rng.integers(-8, 8, spec.input_shape(Layout.NHWC)).astype(np.int8)
    offs = build_offsets(spec)
    pixels = np.arange(spec.out_spatial)
    ks = np.arange(spec.gemm_k)
    gathered = offs.gather(x[0], pixels, ks)
    assert np.array_equal(gathered, im2col_nhwc(spec, x))


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------


def _validation_case():
    spec = ConvSpec("v", in_channels=4, out_channels=4, height=6, width=6,
                    kernel=(3, 3), padding=(1, 1))
    x = np.ones(spec.input_shape(Layout.NHWC), dtype=np.int8)
    w = np.ones(spec.weight_shape(Layout.NCHW), dtype=np.int8)
    return spec, x, w


def test_weights_outside_the_bit_width_are_rejected():
    spec, x, w = _validation_case()
    wide = w.astype(np.int64)
    wide[0, 0, 0, 0] = 200  # an int8 tile would wrap it to -56
    with pytest.raises(ShapeError, match="weights"):
        conv2d_implicit_gemm(spec, x, wide, bits=8)
    w4 = w.copy()
    w4[-1, -1, -1, -1] = 8
    for pack in (True, False):
        with pytest.raises(ShapeError, match="weights"):
            conv2d_implicit_gemm(spec, x, w4, bits=4, pack_nibbles=pack)


def test_float_operands_are_rejected():
    spec, x, w = _validation_case()
    with pytest.raises(ShapeError, match="weights"):
        conv2d_implicit_gemm(spec, x, w.astype(np.float64))
    with pytest.raises(ShapeError, match="input"):  # 0.7 would truncate to 0
        conv2d_implicit_gemm(spec, np.full(x.shape, 0.7), w)


@pytest.mark.parametrize("bits", [2, 3, 16])
def test_bit_width_is_checked_before_the_data(bits):
    spec, x, w = _validation_case()
    for value in (0, 1, 7, -8, 127, -128, 1000):
        data = np.full(x.shape, value, dtype=np.int64)
        with pytest.raises(UnsupportedBitsError):
            conv2d_implicit_gemm(spec, data, w, bits=bits)
        with pytest.raises(UnsupportedBitsError):
            conv2d_implicit_gemm(spec, x, np.full(w.shape, value), bits=bits,
                                 epilogue="bogus")


@pytest.mark.parametrize("bits", [4, 8])
def test_every_legal_k_tile_keeps_partials_in_int32(bits):
    """The float64 k-tile GEMM is exact and fits the int32 an ``mma``
    returns because a partial sums KTile products of at most
    2^(2*bits-2): the shared-memory budget must keep every legal KTile,
    even on the smallest block tile, below 2^31 / 2^(2*bits-2)."""
    mm, nn, kk = mma_shape(bits)
    k_tile, legal = kk, []
    while k_tile <= 1 << 16:
        try:
            validate_tiling(TilingParams(mm, nn, k_tile, kk, 1, 1), bits)
            legal.append(k_tile)
        except TilingError:
            pass
        k_tile += kk
    assert legal and max(legal) < 1 << 16  # the budget, not the loop, stops it
    assert max(legal) * (1 << (2 * bits - 2)) < 2**31


# ---------------------------------------------------------------------------
# Bit for bit against the per-fragment loop nest
# ---------------------------------------------------------------------------


def assert_matches_oracle(spec, x, w, **kw):
    got = conv2d_implicit_gemm(spec, x, w, **kw)
    want = conv2d_implicit_gemm_reference(spec, x, w, **kw)
    assert got.data.dtype == want.data.dtype
    assert got.data.shape == want.data.shape
    assert np.array_equal(got.data, want.data)
    assert (got.blocks, got.tiling, got.epilogue, got.bits) == (
        want.blocks, want.tiling, want.epilogue, want.bits)


_SMALL_SPACE = {bits: [t for t in search_space(bits) if t.m_tile <= 32 and t.n_tile <= 32]
                for bits in (4, 8)}


def extreme_operands(rng, shape, bits):
    """Random over the signed range, half of them at its most negative
    value, so k-tile partials run close to their worst case."""
    half = 1 << (bits - 1)
    values = rng.integers(-half, half, shape)
    values[rng.random(shape) < 0.5] = -half
    return values.astype(np.int8)


@st.composite
def oracle_cases(draw):
    bits = draw(st.sampled_from([4, 8]))
    kh, kw = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([1, 3]))
    ph, pw = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    spec = ConvSpec(
        "o", in_channels=draw(st.integers(1, 7)),
        out_channels=draw(st.integers(1, 20)),
        height=draw(st.integers(max(1, kh - 2 * ph), 7)),
        width=draw(st.integers(max(1, kw - 2 * pw), 7)),
        kernel=(kh, kw), stride=(draw(st.integers(1, 2)), draw(st.integers(1, 2))),
        padding=(ph, pw), batch=draw(st.integers(1, 3)),
    )
    tiling = draw(st.sampled_from(_SMALL_SPACE[bits]))
    epilogue = draw(st.sampled_from(EPILOGUES))
    kwargs = {"bits": bits, "tiling": tiling, "epilogue": epilogue,
              "pack_nibbles": draw(st.sampled_from(
                  [None, True, False] if bits == 4 else [None, False]))}
    if draw(st.booleans()):
        kwargs["bias"] = np.asarray(draw(st.lists(
            st.integers(-5000, 5000), min_size=spec.out_channels,
            max_size=spec.out_channels)), dtype=np.int32)
    if epilogue.startswith("requant"):
        kwargs["requant_mult"] = draw(st.one_of(
            st.floats(1e-4, 0.5),
            st.lists(st.floats(1e-4, 0.5), min_size=spec.out_channels,
                     max_size=spec.out_channels).map(np.asarray)))
    if epilogue.startswith("dequant"):
        kwargs["dequant_scale"] = draw(st.floats(1e-3, 2.0))
    return spec, draw(st.integers(0, 2**32 - 1)), kwargs


@given(oracle_cases())
@settings(max_examples=60, deadline=None)
def test_matches_the_fragment_loop(case):
    spec, seed, kw = case
    rng = np.random.default_rng(seed)
    x = extreme_operands(rng, spec.input_shape(Layout.NHWC), kw["bits"])
    w = extreme_operands(rng, spec.weight_shape(Layout.NCHW), kw["bits"])
    assert_matches_oracle(spec, x, w, **kw)


#: partial blocks in M (batch 2 x 3x5 pixels), N (19) and K (45 / 50)
_TILING_SPEC = ConvSpec("t", in_channels=5, out_channels=19, height=6, width=5,
                        kernel=(3, 3), stride=(2, 1), padding=(1, 1), batch=2)


@pytest.mark.parametrize("bits,tiling", [
    (bits, t) for bits in (4, 8) for t in _SMALL_SPACE[bits]],
    ids=lambda v: v.describe() if isinstance(v, TilingParams) else f"b{v}")
def test_every_small_tiling_matches_the_fragment_loop(bits, tiling):
    rng = np.random.default_rng([bits, tiling.m_tile, tiling.n_tile,
                                 tiling.k_tile, tiling.k_step])
    x = extreme_operands(rng, _TILING_SPEC.input_shape(Layout.NHWC), bits)
    w = extreme_operands(rng, _TILING_SPEC.weight_shape(Layout.NCHW), bits)
    assert_matches_oracle(_TILING_SPEC, x, w, bits=bits, tiling=tiling)


@pytest.mark.parametrize("bits", [4, 8])
def test_autotuned_winners_match_the_fragment_loop(bits, monkeypatch, tmp_path):
    """The tilings the sweep picks for ResNet-50, up to 256-wide blocks."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    winners = {autotune_conv(spec, bits).best
               for spec in get_model_layers("resnet50")}
    rng = np.random.default_rng(bits)
    x = extreme_operands(rng, _TILING_SPEC.input_shape(Layout.NHWC), bits)
    w = extreme_operands(rng, _TILING_SPEC.weight_shape(Layout.NCHW), bits)
    for tiling in sorted(winners, key=TilingParams.describe):
        assert_matches_oracle(_TILING_SPEC, x, w, bits=bits, tiling=tiling,
                              epilogue="requant_relu", bias=np.arange(19) * 7)
