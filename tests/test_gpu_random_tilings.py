"""Tiling independence: any legal tiling computes the same convolution —
and the vectorized cost model prices any tiling bit-identically to the
scalar one."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conv import conv2d_ref
from repro.errors import TilingError
from repro.gpu.autotune import autotune
from repro.gpu.implicit_gemm import conv2d_implicit_gemm
from repro.gpu.mma import mma_shape
from repro.gpu.pipelinemodel import kernel_lower_bound, kernel_time
from repro.gpu.tiling import TilingParams, search_space, validate_tiling
from repro.gpu.vecmodel import (
    GemmArrays,
    TilingArrays,
    kernel_lower_bound_batch,
    kernel_time_batch,
    validate_mask,
)
from repro.types import ConvSpec, GemmShape, Layout

_SPACE8 = [t for t in search_space(8) if t.m_tile <= 64 and t.n_tile <= 64]
_SPACE4 = [t for t in search_space(4) if t.m_tile <= 64 and t.n_tile <= 64]


@given(st.integers(0, len(_SPACE8) - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_any_legal_tiling_is_exact_int8(idx, seed):
    tiling = _SPACE8[idx]
    rng = np.random.default_rng(seed)
    spec = ConvSpec("t", in_channels=5, out_channels=7, height=6, width=7,
                    kernel=(3, 3), padding=(1, 1))
    x = rng.integers(-128, 128, spec.input_shape(Layout.NHWC)).astype(np.int8)
    w = rng.integers(-128, 128, spec.weight_shape(Layout.NCHW)).astype(np.int8)
    out = conv2d_implicit_gemm(spec, x, w, bits=8, tiling=tiling)
    assert np.array_equal(out.data, conv2d_ref(spec, x, w, layout=Layout.NHWC))


@given(st.integers(0, len(_SPACE4) - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_any_legal_tiling_is_exact_int4(idx, seed):
    tiling = _SPACE4[idx]
    rng = np.random.default_rng(seed)
    spec = ConvSpec("t", in_channels=4, out_channels=6, height=5, width=6,
                    kernel=(3, 3), padding=(1, 1))
    x = rng.integers(-8, 8, spec.input_shape(Layout.NHWC)).astype(np.int8)
    w = rng.integers(-8, 8, spec.weight_shape(Layout.NCHW)).astype(np.int8)
    out = conv2d_implicit_gemm(spec, x, w, bits=4, tiling=tiling)
    assert np.array_equal(out.data, conv2d_ref(spec, x, w, layout=Layout.NHWC))


@given(st.integers(0, len(_SPACE8) - 1))
@settings(max_examples=25, deadline=None)
def test_autotune_is_optimal_over_sampled_configs(idx):
    """The autotuner's pick is never slower than any sampled legal config."""
    gemm = GemmShape(m=784, k=576, n=128)
    best = autotune(gemm, 8).best_cycles
    sampled = kernel_time(gemm, 8, _SPACE8[idx]).total_cycles
    assert best <= sampled + 1e-6


# ---------------------------------------------------------------------------
# Vector/scalar pricing equivalence (the SoA model's bit-identity contract)
# ---------------------------------------------------------------------------

#: every kernel-kwarg axis the autotuner forwards, exercised in the same
#: combinations the pruning suite pins down, plus the smem-reorder switch
_EQ_KWARGS = [
    {},
    {"tensor_core": False},
    {"double_buffer": False, "coalesced": False, "reorder_smem": False},
    {"split_k": 2, "out_elem_bytes": 4.0},
    {"base_efficiency": 0.8, "in_place_epilogue": False},
]

_EQ_GEMMS = [
    GemmShape(784, 576, 128),
    GemmShape(37, 123, 211),     # nothing tile-aligned
    GemmShape(1, 16, 8),         # degenerate tiny GEMM
    GemmShape(4096, 4096, 4096), # compute bound
]


@pytest.mark.parametrize("bits", [8, 4])
@pytest.mark.parametrize("kwargs", _EQ_KWARGS,
                         ids=lambda kw: "-".join(kw) or "defaults")
def test_vector_pricing_is_bit_identical(bits, kwargs):
    """Every lane of the batched model equals the scalar call exactly —
    total and component cycles, occupancy, residency, legality, and the
    pruning bound — for the full legal space of the bit width."""
    space = list(search_space(bits))
    arrays = TilingArrays.from_params(space)
    for gemm in _EQ_GEMMS:
        batch = kernel_time_batch(gemm, bits, arrays, **kwargs)
        bounds = kernel_lower_bound_batch(gemm, bits, arrays, **kwargs)
        totals = batch.total_cycles
        assert bool(batch.legal.all())  # search_space pre-validates
        for i, tiling in enumerate(space):
            scalar = kernel_time(gemm, bits, tiling, **kwargs)
            assert batch.perf_at(i) == scalar  # full dataclass, bit-exact
            assert totals[i] == scalar.total_cycles
            assert batch.occupancy[i] == scalar.occupancy
            assert int(batch.blocks_per_sm[i]) == scalar.blocks_per_sm
            assert bounds[i] == kernel_lower_bound(gemm, bits, tiling, **kwargs)


@pytest.mark.parametrize("bits", [8, 4])
@pytest.mark.parametrize("kwargs", _EQ_KWARGS,
                         ids=lambda kw: "-".join(kw) or "defaults")
def test_vector_pricing_several_gemms_in_one_call(bits, kwargs):
    """Per-lane GEMM dimensions: lanes of different shapes priced in one
    call, and every shape's bounds in one column-layout call, equal the
    scalar model bit for bit (the shapes straddle the L2-fit branch)."""
    space = list(search_space(bits))
    arrays = TilingArrays.from_params(space)
    rng = np.random.default_rng(bits)
    picks = rng.integers(0, len(space), 48)
    shapes = [_EQ_GEMMS[j % len(_EQ_GEMMS)] for j in range(picks.size)]
    batch = kernel_time_batch(GemmArrays.from_shapes(shapes), bits,
                              arrays.take(picks), **kwargs)
    totals = batch.total_cycles
    for j, (gemm, i) in enumerate(zip(shapes, picks)):
        scalar = kernel_time(gemm, bits, space[i], **kwargs)
        assert batch.perf_at(j) == scalar
        assert totals[j] == scalar.total_cycles
    bounds = kernel_lower_bound_batch(
        GemmArrays.from_shapes(_EQ_GEMMS, np.s_[:, None]), bits, arrays, **kwargs)
    assert bounds.shape == (len(_EQ_GEMMS), len(space))
    for row, gemm in zip(bounds, _EQ_GEMMS):
        for i in picks:
            assert row[i] == kernel_lower_bound(gemm, bits, space[i], **kwargs)


@pytest.mark.parametrize("bits", [8, 4])
def test_validate_mask_matches_scalar_validation(bits):
    """The legality mask agrees with validate_tiling over the *raw*
    template grid — including the illegal points search_space filters."""
    kk = mma_shape(bits)[2]
    raw = [
        TilingParams(m, n, kt, ks, brw, bcw)
        for m in (16, 32, 64, 128, 256)
        for n in (16, 32, 64, 128, 256)
        for kt in (kk, kk * 2, kk * 4)
        for ks in (kk, kk * 2)
        for brw, bcw in ((1, 1), (1, 2), (2, 2), (2, 4), (4, 4), (3, 1))
    ]
    arrays = TilingArrays.from_params(raw)
    for double_buffer in (True, False):
        mask = validate_mask(arrays, bits, double_buffer=double_buffer)
        for i, tiling in enumerate(raw):
            try:
                validate_tiling(tiling, bits, double_buffer=double_buffer)
                legal = True
            except TilingError:
                legal = False
            assert bool(mask[i]) == legal, tiling


@given(
    st.integers(0, len(_SPACE8) - 1),
    st.integers(1, 4096), st.integers(1, 4096), st.integers(1, 4096),
)
@settings(max_examples=40, deadline=None)
def test_vector_pricing_property_random_gemms(idx, m, k, n):
    """Property form: a random (tiling, GEMM) pair prices identically
    through both models."""
    gemm = GemmShape(m, k, n)
    tiling = _SPACE8[idx]
    batch = kernel_time_batch(gemm, 8, TilingArrays.from_params([tiling]))
    scalar = kernel_time(gemm, 8, tiling)
    assert batch.perf_at(0) == scalar
    assert batch.total_cycles[0] == scalar.total_cycles
