"""Tiling independence: any legal tiling computes the same convolution —
and the cost model prices a tiling population bit-identically to the
one-tiling call, with a lower bound that reads only the block tile."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conv import conv2d_ref
from repro.gpu.autotune import _legal_candidates, autotune
from repro.gpu.device import TU102
from repro.gpu.implicit_gemm import conv2d_implicit_gemm
from repro.gpu.pipelinemodel import (
    GemmArrays,
    kernel_lower_bound,
    kernel_time,
    kernel_time_batch,
)
from repro.gpu.tiling import TilingArrays, search_space
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
# Population/one-tiling pricing equivalence (the bit-identity contract)
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


def _assert_python_numbers(perf):
    """Python ``float``/``int`` fields, never numpy scalars: the e2e pins
    hash the ``repr`` of cycle counts."""
    for name in ("compute_cycles", "dram_cycles", "smem_cycles",
                 "launch_cycles", "occupancy", "total_cycles"):
        assert type(getattr(perf, name)) is float, name
    for name in ("blocks", "blocks_per_sm"):
        assert type(getattr(perf, name)) is int, name


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
    total and component cycles, occupancy, residency, and the pruning
    bound — for the full legal space of the bit width."""
    space = list(search_space(bits))
    arrays = TilingArrays.from_params(space)
    for gemm in _EQ_GEMMS:
        batch = kernel_time_batch(gemm, bits, arrays, **kwargs)
        bounds = kernel_lower_bound(gemm, bits, arrays, **kwargs)
        totals = batch.total_cycles
        for i, tiling in enumerate(space):
            scalar = kernel_time(gemm, bits, tiling, **kwargs)
            lane = batch.perf_at(i)
            assert lane == scalar  # full dataclass, bit-exact
            _assert_python_numbers(scalar)
            _assert_python_numbers(lane)
            assert totals[i] == scalar.total_cycles
            assert batch.occupancy[i] == scalar.occupancy
            assert int(batch.blocks_per_sm[i]) == scalar.blocks_per_sm
            assert bounds[i] == kernel_lower_bound(gemm, bits, tiling, **kwargs)


def _other_legal_values(column: np.ndarray) -> np.ndarray:
    """Each entry replaced by the next of the column's distinct values,
    cyclically, so every lane changes and stays a value the space uses."""
    values = np.array(sorted(set(column.tolist())))
    return values[(np.searchsorted(values, column) + 1) % values.size]


@pytest.mark.parametrize("bits", [8, 4])
@pytest.mark.parametrize("kwargs", _EQ_KWARGS,
                         ids=lambda kw: "-".join(kw) or "defaults")
def test_lower_bound_reads_only_the_block_tile(bits, kwargs):
    """The premise of bounding each (MTile, NTile, KTile) block once: on
    the legal population and random GEMMs with m, k and n from 1 to 2^21,
    every candidate's bound equals its block representative's, gathered
    through the autotuner's block index, bit for bit, and stays the same
    when ``k_step`` and both warp counts take other legal values."""
    space, arrays, blocks, block_of = _legal_candidates(bits, TU102)
    tiles = [(t.m_tile, t.n_tile, t.k_tile) for t in space]
    firsts = [tiles.index(tile) for tile in dict.fromkeys(tiles)]
    assert [blocks.param_at(b) for b in range(len(blocks))] == [space[i] for i in firsts]
    assert [tiles[firsts[b]] for b in block_of] == tiles
    rng = np.random.default_rng(bits)
    dims = np.floor(2.0 ** rng.uniform(0, 21, (64, 3))).astype(np.int64)
    dims = np.vstack([dims, [[1, 1, 1], [2**21, 2**21, 2**21]]])
    gemms = GemmArrays(*dims.T[:, :, None])
    full = kernel_lower_bound(gemms, bits, arrays, **kwargs)
    gathered = kernel_lower_bound(gemms, bits, blocks, **kwargs)[:, block_of]
    assert full.shape == (66, len(space))
    assert gathered.tobytes() == full.tobytes()
    moved = dataclasses.replace(arrays, **{
        name: _other_legal_values(getattr(arrays, name))
        for name in ("k_step", "block_row_warps", "block_col_warps")})
    assert not np.any(moved.k_step == arrays.k_step)
    assert kernel_lower_bound(gemms, bits, moved, **kwargs).tobytes() == full.tobytes()


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
        _assert_python_numbers(batch.perf_at(j))
        assert totals[j] == scalar.total_cycles
    bounds = kernel_lower_bound(
        GemmArrays.from_shapes(_EQ_GEMMS, np.s_[:, None]), bits, arrays, **kwargs)
    assert bounds.shape == (len(_EQ_GEMMS), len(space))
    for row, gemm in zip(bounds, _EQ_GEMMS):
        for i in picks:
            assert row[i] == kernel_lower_bound(gemm, bits, space[i], **kwargs)


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
    _assert_python_numbers(scalar)
    assert batch.total_cycles[0] == scalar.total_cycles
