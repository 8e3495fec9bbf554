"""Tiling parameters, legality and the search space."""

import pytest

from repro.errors import TilingError
from repro.gpu.device import TU102
from repro.gpu.pipelinemodel import grid_blocks
from repro.gpu.tiling import (
    TilingParams,
    default_tiling,
    search_space,
    validate_tiling,
)
from repro.types import GemmShape


def test_fragment_geometry():
    t = TilingParams(128, 128, 64, 32, 2, 4)
    assert t.warps_per_block == 8
    assert t.threads_per_block == 256
    assert t.m_frag == 64
    assert t.n_frag == 32


def test_smem_accounting():
    t = TilingParams(64, 64, 32, 16, 2, 2)
    single = t.smem_bytes(8, double_buffer=False)
    assert single == (64 * 32 + 32 * 64)
    assert t.smem_bytes(8, double_buffer=True) == 2 * single
    assert t.smem_bytes(4, double_buffer=False) == single // 2  # int4 packed


def test_default_tiling_is_legal():
    for bits in (4, 8):
        validate_tiling(default_tiling(bits), bits)


@pytest.mark.parametrize("bad,bits", [
    (TilingParams(120, 128, 64, 32, 2, 4), 8),   # m_frag 60 not mma multiple
    (TilingParams(128, 128, 64, 24, 2, 4), 8),   # k_step not mma-k multiple
    (TilingParams(128, 128, 48, 32, 2, 4), 8),   # k_tile not k_step multiple
    (TilingParams(128, 128, 64, 32, 8, 8), 8),   # 2048 threads
    (TilingParams(256, 256, 128, 32, 2, 4), 8),  # smem blowout
    (TilingParams(128, 128, 64, 16, 2, 4), 4),   # k_step 16 < mma k 32
])
def test_illegal_tilings_rejected(bad, bits):
    with pytest.raises(TilingError):
        validate_tiling(bad, bits)


def test_search_space_all_legal_and_nonempty():
    for bits in (4, 8):
        space = list(search_space(bits))
        assert len(space) > 50
        for t in space:
            validate_tiling(t, bits)  # must not raise


def test_grid_blocks():
    t = TilingParams(64, 64, 32, 16, 2, 2)
    assert grid_blocks(GemmShape(m=100, k=64, n=100), t) == 2 * 2
    assert grid_blocks(GemmShape(m=64, k=64, n=64), t) == 1


def test_regs_scale_with_fragment():
    small = TilingParams(32, 32, 32, 16, 1, 1)
    big = TilingParams(256, 128, 32, 16, 2, 4)
    assert big.regs_per_thread(8) > small.regs_per_thread(8)
