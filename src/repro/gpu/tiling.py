"""Tiling parameters and partition legality (Sec. 4.2, Fig. 4).

The data-partition mechanism assigns an ``MTile x NTile`` C tile to each
thread block, splits it into per-warp fragments via ``blockRowWarpNum x
blockColWarpNum``, and walks K in ``KTile`` chunks (staged through shared
memory) sub-divided into ``KStep`` register-resident steps — exactly the
parameter set of Alg. 2.

:class:`TilingParams` is one instantiation and :class:`TilingArrays` a
population of them as int64 columns; both derive their footprints from
the same formulas, and :func:`validate_tiling` decides legality for both
(a population is built from legal tilings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import TilingError
from .device import GpuDevice, TU102
from .mma import mma_shape

#: TilingParams fields, in dataclass order (the TilingArrays column set)
_FIELDS = ("m_tile", "n_tile", "k_tile", "k_step",
           "block_row_warps", "block_col_warps")


class _Footprint:
    """Derived sizes of one tiling or of a population.

    Written with plain operators, so :class:`TilingParams` (ints) and
    :class:`TilingArrays` (int64 columns) share every formula; only the
    truncation to a whole count, ``_floor``, is per class (``int()``
    truncates, which is ``floor`` for these positive sizes).
    """

    @property
    def warps_per_block(self):
        return self.block_row_warps * self.block_col_warps

    @property
    def threads_per_block(self):
        return self.warps_per_block * 32

    @property
    def m_frag(self):
        """MFrag: C-fragment rows owned by one warp."""
        return self.m_tile // self.block_row_warps

    @property
    def n_frag(self):
        return self.n_tile // self.block_col_warps

    def smem_bytes(self, bits: int, *, double_buffer: bool = True):
        """A_Tile + B_Tile staging footprint."""
        elem = bits / 8
        tiles = (self.m_tile * self.k_tile + self.k_tile * self.n_tile) * elem
        return self._floor(tiles * (2 if double_buffer else 1))

    def regs_per_thread(self, bits: int):
        """Accumulator fragments + operand fragments + bookkeeping."""
        acc = self.m_frag * self.n_frag / 32  # int32 accumulators per thread
        elem = bits / 8
        frag = (self.m_frag + self.n_frag) * self.k_step * elem / 32 / 4
        return self._floor(acc + 2 * frag) + 16  # + addressing/bookkeeping


@dataclass(frozen=True)
class TilingParams(_Footprint):
    """One point of the kernel-template instantiation space."""

    m_tile: int
    n_tile: int
    k_tile: int
    k_step: int
    block_row_warps: int  #: blockRowWarpNum
    block_col_warps: int  #: blockColWarpNum

    _floor = staticmethod(int)

    def describe(self) -> str:
        return (
            f"M{self.m_tile}xN{self.n_tile}xK{self.k_tile}/ks{self.k_step}"
            f"@{self.block_row_warps}x{self.block_col_warps}w"
        )


def validate_tiling(
    tiling: TilingParams,
    bits: int,
    *,
    device: GpuDevice = TU102,
    double_buffer: bool = True,
) -> None:
    """Raise :class:`TilingError` for configurations the template could not
    instantiate, or whose block cannot be resident on one of ``device``'s
    SMs (Sec. 5.1's auto-search only profiles legal candidates).  This is
    the one legality rule: the cost model prices any tiling that passes."""
    mm, nn, kk = mma_shape(bits)
    t = tiling
    if t.m_tile <= 0 or t.n_tile <= 0 or t.k_tile <= 0 or t.k_step <= 0:
        raise TilingError(f"{t.describe()}: non-positive tile size")
    if t.block_row_warps <= 0 or t.block_col_warps <= 0:
        raise TilingError(f"{t.describe()}: non-positive warp grid")
    if t.m_tile % t.block_row_warps or t.n_tile % t.block_col_warps:
        raise TilingError(f"{t.describe()}: tile not divisible by warp grid")
    if t.m_frag % mm or t.n_frag % nn:
        raise TilingError(
            f"{t.describe()}: fragment {t.m_frag}x{t.n_frag} not a multiple "
            f"of mma {mm}x{nn}"
        )
    if t.k_tile % t.k_step or t.k_step % kk:
        raise TilingError(
            f"{t.describe()}: KTile/KStep must nest multiples of mma k={kk}"
        )
    if t.threads_per_block > 1024:
        raise TilingError(f"{t.describe()}: > 1024 threads per block")
    if t.smem_bytes(bits, double_buffer=double_buffer) > device.max_smem_per_block:
        raise TilingError(f"{t.describe()}: shared memory tile exceeds budget")
    if t.regs_per_thread(bits) > 255:
        raise TilingError(f"{t.describe()}: register fragment exceeds 255/thread")
    if t.regs_per_thread(bits) * t.threads_per_block > device.regs_per_sm:
        raise TilingError(f"{t.describe()}: block register file exceeds the SM")
    if (t.smem_bytes(bits, double_buffer=double_buffer) > device.smem_per_sm
            or t.threads_per_block > device.max_threads_per_sm
            or device.max_blocks_per_sm < 1):
        raise TilingError(f"{t.describe()}: block does not fit on an SM")


def default_tiling(bits: int) -> TilingParams:
    """The 'programmer experience' defaults (Fig. 11's w/o-profile arm)."""
    return TilingParams(
        m_tile=128, n_tile=128, k_tile=64, k_step=mma_shape(bits)[2] * 2,
        block_row_warps=2, block_col_warps=4,
    )


def search_space(bits: int, *, device: GpuDevice = TU102) -> Iterator[TilingParams]:
    """The template-instantiation grid the profile-run auto-search sweeps.

    Mirrors 'we use C++ template to generate multiple kernels with
    different combinations of tiling parameters' (Sec. 5.1).
    """
    _, _, kk = mma_shape(bits)
    for m_tile in (16, 32, 64, 128, 256):
        for n_tile in (16, 32, 64, 128, 256):
            for k_tile in (kk, kk * 2, kk * 4):
                for k_step in (kk, kk * 2):
                    if k_tile % k_step:
                        continue
                    for brw, bcw in ((1, 1), (1, 2), (2, 1), (2, 2),
                                     (2, 4), (4, 2), (4, 4)):
                        t = TilingParams(m_tile, n_tile, k_tile, k_step, brw, bcw)
                        try:
                            validate_tiling(t, bits, device=device)
                        except TilingError:
                            continue
                        yield t


def search_space_size(bits: int) -> int:
    """Template instantiations the sweep *considers* (before legality).

    The denominator for autotune diagnostics: ``search_space`` yields the
    legal subset of this grid, and :class:`repro.errors.AutotuneError`
    reports both numbers when the subset is empty.
    """
    _, _, kk = mma_shape(bits)
    count = 0
    for k_tile in (kk, kk * 2, kk * 4):
        for k_step in (kk, kk * 2):
            if k_tile % k_step:
                continue
            count += 1
    return count * 5 * 5 * 7  # x m_tile x n_tile x warp-grid choices


@dataclass(frozen=True)
class TilingArrays(_Footprint):
    """A tiling population as parallel int64 columns (structure of arrays).

    Built once per (bits, device) search space and cached by the autotuner;
    ``take`` re-slices it for chunked pricing without touching the original
    ``TilingParams`` objects.
    """

    m_tile: np.ndarray
    n_tile: np.ndarray
    k_tile: np.ndarray
    k_step: np.ndarray
    block_row_warps: np.ndarray
    block_col_warps: np.ndarray

    @staticmethod
    def _floor(x: np.ndarray) -> np.ndarray:
        return np.floor(x).astype(np.int64)

    @classmethod
    def from_params(cls, tilings: Sequence[TilingParams]) -> "TilingArrays":
        return cls(**{
            name: np.array([getattr(t, name) for t in tilings], dtype=np.int64)
            for name in _FIELDS
        })

    def __len__(self) -> int:
        return int(self.m_tile.shape[0])

    def take(self, indices) -> "TilingArrays":
        """The sub-population at ``indices`` (any numpy fancy index)."""
        return TilingArrays(**{
            name: getattr(self, name)[indices] for name in _FIELDS
        })

    def param_at(self, i: int) -> TilingParams:
        """The ``i``-th candidate back as a scalar :class:`TilingParams`."""
        return TilingParams(*(int(getattr(self, name)[i]) for name in _FIELDS))
