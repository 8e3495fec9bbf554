"""Cache blocking plan for the ARM GEMM path.

The micro-kernel computes an ``n_a x n_b`` tile of C over the full K range;
above it, the layer GEMM is blocked so the packed B panel in flight stays
within L1/L2 reach (Sec. 3.1: "using the registers efficiently can reduce
the number of cache accesses").  Blocking does not change results (the
functional layer is exact regardless); it feeds the cost model's cache-miss
charges and the Fig. 13 working-set accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ShapeError
from ..types import GemmShape
from ..util import round_up


@dataclass(frozen=True)
class BlockingPlan:
    """Tile structure of one layer GEMM on the ARM path."""

    shape: GemmShape
    n_a: int  #: micro-kernel rows (register tile M), 16 in Alg. 1
    n_b: int  #: micro-kernel cols (register tile N), 4 in Alg. 1
    kc: int  #: K cache-block length

    def __post_init__(self) -> None:
        if self.n_a <= 0 or self.n_b <= 0 or self.kc <= 0:
            raise ShapeError("blocking parameters must be positive")

    @property
    def m_padded(self) -> int:
        return round_up(self.shape.m, self.n_a)

    @property
    def n_padded(self) -> int:
        return round_up(self.shape.n, self.n_b)

    @property
    def m_tiles(self) -> int:
        return self.m_padded // self.n_a

    @property
    def n_tiles(self) -> int:
        return self.n_padded // self.n_b

    @property
    def padded_macs(self) -> int:
        """MACs actually executed, padding included."""
        return self.m_padded * self.n_padded * self.shape.k

    @property
    def pad_waste(self) -> float:
        """Fraction of executed MACs that are padding (>= 0)."""
        return self.padded_macs / self.shape.macs - 1.0


def plan_blocking(
    shape: GemmShape,
    *,
    n_a: int = 16,
    n_b: int = 4,
    l1_bytes: int = 32 * 1024,
) -> BlockingPlan:
    """Choose a K block so one A panel + one B panel fit in half of L1.

    Cortex-A53 has a 32 KiB L1D; keeping the streaming panels within half
    of it leaves room for the C tile and im2col traffic.
    """
    budget = l1_bytes // 2
    per_k = n_a + n_b  # bytes per K step held in the two panels (int8)
    kc = max(1, min(shape.k, budget // per_k))
    return BlockingPlan(shape=shape, n_a=n_a, n_b=n_b, kc=kc)
