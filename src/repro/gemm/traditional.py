"""Traditional GEMM (Fig. 1a): row-of-A dot column-of-B per output element.

The functional walker mirrors the data access pattern Fig. 1a describes —
for each output C[i, j], stream the i-th row of A and j-th column of B —
so its load/arithmetic *event counts* can be measured and compared against
the Eq. 1/2 analytic model in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError
from ..obs import metrics as obs_metrics


@dataclass
class AccessCounter:
    """Counts SIMD-granularity load and MAC events of a GEMM walk.

    All mutation goes through the three event methods — callers never poke
    the tallies directly — so every GEMM walker charges events through one
    auditable API and :meth:`publish` can route totals into the
    :mod:`repro.obs.metrics` registry.
    """

    simd_width: int = 16
    loads: int = 0
    macs_instr: int = 0

    def load(self, n_elems: int) -> None:
        """One contiguous SIMD load per ``simd_width`` elements (LD1)."""
        self.loads += -(-n_elems // self.simd_width)

    def load_replicated(self, n_elems: int, *, lanes: int = 4) -> None:
        """Replicating loads: one LD4R-style instruction covers ``lanes``
        broadcast elements regardless of SIMD width (Fig. 1b Buffer B)."""
        self.loads += -(-n_elems // lanes)

    def mac(self, n_elems: int) -> None:
        self.macs_instr += -(-n_elems // self.simd_width)

    def publish(self, kind: str) -> None:
        """Add this walk's totals to the process metrics registry under
        ``gemm_loads{kind=...}`` / ``gemm_macs{kind=...}``."""
        obs_metrics.counter("gemm_loads", kind=kind).inc(self.loads)
        obs_metrics.counter("gemm_macs", kind=kind).inc(self.macs_instr)


def gemm_traditional(
    a: np.ndarray,
    b: np.ndarray,
    *,
    counter: AccessCounter | None = None,
) -> np.ndarray:
    """C = A @ B with per-output-element access pattern of Fig. 1a.

    Vectorized along K (a SIMD register's worth of the dot product at a
    time) so realistic sizes remain testable, while the access-event
    counting stays faithful: per (i, j) output, every K-chunk of A's row and
    B's column is loaded once.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"bad GEMM shapes: A {a.shape}, B {b.shape}")
    m, k = a.shape
    _, n = b.shape
    c = np.zeros((m, n), dtype=np.int64)
    a64 = a.astype(np.int64)
    bt64 = np.ascontiguousarray(b.T).astype(np.int64)
    for i in range(m):
        row = a64[i]
        for j in range(n):
            col = bt64[j]
            if counter is not None:
                counter.load(k)  # A row chunk loads
                counter.load(k)  # B column chunk loads
                counter.mac(k)
            c[i, j] = np.dot(row, col)
    if counter is not None:
        counter.publish("traditional")
    return c
