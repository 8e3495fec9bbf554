"""The serving batcher's per-call searches, kept as oracles.

:class:`repro.serve.cost.CostTable` tabulates its views once, at
construction, and :meth:`repro.serve.server.ServeSim._feasible_batch`
bisects the table's prefix maximum.  These are the searches they
replaced, run on every call: the ``min`` over every batch up to the cap,
and the loop that grows the batch until its service first misses the
head's deadline.  ``tests/test_serve.py`` compares the tabulated lookups
with them on random tables.
"""

from __future__ import annotations

from repro.serve.cost import CostTable


def best_batch_reference(table: CostTable, cap: int | None = None) -> int:
    """Batch size with the lowest per-image cost (ties: smallest)."""
    hi = table.max_batch if cap is None else max(1, min(cap, table.max_batch))
    return min(range(1, hi + 1), key=lambda b: (table.per_image(b), b))


def feasible_batch_reference(now: float, table: CostTable, cap: int,
                             queue_len: int, deadline_us: float) -> int:
    """Largest batch <= min(cap, queue_len) whose service, and that of
    every smaller batch, still makes ``deadline_us``; 0 when batch 1
    misses."""
    best = 0
    for b in range(1, min(cap, queue_len) + 1):
        if now + table.service(b) <= deadline_us:
            best = b
        else:
            break
    return best
