"""Search/execution performance layer.

Everything under :mod:`repro.perf` makes the reproduction *faster without
changing any result*:

* :class:`~repro.perf.cache.PersistentCache` — content-addressed
  memoization under ``~/.cache/repro`` (``REPRO_CACHE_DIR`` overrides),
  one JSONL segment file per batch read through an in-process index,
  tolerant of corruption and unwritable filesystems;
* :func:`~repro.perf.cache.stable_hash` — a canonical hash for cache keys
  built from dataclasses / dicts / kwargs, independent of insertion order
  and safe for unhashable values;
* :mod:`repro.perf.bench` — the wall-clock benchmark harness behind
  ``python -m repro bench`` (imported lazily; it pulls in the figure
  generators).

The consumers are the GPU profile-run autotuner (:mod:`repro.gpu.autotune`,
branch-and-bound pruned sweep), the ARM static scheduler memo
(:mod:`repro.arm.cost_model`) and the per-layer figure sweeps
(:mod:`repro.figures`, :mod:`repro.runtime.executor`).
"""

from __future__ import annotations

from .cache import PersistentCache, code_fingerprint, stable_hash

__all__ = [
    "PersistentCache",
    "stable_hash",
    "code_fingerprint",
]
