"""Route the autotuner's one production entry point to the reference sweep.

Every search goes through :func:`repro.gpu.autotune.autotune_many`: the
one-shape :func:`~repro.gpu.autotune.autotune`, the figures and the GPU
backend's prewarm.  :func:`route_to_reference` swaps it, for one test,
for :func:`~repro.gpu.autotune.autotune_reference`, the exhaustive serial
sweep, memoized in-process per distinct sweep.  Whatever the test then
regenerates is the oracle's answer (``tests/test_vector_pricing.py``,
``benchmarks/test_autotune_engine_speedup.py``).
"""

from __future__ import annotations

import importlib

from repro.gpu.device import TU102

# the module, not the package's ``autotune`` function of the same name
autotune_mod = importlib.import_module("repro.gpu.autotune")


def route_to_reference(monkeypatch) -> None:
    """Answer every ``autotune_many`` call with reference sweeps until
    ``monkeypatch`` undoes it; the prune and persistence switches do not
    apply to the oracle."""
    memo = {}

    def reference_many(sweeps, *, device=TU102, prune=None, persistent=None):
        del prune, persistent
        out = []
        for gemm, bits, kwargs in sweeps:
            digest = autotune_mod._sweep_digest(gemm, bits, device, kwargs)
            if digest not in memo:
                memo[digest] = autotune_mod.autotune_reference(
                    gemm, bits, device=device, **kwargs)
            out.append(memo[digest])
        return out

    monkeypatch.setattr(autotune_mod, "autotune_many", reference_many)
