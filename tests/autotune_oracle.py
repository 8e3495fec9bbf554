"""The exhaustive serial autotune sweep, and a route to it.

:func:`autotune_reference` is the tests' oracle for the autotuner's
engine: it profiles every legal tiling one at a time through
:func:`~repro.gpu.pipelinemodel.kernel_time`, with no pruning, no
batching and no caching of any kind.  Every production search goes
through :func:`repro.gpu.autotune.autotune_many`: the one-shape
:func:`~repro.gpu.autotune.autotune`, the figures and the GPU backend's
prewarm.  :func:`route_to_reference` swaps it, for one test, for
reference sweeps memoized in-process per distinct sweep, so whatever the
test then regenerates is the oracle's answer
(``tests/test_vector_pricing.py``,
``benchmarks/test_autotune_engine_speedup.py``).
"""

from __future__ import annotations

import importlib

from repro.errors import AutotuneError
from repro.gpu.device import TU102, GpuDevice
from repro.gpu.tiling import search_space
from repro.obs import trace as obs_trace
from repro.resilience.policy import ExecPolicy
from repro.types import GemmShape

# the module, not the package's ``autotune`` function of the same name
autotune_mod = importlib.import_module("repro.gpu.autotune")


def autotune_reference(
    gemm: GemmShape,
    bits: int,
    *,
    device: GpuDevice = TU102,
    **kernel_kwargs,
):
    """The serial exhaustive sweep.  Profile runs wear the engine's
    retry/quarantine armor, so a chaos plan degrades the oracle the way
    it degrades the engine instead of killing it."""
    best = best_perf = None
    policy = ExecPolicy.resolve()
    count = 0
    evaluated = 0
    skipped = 0
    with obs_trace.span(
        "autotune.reference", gemm=f"{gemm.m}x{gemm.k}x{gemm.n}", bits=bits
    ):
        for tiling in search_space(bits, device=device):
            count += 1
            perf = autotune_mod._guarded_profile(
                gemm, bits, tiling, device, policy, kernel_kwargs)
            if perf is None:
                skipped += 1
                continue
            evaluated += 1
            if best_perf is None or perf.total_cycles < best_perf.total_cycles:
                best, best_perf = tiling, perf
    if count == 0:
        raise autotune_mod._no_legal_tiling_error(gemm, bits, device)
    if best is None or best_perf is None:
        raise AutotuneError(
            f"reference sweep for {gemm} at {bits}-bit on {device.name} "
            f"produced no survivor: {skipped} of {count} candidates failed "
            f"permanently (quarantined)"
        )
    result = autotune_mod.AutotuneResult(
        gemm=gemm, bits=bits, best=best, best_perf=best_perf,
        candidates=count, evaluated=evaluated, pruned=0, skipped=skipped,
    )
    # reference span already closed
    autotune_mod._count_sweeps([result], engine="reference")
    return result


def route_to_reference(monkeypatch) -> None:
    """Answer every ``autotune_many`` call with reference sweeps until
    ``monkeypatch`` undoes it."""
    memo = {}

    def reference_many(sweeps, *, device=TU102):
        out = []
        for gemm, bits, kwargs in sweeps:
            digest = autotune_mod._sweep_digest(gemm, bits, device, kwargs)
            if digest not in memo:
                memo[digest] = autotune_reference(
                    gemm, bits, device=device, **kwargs)
            out.append(memo[digest])
        return out

    monkeypatch.setattr(autotune_mod, "autotune_many", reference_many)
