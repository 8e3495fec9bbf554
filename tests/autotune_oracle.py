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

:func:`search_by_lanes` is the oracle for one search pass: it runs the
pass's sweeps a lane object each, with its own float argsort of the
candidates' bounds, its own windows and its own incumbent, where the
engine runs them as one array program.  It reads the
lower bound, the batch pricer and the round widths from the engine's
module at call time, so a test's monkeypatch of any of them applies to
both (``tests/test_autotune_pass.py``,
``benchmarks/test_autotune_engine_networks.py``).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np

from repro.errors import AutotuneError
from repro.gpu.device import TU102, GpuDevice
from repro.gpu.pipelinemodel import GemmArrays, GpuKernelPerf
from repro.gpu.tiling import search_space
from repro.obs import trace as obs_trace
from repro.resilience import faults as res_faults
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


@dataclass
class _Lane:
    """One sweep's search state inside :func:`search_by_lanes`: its row
    of lower bounds, its candidates in ascending (bound, index) order, and
    its incumbent ``(total_cycles, index)``."""

    gemm: GemmShape
    bounds: np.ndarray
    order: np.ndarray
    pos: int = 0
    best_key: tuple[float, int] | None = None
    best_perf: GpuKernelPerf | None = None
    evaluated: int = 0
    skipped: int = 0

    def offer(self, cycles: float, i: int, perf: GpuKernelPerf) -> None:
        if self.best_key is None or (cycles, i) < self.best_key:
            self.best_key, self.best_perf = (cycles, i), perf


def search_by_lanes(gemms, bits, space, arrays, blocks, block_of, device,
                    kernel_kwargs):
    """One search pass over ``gemms``, a lane per sweep: the arguments and
    the returned list of ``autotune_mod._search``.  Every lane sorts its
    gathered bounds with a stable float argsort, walks its own windows,
    prunes with its own incumbent and offers its candidates one by one;
    quarantined candidates and fault-selected ones go through
    ``_guarded_profile``.  Records no counters or spans of its own."""
    bounds = autotune_mod.kernel_lower_bound(
        GemmArrays.from_shapes(gemms, np.s_[:, None]), bits, blocks,
        device=device, **kernel_kwargs)[:, block_of]
    lanes = [_Lane(g, b, o) for g, b, o in
             zip(gemms, bounds, np.argsort(bounds, axis=1, kind="stable"))]
    policy = ExecPolicy.resolve()
    plan = res_faults.active_plan()
    chaos = any(r.matches("autotune.profile") for r in plan.rules)
    quarantine = autotune_mod.profile_quarantine()

    def guarded(lane, i):
        perf = autotune_mod._guarded_profile(
            lane.gemm, bits, space[i], device, policy, kernel_kwargs)
        if perf is None:  # quarantined: search the survivors
            lane.skipped += 1
        else:
            lane.evaluated += 1
            lane.offer(perf.total_cycles, i, perf)

    if len(quarantine):
        for lane in lanes:
            quarantined = np.array([
                quarantine.contains(autotune_mod._candidate_key(lane.gemm, bits, t))
                for t in space], dtype=bool)
            for i in np.flatnonzero(quarantined):
                guarded(lane, int(i))
            lane.order = lane.order[~quarantined[lane.order]]

    active, width = lanes, autotune_mod._VEC_CHUNK_INIT
    while active:
        rounds = []
        for lane in active:
            cut = lane.best_key[0] if lane.best_key else None
            if lane.pos >= lane.order.size or (
                    cut is not None and lane.bounds[lane.order[lane.pos]] > cut):
                continue  # sorted bounds: every remaining candidate is slower
            live = lane.order[lane.pos:lane.pos + width]
            lane.pos += live.size
            rounds.append((lane, live if cut is None
                           else live[lane.bounds[live] <= cut]))
        active, width = [lane for lane, _ in rounds], autotune_mod._VEC_CHUNK
        rounds = [(lane, live) for lane, live in rounds if live.size]
        if not rounds:
            continue
        idx = np.concatenate([live for _, live in rounds])
        owner = np.repeat(np.arange(len(rounds)), [live.size for _, live in rounds])
        batch = autotune_mod.kernel_time_batch(
            GemmArrays.from_shapes([lane.gemm for lane, _ in rounds], owner),
            bits, arrays.take(idx), device=device, **kernel_kwargs)
        ok = np.arange(idx.size)
        if chaos:
            routed = np.array([
                plan.selects("autotune.profile", autotune_mod._candidate_key(
                    rounds[o][0].gemm, bits, space[i]))
                for o, i in zip(owner, idx)], dtype=bool)
            for j in np.flatnonzero(routed):
                guarded(rounds[owner[j]][0], int(idx[j]))
            ok = ok[~routed]
        totals = batch.total_cycles
        for j in ok:
            lane = rounds[owner[j]][0]
            lane.evaluated += 1
            lane.offer(float(totals[j]), int(idx[j]), batch.perf_at(j))

    results = []
    for lane in lanes:
        if lane.best_perf is None:
            results.append(AutotuneError(
                f"autotune sweep for {lane.gemm} at {bits}-bit on "
                f"{device.name} produced no survivor: {lane.skipped} of "
                f"{len(space)} candidates failed permanently (quarantined)"
            ))
            continue
        results.append(autotune_mod.AutotuneResult(
            gemm=lane.gemm, bits=bits, best=lane.best_perf.tiling,
            best_perf=lane.best_perf, candidates=len(space),
            evaluated=lane.evaluated,
            pruned=len(space) - lane.evaluated - lane.skipped,
            skipped=lane.skipped,
        ))
    return results
