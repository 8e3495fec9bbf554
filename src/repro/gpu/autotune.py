"""Profile-run auto-search over tiling parameters (Sec. 5.1 / Fig. 11).

"To determine the optimal tiling parameters ... we use C++ template to
generate multiple kernels with different combinations of tiling parameters
and choose the best ones through profile runs."  Here a profile run is an
evaluation of the performance simulator; the search covers the same
exhaustive grid of legal template instantiations, and the result is cached
per GEMM shape ("the optimal tiling parameters only need to be determined
once per convolution shape").

Three layers make the search fast without changing its answer:

* **branch-and-bound pruning** — candidates are sorted by the admissible
  :func:`~repro.gpu.pipelinemodel.kernel_lower_bound` (compute-only and
  bandwidth-only floors); once the incumbent beats every remaining bound
  the sweep stops.  The bound never exceeds the achieved time, so the
  winner — including the tie-break on search-space order — is identical
  to the exhaustive sweep's;
* **vectorized, batched candidate pricing** — the legal population is
  priced as a :class:`~repro.gpu.tiling.TilingArrays` through the same
  cost-model terms that price one tiling
  (:mod:`repro.gpu.pipelinemodel`, bit-identical per lane): one batched
  call bounds the space's distinct ``(m_tile, n_tile, k_tile)`` blocks
  (72 of TU102's 632 candidates; the bound reads no other field) and a
  gather hands each candidate its block's bound, then numpy-sized pricing
  rounds apply the pruning cutoff as an array mask.  :func:`autotune_many`
  runs up to ``_PASS_SWEEPS`` sweeps through each of those numpy passes
  (the GPU backend's prewarm hands it a whole network at once); every
  sweep keeps its own cutoff, tallies and cache entries, so a batched
  sweep returns exactly what the one-shape :func:`autotune` does;
* **a persistent content-addressed cache** — results are memoized in the
  process and on disk (:class:`repro.perf.PersistentCache`,
  ``REPRO_CACHE_DIR`` overrides the location), keyed by one sha256 over
  shape, bits and the :func:`repro.perf.stable_hash` of the sweep's
  context: device, kernel kwargs *and a fingerprint of the cost-model
  code*, so editing the model invalidates stale entries.  The context is
  canonicalized once per distinct device and kwargs, and a call whose
  every sweep hits the in-process memo does not touch the store.

A fourth layer keeps long sweeps alive when individual profile runs
misbehave (TVM-style candidate isolation — Cowan et al. survive thousands
of failing template instantiations by skipping them):

* **hardened profile runs** — quarantined candidates and lanes the active
  fault plan selects at ``autotune.profile`` (a per-lane mask: selection
  hashes seed, site and key) go through
  :func:`repro.resilience.policy.call_with_policy`
  instead of the numpy pass: per-attempt timeout
  (``REPRO_TIMEOUT_S``), bounded retry with exponential backoff
  (``REPRO_RETRY`` / ``REPRO_BACKOFF_S``), and the deterministic
  ``autotune.profile`` fault-injection site.  A candidate that fails
  permanently lands in a :class:`~repro.resilience.policy.Quarantine`
  (skipped by this and every later sweep in the process), the search
  continues over the survivors, and the result carries a ``skipped``
  tally — the sweep is *never* silently empty: if every candidate dies
  the sweep raises :class:`~repro.errors.AutotuneError`.  When retries
  absorb every (transient) fault, the result — winner, cycle breakdown
  and tallies — equals the fault-free sweep's; the chaos suite asserts it.

The search space holds only tilings :func:`~repro.gpu.tiling.validate_tiling`
accepts on the device, resident blocks included, so a profile run fails
only by a fault.  The exhaustive serial sweep is the tests' oracle
(``tests/autotune_oracle.py``); nothing in production calls it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AutotuneError
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..perf.cache import PersistentCache, code_fingerprint, stable_hash
from ..resilience import faults as res_faults
from ..resilience.policy import (
    ExecPolicy,
    PermanentFailure,
    Quarantine,
    call_with_policy,
)
from ..types import ConvSpec, GemmShape
from .device import GpuDevice, TU102
from .pipelinemodel import (
    GemmArrays,
    GpuKernelPerf,
    conv_gemm_shape,
    kernel_lower_bound,
    kernel_time,
    kernel_time_batch,
)
from .tiling import TilingArrays, TilingParams, search_space, search_space_size

#: the first pricing round of every sweep: small enough that the incumbent
#: it establishes (from the best-bound candidates) prunes most of the
#: space, large enough to amortize one numpy dispatch
_VEC_CHUNK_INIT = 64

#: candidates priced per sweep and round after the incumbent exists
_VEC_CHUNK = 2048

#: sweeps sharing one numpy pass: enough to amortize the per-call numpy
#: overhead, few enough that a pass's (sweeps x candidates) arrays stay
#: small
_PASS_SWEEPS = 16


@dataclass(frozen=True)
class AutotuneResult:
    """Best configuration found by the profile sweep.

    ``candidates`` counts the legal search space; ``evaluated`` the
    profile runs actually performed, ``pruned`` the candidates skipped
    because their lower bound already exceeded the incumbent, and
    ``skipped`` the candidates dropped because their profile runs failed
    permanently (quarantined — see the module docstring).
    ``evaluated + pruned + skipped == candidates``; a clean exhaustive
    sweep has ``pruned == skipped == 0``.
    """

    gemm: GemmShape
    bits: int
    best: TilingParams
    best_perf: GpuKernelPerf
    candidates: int
    evaluated: int = 0
    pruned: int = 0
    skipped: int = 0

    @property
    def best_cycles(self) -> float:
        return self.best_perf.total_cycles

    def to_json(self) -> dict:
        p = self.best_perf
        return {
            "gemm": [self.gemm.m, self.gemm.k, self.gemm.n],
            "bits": self.bits,
            "best": _tiling_to_json(self.best),
            "best_perf": {
                "tiling": _tiling_to_json(p.tiling),
                "bits": p.bits,
                "compute_cycles": p.compute_cycles,
                "dram_cycles": p.dram_cycles,
                "smem_cycles": p.smem_cycles,
                "launch_cycles": p.launch_cycles,
                "blocks": p.blocks,
                "blocks_per_sm": p.blocks_per_sm,
                "occupancy": p.occupancy,
                "overlapped": p.overlapped,
            },
            "candidates": self.candidates,
            "evaluated": self.evaluated,
            "pruned": self.pruned,
            "skipped": self.skipped,
        }

    @classmethod
    def from_json(cls, data: dict) -> "AutotuneResult":
        gemm = GemmShape(*(int(v) for v in data["gemm"]))
        perf = data["best_perf"]
        best_perf = GpuKernelPerf(
            gemm=gemm,
            tiling=_tiling_from_json(perf["tiling"]),
            bits=int(perf["bits"]),
            compute_cycles=float(perf["compute_cycles"]),
            dram_cycles=float(perf["dram_cycles"]),
            smem_cycles=float(perf["smem_cycles"]),
            launch_cycles=float(perf["launch_cycles"]),
            blocks=int(perf["blocks"]),
            blocks_per_sm=int(perf["blocks_per_sm"]),
            occupancy=float(perf["occupancy"]),
            overlapped=bool(perf["overlapped"]),
        )
        return cls(
            gemm=gemm,
            bits=int(data["bits"]),
            best=_tiling_from_json(data["best"]),
            best_perf=best_perf,
            candidates=int(data["candidates"]),
            evaluated=int(data["evaluated"]),
            pruned=int(data["pruned"]),
            skipped=int(data.get("skipped", 0)),
        )


def _tiling_to_json(t: TilingParams) -> list[int]:
    return [t.m_tile, t.n_tile, t.k_tile, t.k_step,
            t.block_row_warps, t.block_col_warps]


def _tiling_from_json(v: list) -> TilingParams:
    return TilingParams(*(int(x) for x in v))


# ---------------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------------

_MEM_CACHE: dict[str, AutotuneResult] = {}
#: (device, kernel kwargs with their value types) -> the sweep context's
#: :func:`stable_hash`, so each distinct context is canonicalized once
_CONTEXTS: dict[tuple, str] = {}
_SPACE_CACHE: dict[tuple[int, GpuDevice], tuple] = {}
_STORE = PersistentCache("gpu-autotune")
_QUARANTINE = Quarantine("autotune.profile")

_FINGERPRINT: str | None = None


def _fingerprinted() -> list:
    """Every module a stored result depends on: the cost model and the
    search space, what they import (the device, the mma shapes and the
    GEMM shape), and this module's search."""
    import sys

    from .. import types
    from . import device, mma, pipelinemodel, tiling

    return [tiling, pipelinemodel, device, mma, types, sys.modules[__name__]]


def _code_version() -> str:
    global _FINGERPRINT
    if _FINGERPRINT is None:
        _FINGERPRINT = code_fingerprint(_fingerprinted())
    return _FINGERPRINT


def clear_cache(*, persistent: bool = False) -> None:
    """Drop memoized autotune results (the memo and the store's index
    always; the on-disk store too with ``persistent=True``) and release
    quarantined candidates.  Public for tests and the chaos scenarios."""
    _MEM_CACHE.clear()
    _CONTEXTS.clear()
    _QUARANTINE.clear()
    _STORE.drop_index()
    if persistent:
        _STORE.clear()


def cache_store() -> PersistentCache:
    """The persistent store (exposed for stats introspection)."""
    return _STORE


def profile_quarantine() -> Quarantine:
    """Candidates whose profile runs failed permanently this process
    (exposed for chaos tests and the ``repro chaos`` report)."""
    return _QUARANTINE


def _legal_candidates(
    bits: int, device: GpuDevice
) -> tuple[list[TilingParams], TilingArrays, TilingArrays, np.ndarray]:
    """The legal search space, its SoA decomposition, its distinct
    ``(m_tile, n_tile, k_tile)`` blocks (one representative each, the
    first in search order) and each candidate's block index, memoized per
    (bits, device) — legality does not depend on the GEMM shape, so
    validating (and columnizing) it once per process is free speedup for
    every per-layer sweep.  :func:`kernel_lower_bound` reads no other
    field, so a block's bound is each of its candidates' own."""
    entry = _SPACE_CACHE.get((bits, device))
    if entry is None:
        space = list(search_space(bits, device=device))
        first: dict[tuple[int, int, int], int] = {}  # block -> first candidate
        for i, t in enumerate(space):
            first.setdefault((t.m_tile, t.n_tile, t.k_tile), i)
        number = {block: b for b, block in enumerate(first)}
        block_of = np.array(
            [number[t.m_tile, t.n_tile, t.k_tile] for t in space], dtype=np.intp)
        arrays = TilingArrays.from_params(space)
        entry = _SPACE_CACHE.setdefault((bits, device), (
            space, arrays, arrays.take(list(first.values())), block_of))
    return entry


def _no_legal_tiling_error(
    gemm: GemmShape, bits: int, device: GpuDevice
) -> AutotuneError:
    return AutotuneError(
        f"no legal tiling for {gemm} at {bits}-bit on {device.name}: "
        f"0 of {search_space_size(bits)} template instantiations fit the "
        f"device limits"
    )


# ---------------------------------------------------------------------------
# Search engines
# ---------------------------------------------------------------------------


def _candidate_key(gemm: GemmShape, bits: int, tiling: TilingParams) -> str:
    """Stable quarantine/fault key for one profile run."""
    return (f"{gemm.m}x{gemm.k}x{gemm.n}/{bits}b/"
            f"{'-'.join(str(v) for v in _tiling_to_json(tiling))}")


def _guarded_profile(
    gemm: GemmShape,
    bits: int,
    tiling: TilingParams,
    device: GpuDevice,
    policy: ExecPolicy,
    kernel_kwargs: dict,
) -> GpuKernelPerf | None:
    """One profile run under the hardened policy.

    Returns ``None`` when the candidate is (or becomes) quarantined:
    already-quarantined candidates are skipped for free, and a run that
    exhausts its retries quarantines the candidate so later sweeps never
    pay for it again.  Transient failures absorbed by a retry leave no
    trace in the result — the winner is identical to a fault-free sweep.
    """
    key = _candidate_key(gemm, bits, tiling)
    if _QUARANTINE.contains(key):
        obs_metrics.counter("autotune_skipped", reason="quarantined").inc()
        return None

    def attempt() -> GpuKernelPerf:
        # inside the retry boundary so a transient injected fault is
        # re-rolled (its `times` budget drains) on the next attempt
        res_faults.inject("autotune.profile", key=key)
        return kernel_time(gemm, bits, tiling, device=device, **kernel_kwargs)

    try:
        return call_with_policy(
            attempt, site="autotune.profile", key=key, policy=policy)
    except PermanentFailure as exc:
        _QUARANTINE.add(key, reason=f"{type(exc.last).__name__}: {exc.last}")
        obs_metrics.counter("autotune_skipped", reason="failed").inc()
        return None


@dataclass
class _Lane:
    """One sweep's search state inside a batched pass: its row of lower
    bounds, its candidates in ascending (bound, index) order, and its
    incumbent ``(total_cycles, index)``."""

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


def _search(
    gemms: Sequence[GemmShape],
    bits: int,
    space: list[TilingParams],
    arrays: TilingArrays,
    blocks: TilingArrays,
    block_of: np.ndarray,
    device: GpuDevice,
    kernel_kwargs: dict,
) -> list[AutotuneResult | AutotuneError]:
    """Best-bound-first sweeps of ``gemms`` (one bit width and kernel
    kwargs) sharing every numpy pass.

    One :func:`~repro.gpu.pipelinemodel.kernel_lower_bound` call bounds
    every (shape, block) pair, a gather through ``block_of`` gives each
    candidate its block's bound, and a stable row-wise argsort orders each
    shape's candidates by ``(bound, index)``.  Each round prices every
    unfinished shape's next slice of that order in one
    :func:`~repro.gpu.pipelinemodel.kernel_time_batch` call over per-lane
    GEMM dimensions, after masking out lanes whose bound exceeds the
    shape's own incumbent; a shape stops once its next-smallest bound
    does.  A pruned candidate is then *strictly* slower than the
    incumbent, so pruning changes neither the winner nor the
    first-in-search-order tie-break, and with each lane priced as the
    one-tiling call prices it, each shape's result, tallies included,
    equals a sweep of it alone.

    Quarantined candidates and lanes the active fault plan selects at
    ``autotune.profile`` go through :func:`_guarded_profile`.  A shape
    with no survivor gets an :class:`AutotuneError` in its slot of the
    returned list.
    """
    with obs_trace.span(
        "autotune.search", bits=bits, sweeps=len(gemms), candidates=len(space),
    ):
        bounds = kernel_lower_bound(
            GemmArrays.from_shapes(gemms, np.s_[:, None]), bits, blocks,
            device=device, **kernel_kwargs)[:, block_of]
        lanes = [_Lane(g, b, o) for g, b, o in
                 zip(gemms, bounds, np.argsort(bounds, axis=1, kind="stable"))]
        policy = ExecPolicy.resolve()
        plan = res_faults.active_plan()
        chaos = any(r.matches("autotune.profile") for r in plan.rules)
        # per-candidate bound-gap detail only under a trace capture:
        # observing one histogram per profile run is wasted work otherwise
        observe_gaps = obs_trace.active()

        def guarded(lane: _Lane, i: int) -> None:
            perf = _guarded_profile(
                lane.gemm, bits, space[i], device, policy, kernel_kwargs)
            if perf is None:  # quarantined: search the survivors
                lane.skipped += 1
            else:
                lane.evaluated += 1
                lane.offer(perf.total_cycles, i, perf)

        if len(_QUARANTINE):
            for lane in lanes:
                quarantined = np.fromiter(
                    (_QUARANTINE.contains(_candidate_key(lane.gemm, bits, t))
                     for t in space),
                    dtype=bool, count=len(space),
                )
                for i in np.flatnonzero(quarantined):
                    guarded(lane, int(i))
                lane.order = lane.order[~quarantined[lane.order]]

        active, width = lanes, _VEC_CHUNK_INIT
        while active:
            rounds: list[tuple[_Lane, np.ndarray]] = []
            for lane in active:
                cut = lane.best_key[0] if lane.best_key else None
                if lane.pos >= lane.order.size or (
                        cut is not None and lane.bounds[lane.order[lane.pos]] > cut):
                    continue  # sorted bounds: every remaining candidate is slower
                live = lane.order[lane.pos:lane.pos + width]
                lane.pos += live.size
                rounds.append((lane, live if cut is None
                               else live[lane.bounds[live] <= cut]))
            active, width = [lane for lane, _ in rounds], _VEC_CHUNK
            rounds = [(lane, live) for lane, live in rounds if live.size]
            if not rounds:
                continue
            idx = np.concatenate([live for _, live in rounds])
            owner = np.repeat(np.arange(len(rounds)), [live.size for _, live in rounds])
            batch = kernel_time_batch(
                GemmArrays.from_shapes([lane.gemm for lane, _ in rounds], owner),
                bits, arrays.take(idx), device=device, **kernel_kwargs)
            ok = np.arange(idx.size)
            if chaos:
                routed = np.fromiter(
                    (plan.selects("autotune.profile", _candidate_key(
                        rounds[o][0].gemm, bits, space[i]))
                     for o, i in zip(owner, idx)),
                    dtype=bool, count=idx.size,
                )
                for j in np.flatnonzero(routed):
                    guarded(rounds[owner[j]][0], int(idx[j]))
                ok = ok[~routed]
            totals = batch.total_cycles
            # no series for a round whose every lane went to the guard:
            # an empty histogram snapshots with min and max None
            if observe_gaps and ok.size:
                lower = np.concatenate([lane.bounds[live] for lane, live in rounds])
                hist = obs_metrics.histogram("autotune_bound_gap_cycles", bits=bits)
                for gap in (totals - lower)[ok]:
                    hist.observe(float(gap))
            # each shape's priced lanes, fastest first (ties: lowest index)
            ok = ok[np.lexsort((idx[ok], totals[ok], owner[ok]))]
            heads = np.flatnonzero(np.diff(owner[ok], prepend=-1))
            for head, n in zip(heads, np.diff(heads, append=ok.size)):
                j = int(ok[head])
                lane = rounds[owner[j]][0]
                lane.evaluated += int(n)
                lane.offer(float(totals[j]), int(idx[j]), batch.perf_at(j))

        results: list[AutotuneResult | AutotuneError] = []
        for lane in lanes:
            if lane.best_perf is None:
                # never silently empty: every candidate failed or was skipped
                results.append(AutotuneError(
                    f"autotune sweep for {lane.gemm} at {bits}-bit on "
                    f"{device.name} produced no survivor: {lane.skipped} of "
                    f"{len(space)} candidates failed permanently (quarantined)"
                ))
                continue
            result = AutotuneResult(
                gemm=lane.gemm,
                bits=bits,
                best=lane.best_perf.tiling,
                best_perf=lane.best_perf,
                candidates=len(space),
                evaluated=lane.evaluated,
                pruned=len(space) - lane.evaluated - lane.skipped,
                skipped=lane.skipped,
            )
            results.append(result)
        # inside the span: the sweep markers attach to the search
        _count_sweeps([r for r in results if isinstance(r, AutotuneResult)],
                      engine="pruned")
    return results


def _count_sweeps(results: Sequence[AutotuneResult], *, engine: str) -> None:
    """Aggregate sweep tallies, once per pass (never per sweep or item),
    and under a trace capture one marker per sweep."""
    if not results:
        return
    for name, value in (
            ("autotune_sweeps", len(results)),
            ("autotune_candidates", sum(r.candidates for r in results)),
            ("autotune_evaluated", sum(r.evaluated for r in results)),
            ("autotune_pruned", sum(r.pruned for r in results))):
        obs_metrics.counter(name, engine=engine).inc(value)
    if not obs_trace.active():
        return
    for result in results:  # addressable next to their spans
        obs_trace.instant(
            "autotune.sweep", cat="autotune", engine=engine,
            gemm=f"{result.gemm.m}x{result.gemm.k}x{result.gemm.n}",
            bits=result.bits, candidates=result.candidates,
            evaluated=result.evaluated, pruned=result.pruned,
            skipped=result.skipped, best_cycles=result.best_cycles,
        )


def _sweep_digest(
    gemm: GemmShape, bits: int, device: GpuDevice, kernel_kwargs: dict
) -> str:
    """A sweep's cache key: one sha256 over its context's digest, the
    shape and ``repr(bits)``.  The context (device, kernel kwargs and code
    version) is canonicalized once per distinct device and kwargs, value
    types included, so ``1``, ``1.0`` and ``True`` hash apart; a context
    with an unhashable kwarg value is canonicalized anew."""
    key = (device, tuple(sorted(
        (name, type(value), value) for name, value in kernel_kwargs.items())))
    try:
        context = _CONTEXTS[key]
    except (KeyError, TypeError) as exc:  # a new context, or unhashable
        context = stable_hash({"device": device, "kwargs": kernel_kwargs,
                               "code": _code_version()})
        if isinstance(exc, KeyError):
            _CONTEXTS[key] = context
    return hashlib.sha256(
        f"{context}/{gemm.m}x{gemm.k}x{gemm.n}/{bits!r}".encode()).hexdigest()


def _from_store(
    digest: str, data: dict | None, gemm: GemmShape, bits: int
) -> AutotuneResult | None:
    """The store's entry ``data`` for the sweep, memoized; None if stale."""
    if data is None:
        return None
    try:
        result = AutotuneResult.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        obs_log.debug(  # stale/foreign entry: recompute
            "autotune_cache_stale",
            logger="repro.gpu.autotune",
            digest=digest[:16], error=type(exc).__name__,
        )
        return None
    if result.gemm != gemm or result.bits != bits:
        return None
    return _MEM_CACHE.setdefault(digest, result)


def autotune_many(
    sweeps: Sequence[tuple[GemmShape, int, dict]],
    *,
    device: GpuDevice = TU102,
) -> list[AutotuneResult]:
    """The results of many ``(gemm, bits, kernel_kwargs)`` sweeps, in order.

    Each distinct sweep (by cache key) is answered once: from the
    in-process memo, from the disk store, or — for the misses — by
    :func:`_search` passes of up to ``_PASS_SWEEPS`` sweeps that share bit
    width and kernel kwargs.  Every result, tallies included, equals what
    the one-shape :func:`autotune` returns.  A sweep that lost candidates
    to quarantine (``skipped > 0``) is memoized, like the quarantine,
    but not stored: a later process without the faults searches again.
    A failing sweep does not stop the others: they are all memoized and
    stored, as one batch, first, then the error of the first failing
    sweep in ``sweeps`` is raised.
    """
    digests = [_sweep_digest(g, b, device, kw) for g, b, kw in sweeps]
    outcome: dict[str, AutotuneResult | AutotuneError | None] = {
        digest: _MEM_CACHE.get(digest) for digest in digests}
    todo = {d: sweep for d, sweep in zip(digests, sweeps) if outcome[d] is None}
    stored = _STORE.get_many(todo) if todo else []
    groups: dict[tuple[int, str], list[tuple[str, GemmShape, dict]]] = {}
    for (digest, (gemm, bits, kwargs)), data in zip(todo.items(), stored):
        outcome[digest] = _from_store(digest, data, gemm, bits)
        if outcome[digest] is None:  # computed below
            groups.setdefault((bits, repr(sorted(kwargs.items()))), []).append(
                (digest, gemm, kwargs))
    new: list[tuple[str, AutotuneResult]] = []
    try:
        for (bits, _), members in groups.items():
            space, arrays, blocks, block_of = _legal_candidates(bits, device)
            kwargs = members[0][2]
            for start in range(0, len(members), _PASS_SWEEPS):
                part = members[start:start + _PASS_SWEEPS]
                gemms = [gemm for _, gemm, _ in part]
                found = (_search(gemms, bits, space, arrays, blocks, block_of,
                                 device, kwargs)
                         if space else
                         [_no_legal_tiling_error(g, bits, device) for g in gemms])
                for (digest, _, _), result in zip(part, found):
                    if isinstance(result, AutotuneResult):
                        result = _MEM_CACHE.setdefault(digest, result)
                        if not result.skipped:
                            new.append((digest, result))
                    outcome[digest] = result
    finally:
        if new:
            _STORE.put_many((d, result.to_json()) for d, result in new)
    for digest in digests:
        if isinstance(outcome[digest], AutotuneError):
            raise outcome[digest]
    return [outcome[d] for d in digests]


def autotune(
    gemm: GemmShape,
    bits: int,
    *,
    device: GpuDevice = TU102,
    **kernel_kwargs,
) -> AutotuneResult:
    """Sweep every legal tiling, profile each, return the fastest: the
    one-sweep call of :func:`autotune_many`.  The keywords go to
    :func:`~repro.gpu.pipelinemodel.kernel_time` and into the cache key.
    """
    [result] = autotune_many([(gemm, bits, kernel_kwargs)], device=device)
    return result


def autotune_conv(
    spec: ConvSpec, bits: int, *, device: GpuDevice = TU102, **kernel_kwargs
) -> AutotuneResult:
    result = autotune(conv_gemm_shape(spec), bits, device=device, **kernel_kwargs)
    # per-layer cycle entry for the profile/metrics surface (idempotent)
    obs_metrics.gauge(
        "gpu_layer_cycles", layer=spec.name, bits=bits
    ).set(result.best_cycles)
    return result
