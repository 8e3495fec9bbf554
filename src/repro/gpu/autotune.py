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
* **vectorized, batched candidate pricing** — the population is priced
  through :mod:`repro.gpu.vecmodel`'s structure-of-arrays twin of the
  cost model (bit-identical per element): one batched call for every
  lower bound, then numpy-sized pricing rounds with the pruning cutoff
  applied as an array mask.  :func:`autotune_many` runs up to
  ``_PASS_SWEEPS`` sweeps through each of those numpy passes (the GPU
  backend's prewarm hands it a whole network at once); every sweep keeps
  its own cutoff, tallies and cache entries, so a batched sweep returns
  exactly what the one-shape :func:`autotune` does;
* **a persistent content-addressed cache** — results are memoized on disk
  (:class:`repro.perf.PersistentCache`, ``REPRO_CACHE_DIR`` overrides the
  location) keyed by a :func:`repro.perf.stable_hash` of shape, bits,
  device, kernel kwargs *and a fingerprint of the cost-model code*, so
  editing the model invalidates stale entries.

A fourth layer keeps long sweeps alive when individual profile runs
misbehave (TVM-style candidate isolation — Cowan et al. survive thousands
of failing template instantiations by skipping them):

* **hardened profile runs** — quarantined candidates, lanes the legality
  mask rejects and lanes the active fault plan selects at
  ``autotune.profile`` (a per-lane mask: selection hashes seed, site and
  key) go through :func:`repro.resilience.policy.call_with_policy`
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

``autotune_reference`` keeps the original exhaustive loop as the
equivalence oracle for tests; nothing in production calls it.  Its
profile runs wear the same retry armor so a seeded chaos plan cannot
kill the oracle either.
"""

from __future__ import annotations

import contextlib
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
from .pipelinemodel import GpuKernelPerf, conv_gemm_shape, kernel_time
from .tiling import TilingParams, search_space, search_space_size
from .vecmodel import (
    GemmArrays,
    TilingArrays,
    kernel_lower_bound_batch,
    kernel_time_batch,
)

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
# Caches and options
# ---------------------------------------------------------------------------

_MEM_CACHE: dict[str, AutotuneResult] = {}
#: sweep key -> :func:`_sweep_digest`, so each distinct sweep is hashed once
_DIGESTS: dict[tuple, str] = {}
_SPACE_CACHE: dict[tuple[int, GpuDevice], tuple[list[TilingParams], TilingArrays]] = {}
_STORE = PersistentCache("gpu-autotune")
_QUARANTINE = Quarantine("autotune.profile")

_FINGERPRINT: str | None = None


def _code_version() -> str:
    global _FINGERPRINT
    if _FINGERPRINT is None:
        from . import device, mma, pipelinemodel, tiling, vecmodel

        import sys

        _FINGERPRINT = code_fingerprint(
            [tiling, pipelinemodel, vecmodel, device, mma, sys.modules[__name__]]
        )
    return _FINGERPRINT


def clear_cache(*, persistent: bool = False) -> None:
    """Drop memoized autotune results (the memo and the store's index
    always; the on-disk store too with ``persistent=True``) and release
    quarantined candidates.  Public for tests and the chaos scenarios."""
    _MEM_CACHE.clear()
    _DIGESTS.clear()
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


@dataclass(frozen=True)
class AutotuneOptions:
    """Session-wide search-engine switches (see :func:`autotune_options`)."""

    prune: bool = True
    persistent: bool = True


_OPTIONS = AutotuneOptions()


@contextlib.contextmanager
def autotune_options(
    *,
    prune: bool | None = None,
    persistent: bool | None = None,
):
    """Temporarily override engine defaults (tests); process-wide,
    so configure it around a run, not from inside concurrent callers."""
    global _OPTIONS
    prev = _OPTIONS
    _OPTIONS = AutotuneOptions(
        prune=prev.prune if prune is None else prune,
        persistent=prev.persistent if persistent is None else persistent,
    )
    try:
        yield _OPTIONS
    finally:
        _OPTIONS = prev


def _legal_candidates(
    bits: int, device: GpuDevice
) -> tuple[list[TilingParams], TilingArrays]:
    """The legal search space plus its SoA decomposition, memoized per
    (bits, device) — legality does not depend on the GEMM shape, so
    validating (and columnizing) it once per process is free speedup for
    every per-layer sweep."""
    entry = _SPACE_CACHE.get((bits, device))
    if entry is None:
        space = list(search_space(bits, device=device))
        entry = _SPACE_CACHE.setdefault(
            (bits, device), (space, TilingArrays.from_params(space)))
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
    device: GpuDevice,
    *,
    prune: bool,
    kernel_kwargs: dict,
) -> list[AutotuneResult | AutotuneError]:
    """Best-bound-first sweeps of ``gemms`` (one bit width and kernel
    kwargs) sharing every numpy pass.

    One :func:`~repro.gpu.vecmodel.kernel_lower_bound_batch` call bounds
    every (shape, candidate) pair and a stable row-wise argsort orders
    each shape's candidates by ``(bound, index)``.  Each round prices
    every unfinished shape's next slice of that order in one
    :func:`~repro.gpu.vecmodel.kernel_time_batch` call over per-lane GEMM
    dimensions, after masking out lanes whose bound exceeds the shape's
    own incumbent; a shape stops once its next-smallest bound does.  A
    pruned candidate is then *strictly* slower than the incumbent, so
    pruning changes neither the winner nor the first-in-search-order
    tie-break, and with the batched model bit-identical to the scalar one
    each shape's result, tallies included, equals a sweep of it alone.

    Quarantined candidates, lanes the legality mask rejects (a legal
    tiling can still fail occupancy on an exotic device) and lanes the
    active fault plan selects at ``autotune.profile`` go through
    :func:`_guarded_profile`.  A shape with no survivor gets an
    :class:`AutotuneError` in its slot of the returned list.
    """
    with obs_trace.span(
        "autotune.search", bits=bits, sweeps=len(gemms), candidates=len(space),
    ):
        bounds = kernel_lower_bound_batch(
            GemmArrays.from_shapes(gemms, np.s_[:, None]), bits, arrays,
            device=device, **kernel_kwargs)
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
                cut = lane.best_key[0] if prune and lane.best_key else None
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
            priced = batch.legal
            if chaos:
                priced = priced & ~np.fromiter(
                    (plan.selects("autotune.profile", _candidate_key(
                        rounds[o][0].gemm, bits, space[i]))
                     for o, i in zip(owner, idx)),
                    dtype=bool, count=idx.size,
                )
            for j in np.flatnonzero(~priced):
                guarded(rounds[owner[j]][0], int(idx[j]))
            ok = np.flatnonzero(priced)
            totals = batch.total_cycles
            if observe_gaps:
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
            # inside the span: the sweep marker attaches to the search
            _count_sweep(result, engine="pruned")
            results.append(result)
    return results


def _count_sweep(result: AutotuneResult, *, engine: str) -> None:
    """Aggregate sweep tallies (once per profile sweep — never per item)."""
    obs_metrics.counter("autotune_sweeps", engine=engine).inc()
    obs_metrics.counter("autotune_candidates", engine=engine).inc(
        result.candidates)
    obs_metrics.counter("autotune_evaluated", engine=engine).inc(
        result.evaluated)
    obs_metrics.counter("autotune_pruned", engine=engine).inc(result.pruned)
    # marker: one per sweep, addressable next to its spans
    obs_trace.instant(
        "autotune.sweep", cat="autotune", engine=engine,
        gemm=f"{result.gemm.m}x{result.gemm.k}x{result.gemm.n}",
        bits=result.bits, candidates=result.candidates,
        evaluated=result.evaluated, pruned=result.pruned,
        skipped=result.skipped, best_cycles=result.best_cycles,
    )


def autotune_reference(
    gemm: GemmShape,
    bits: int,
    *,
    device: GpuDevice = TU102,
    **kernel_kwargs,
) -> AutotuneResult:
    """The original serial exhaustive sweep, kept as the tests' oracle:
    no pruning, no batching, no caching of any kind, and no production
    caller.  ``benchmarks/test_autotune_engine_speedup.py`` times the
    engine against it.  Profile runs wear the same retry/quarantine armor
    as the engine so a chaos plan degrades the oracle identically instead
    of killing it."""
    best: TilingParams | None = None
    best_perf: GpuKernelPerf | None = None
    policy = ExecPolicy.resolve()
    count = 0
    evaluated = 0
    skipped = 0
    with obs_trace.span(
        "autotune.reference", gemm=f"{gemm.m}x{gemm.k}x{gemm.n}", bits=bits
    ):
        for tiling in search_space(bits, device=device):
            count += 1
            perf = _guarded_profile(
                gemm, bits, tiling, device, policy, kernel_kwargs)
            if perf is None:
                skipped += 1
                continue
            evaluated += 1
            if best_perf is None or perf.total_cycles < best_perf.total_cycles:
                best, best_perf = tiling, perf
    if count == 0:
        raise _no_legal_tiling_error(gemm, bits, device)
    if best is None or best_perf is None:
        raise AutotuneError(
            f"reference sweep for {gemm} at {bits}-bit on {device.name} "
            f"produced no survivor: {skipped} of {count} candidates failed "
            f"permanently (quarantined)"
        )
    result = AutotuneResult(
        gemm=gemm, bits=bits, best=best, best_perf=best_perf,
        candidates=count, evaluated=evaluated, pruned=0, skipped=skipped,
    )
    _count_sweep(result, engine="reference")  # reference span already closed
    return result


def _sweep_digest(
    gemm: GemmShape, bits: int, device: GpuDevice, kernel_kwargs: dict
) -> str:
    return stable_hash({
        "gemm": [gemm.m, gemm.k, gemm.n],
        "bits": bits,
        "device": device,
        "kwargs": kernel_kwargs,
        "code": _code_version(),
    })


def _digest_of(
    gemm: GemmShape, bits: int, device: GpuDevice, kernel_kwargs: dict
) -> str:
    """:func:`_sweep_digest` memoized on the sweep key, value types included
    (the digest tells 1, 1.0 and True apart); unhashable kwargs hash anew."""
    key = (gemm, bits, device, tuple(sorted(
        (name, type(value), value) for name, value in kernel_kwargs.items())))
    try:
        digest = _DIGESTS.get(key)
    except TypeError:  # an unhashable kwarg value
        return _sweep_digest(gemm, bits, device, kernel_kwargs)
    if digest is None:
        digest = _DIGESTS[key] = _sweep_digest(gemm, bits, device, kernel_kwargs)
    return digest


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
    prune: bool | None = None,
    persistent: bool | None = None,
) -> list[AutotuneResult]:
    """The results of many ``(gemm, bits, kernel_kwargs)`` sweeps, in order.

    Each distinct sweep (by cache key) is answered once: from the
    in-process memo, from the disk store, or — for the misses — by
    :func:`_search` passes of up to ``_PASS_SWEEPS`` sweeps that share bit
    width and kernel kwargs.  Every result, tallies included, equals what
    the one-shape :func:`autotune` returns.  A failing sweep does not stop
    the others: they are all memoized and stored, as one batch, first,
    then the error of the first failing sweep in ``sweeps`` is raised.
    """
    opts = _OPTIONS
    prune = opts.prune if prune is None else prune
    persistent = opts.persistent if persistent is None else persistent
    digests = [_digest_of(g, b, device, kw) for g, b, kw in sweeps]
    outcome: dict[str, AutotuneResult | AutotuneError | None] = {
        digest: _MEM_CACHE.get(digest) for digest in digests}
    todo = {d: sweep for d, sweep in zip(digests, sweeps) if outcome[d] is None}
    stored = _STORE.get_many(todo) if persistent else [None] * len(todo)
    groups: dict[tuple[int, str], list[tuple[str, GemmShape, dict]]] = {}
    for (digest, (gemm, bits, kwargs)), data in zip(todo.items(), stored):
        outcome[digest] = _from_store(digest, data, gemm, bits)
        if outcome[digest] is None:  # computed below
            groups.setdefault((bits, repr(sorted(kwargs.items()))), []).append(
                (digest, gemm, kwargs))
    new: list[tuple[str, AutotuneResult]] = []
    try:
        for (bits, _), members in groups.items():
            space, arrays = _legal_candidates(bits, device)
            kwargs = members[0][2]
            for start in range(0, len(members), _PASS_SWEEPS):
                part = members[start:start + _PASS_SWEEPS]
                gemms = [gemm for _, gemm, _ in part]
                found = (_search(gemms, bits, space, arrays, device,
                                 prune=prune, kernel_kwargs=kwargs)
                         if space else
                         [_no_legal_tiling_error(g, bits, device) for g in gemms])
                for (digest, _, _), result in zip(part, found):
                    if isinstance(result, AutotuneResult):
                        result = _MEM_CACHE.setdefault(digest, result)
                        new.append((digest, result))
                    outcome[digest] = result
    finally:
        if persistent:
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
    prune: bool | None = None,
    persistent: bool | None = None,
    **kernel_kwargs,
) -> AutotuneResult:
    """Sweep every legal tiling, profile each, return the fastest: the
    one-sweep call of :func:`autotune_many`.  ``prune``/``persistent``
    override the engine defaults (see :func:`autotune_options`); other
    keywords go to :func:`~repro.gpu.pipelinemodel.kernel_time` and into
    the cache key.
    """
    [result] = autotune_many(
        [(gemm, bits, kernel_kwargs)],
        device=device, prune=prune, persistent=persistent)
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
