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
* **one array program per search pass** — :func:`autotune_many` runs up
  to ``_PASS_SWEEPS`` sweeps of one bit width and kernel kwargs as one
  pass (the GPU backend's prewarm hands it a whole network at once),
  pricing :class:`~repro.gpu.tiling.TilingArrays` populations through the
  cost-model terms that price one tiling (:mod:`repro.gpu.pipelinemodel`,
  bit-identical per lane): one call bounds the space's distinct
  ``(m_tile, n_tile, k_tile)`` blocks (72 of TU102's 632 candidates; the
  bound reads no other field), each sweep orders its candidates by the
  rank of their block's bound, and lockstep rounds apply every sweep's
  own cutoff as one array mask.  Each sweep keeps its own incumbent,
  tallies and cache entries, so it returns exactly what the one-shape
  :func:`autotune` does;
* **a persistent content-addressed cache** — results are memoized in the
  process and on disk (:class:`repro.perf.PersistentCache`,
  ``REPRO_CACHE_DIR`` overrides the location), stored under one sha256
  over shape, bits and the :func:`repro.perf.stable_hash` of the sweep's
  context: device, kernel kwargs *and a fingerprint of the cost-model
  code*, so editing the model invalidates stale entries.  The context is
  canonicalized once per distinct device and kwargs, and a call whose
  every sweep hits the memo hashes nothing and does not touch the store.

A fourth layer keeps long sweeps alive when individual profile runs
misbehave (TVM-style candidate isolation — Cowan et al. survive thousands
of failing template instantiations by skipping them):

* **faults on the production path** — a candidate the active fault plan
  selects at ``autotune.profile`` (a per-candidate mask: selection hashes
  seed, site and key) runs its faults through :func:`_survives`, bounded
  retry under :func:`repro.resilience.policy.call_with_policy`
  (``REPRO_RETRY``, no backoff).  A survivor keeps its lane of the
  round's batch like any other candidate.  A candidate whose every
  attempt fails lands in a :class:`~repro.resilience.policy.Quarantine`
  (every later pass in the process skips it unpriced), the search
  continues over the survivors, and the result carries a ``skipped``
  tally — the sweep is *never* silently empty: if every candidate dies
  the sweep raises :class:`~repro.errors.AutotuneError`.  When retries
  absorb every (transient) fault, the result — winner, cycle breakdown
  and tallies — equals the fault-free sweep's; the chaos suite asserts
  it.

The search space holds only tilings :func:`~repro.gpu.tiling.validate_tiling`
accepts on the device, resident blocks included, so a profile run fails
only by a fault.  The tests' oracles, the exhaustive serial sweep and a
pass run lane by lane, live in ``tests/autotune_oracle.py``.
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
    BatchKernelPerf,
    GemmArrays,
    GpuKernelPerf,
    _perf,
    conv_gemm_shape,
    kernel_lower_bound,
    kernel_time_batch,
)
from .tiling import TilingArrays, TilingParams, search_space, search_space_size

#: the first pricing round of every sweep: small enough that the incumbent
#: it establishes (from the best-bound candidates) prunes most of the
#: space, large enough to amortize one numpy dispatch
_VEC_CHUNK_INIT = 64

#: candidates priced per sweep and round after the incumbent exists
_VEC_CHUNK = 2048

#: sweeps run as one pass: 16 measured slowest, 64 and 128 alike, and
#: 128 added 1.5 MB of peak RSS to 64's
_PASS_SWEEPS = 64


#: :class:`GpuKernelPerf`'s fields after its shape and tiling, in order,
#: and the casts that read them back from JSON
_PERF_FIELDS = {"bits": int, "compute_cycles": float, "dram_cycles": float,
                "smem_cycles": float, "launch_cycles": float, "blocks": int,
                "blocks_per_sm": int, "occupancy": float, "overlapped": bool}


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
            "best_perf": {"tiling": _tiling_to_json(p.tiling),
                          **{name: getattr(p, name) for name in _PERF_FIELDS}},
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
            gemm=gemm, tiling=_tiling_from_json(perf["tiling"]),
            **{name: cast(perf[name]) for name, cast in _PERF_FIELDS.items()})
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

#: :func:`_memo_key` -> result: a memo hit hashes nothing
_MEM_CACHE: dict[tuple, AutotuneResult] = {}
#: (device, kernel kwargs with their value types) -> the sweep context's
#: :func:`stable_hash`, so each distinct context is canonicalized once
_CONTEXTS: dict[tuple, str] = {}
_SPACE_CACHE: dict[tuple[int, GpuDevice], tuple] = {}
_STORE = PersistentCache("gpu-autotune")
_QUARANTINE = Quarantine("autotune.profile")

_FINGERPRINT: str | None = None


def _fingerprinted() -> list[str]:
    """Every module a stored result depends on: the cost model and the
    search space, what they import (the device, the mma shapes and the
    GEMM shape), and this module's search."""
    return ["repro.gpu.tiling", "repro.gpu.pipelinemodel", "repro.gpu.device",
            "repro.gpu.mma", "repro.types", __name__]


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


def _survives(
    gemm: GemmShape, bits: int, tiling: TilingParams, policy: ExecPolicy
) -> bool:
    """Whether a candidate's profile run survives its ``autotune.profile``
    faults under ``policy``'s retries.

    An already-quarantined candidate is skipped for free, and one whose
    every attempt fails is quarantined, so later sweeps never pay for it
    again.  Transient failures absorbed by a retry leave no trace: the
    survivor is priced like any other candidate.
    """
    key = _candidate_key(gemm, bits, tiling)
    if _QUARANTINE.contains(key):
        obs_metrics.counter("autotune_skipped", reason="quarantined").inc()
        return False
    try:
        # a transient fault is re-rolled (its `times` budget drains) on
        # each attempt
        call_with_policy(
            lambda: res_faults.inject("autotune.profile", key=key),
            site="autotune.profile", key=key, policy=policy)
    except PermanentFailure as exc:
        _QUARANTINE.add(key, reason=f"{type(exc.last).__name__}: {exc.last}")
        obs_metrics.counter("autotune_skipped", reason="failed").inc()
        return False
    return True


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
    kwargs), run in lockstep as one array program.

    One :func:`~repro.gpu.pipelinemodel.kernel_lower_bound` call bounds
    every (shape, block) pair.  Each shape keys its candidates by the
    dense rank of their block's bound, a small unsigned integer that
    numpy's stable sort orders by radix, in exactly the ``(bound, index)``
    order of a stable sort of the candidates' own bounds (quarantined
    candidates last).  Each round masks the same window of every
    unfinished shape's order by the shape's incumbent and prices what is
    left in one :func:`~repro.gpu.pipelinemodel.kernel_time_batch` call.
    A pruned candidate is *strictly* slower than the incumbent, so each
    shape's result, tallies and tie-break on search order included,
    equals a sweep of it alone.  A fault-selected candidate keeps its lane
    if :func:`_survives` says so; a shape with no survivor gets an
    :class:`AutotuneError` in its slot of the returned list.
    """
    count, size = len(gemms), len(space)
    with obs_trace.span(
        "autotune.search", bits=bits, sweeps=count, candidates=size,
    ):
        dims = GemmArrays.from_shapes(gemms, np.s_[:, None])
        block_bound = kernel_lower_bound(
            dims, bits, blocks, device=device, **kernel_kwargs)
        # each candidate's key: the dense rank of its block's bound
        by_bound = np.argsort(block_bound, axis=1)
        ranked = np.take_along_axis(block_bound, by_bound, axis=1)
        dtype = np.uint8 if len(blocks) < 256 else np.uint16
        rank = np.zeros(block_bound.shape, dtype)
        np.put_along_axis(rank, by_bound[:, 1:], np.cumsum(
            ranked[:, 1:] != ranked[:, :-1], axis=1, dtype=dtype), axis=1)
        key = rank[:, block_of]
        skipped = np.zeros(count, dtype=np.intp)
        if len(_QUARANTINE):
            quarantined = np.array(
                [[_QUARANTINE.contains(_candidate_key(gemm, bits, t))
                  for t in space] for gemm in gemms], dtype=bool)
            key[quarantined] = np.iinfo(dtype).max
            skipped += quarantined.sum(axis=1)
            if skipped.any():
                obs_metrics.counter(
                    "autotune_skipped", reason="quarantined").inc(int(skipped.sum()))
        order = np.argsort(key, axis=1, kind="stable")
        survivors = size - skipped

        plan = res_faults.active_plan()
        chaos = any(r.matches("autotune.profile") for r in plan.rules)
        policy = ExecPolicy.resolve()
        # per-candidate bound-gap detail only under a trace capture:
        # observing one histogram per profile run is wasted work otherwise
        observe_gaps = obs_trace.active()
        cut, best = np.full(count, np.inf), np.full(count, size)  # incumbents
        evaluated = np.zeros(count, dtype=np.intp)
        # each incumbent's round's batch and its lane in it
        won: list[tuple[BatchKernelPerf, int] | None] = [None] * count
        live, start, width = np.flatnonzero(survivors), 0, _VEC_CHUNK_INIT
        while start < size:
            # sorted bounds: a shape whose next candidate is past its
            # survivors or bounded above its incumbent is done
            next_bound = block_bound[live, block_of[order[live, start]]]
            live = live[(start < survivors[live]) & (next_bound <= cut[live])]
            if not live.size:
                break
            window = order[live, start:start + width]
            bound = block_bound[live[:, None], block_of[window]]
            rows, cols = np.nonzero(  # by shape, then by window position
                (np.arange(start, start + window.shape[1]) < survivors[live, None])
                & (bound <= cut[live, None]))
            start, width = start + width, _VEC_CHUNK
            owner, idx = live[rows], window[rows, cols]
            batch = kernel_time_batch(
                GemmArrays(dims.m[owner, 0], dims.k[owner, 0], dims.n[owner, 0]),
                bits, arrays.take(idx), device=device, **kernel_kwargs)
            ok = np.arange(idx.size)
            if chaos:
                lost = np.array([
                    plan.selects("autotune.profile", _candidate_key(gemms[s], bits, space[i]))
                    and not _survives(gemms[s], bits, space[i], policy)
                    for s, i in zip(owner.tolist(), idx.tolist())], dtype=bool)
                skipped += np.bincount(owner[lost], minlength=count)
                ok = ok[~lost]
            totals = batch.total_cycles
            # no series for a round whose every lane was lost to quarantine:
            # an empty histogram snapshots with min and max None
            if observe_gaps and ok.size:
                hist = obs_metrics.histogram("autotune_bound_gap_cycles", bits=bits)
                for gap in (totals - bound[rows, cols])[ok]:
                    hist.observe(float(gap))
            # each shape's fastest priced lanes (its run of ``ok``), then
            # the lowest index among them
            evaluated += np.bincount(owner[ok], minlength=count)
            starts = np.flatnonzero(np.diff(owner[ok], prepend=-1))
            fastest = np.minimum.reduceat(totals[ok], starts)
            tied = ok[totals[ok] == np.repeat(fastest, np.diff(starts, append=ok.size))]
            tied = tied[np.lexsort((idx[tied], owner[tied]))]
            head = tied[np.flatnonzero(np.diff(owner[tied], prepend=-1))]
            shape = owner[head]
            better = (totals[head] < cut[shape]) | (
                (totals[head] == cut[shape]) & (idx[head] < best[shape]))
            head, shape = head[better], shape[better]
            cut[shape], best[shape] = totals[head], idx[head]
            for s, j in zip(shape.tolist(), head.tolist()):
                won[s] = (batch, j)

        results: list[AutotuneResult | AutotuneError] = []
        for gemm, lane, i, tally, lost in zip(
                gemms, won, best.tolist(), evaluated.tolist(), skipped.tolist()):
            if lane is None:  # never silently empty: every candidate failed
                results.append(AutotuneError(
                    f"autotune sweep for {gemm} at {bits}-bit on "
                    f"{device.name} produced no survivor: {lost} of "
                    f"{size} candidates failed permanently (quarantined)"))
                continue
            batch, j = lane
            perf = _perf(gemm, space[i], bits, batch.compute_cycles[j],
                         batch.dram_cycles[j], batch.smem_cycles[j],
                         batch.launch_cycles, batch.blocks[j], batch.blocks_per_sm[j],
                         batch.occupancy[j], batch.overlapped)
            results.append(AutotuneResult(
                gemm, bits, space[i], perf, candidates=size, evaluated=tally,
                pruned=size - tally - lost, skipped=lost))
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


def _memo_key(
    gemm: GemmShape, bits: int, device: GpuDevice, kernel_kwargs: dict
) -> tuple:
    """A sweep's in-process memo key: the digest of its context (device,
    kernel kwargs and code version), the shape, and the bits with their
    type (``4`` and ``4.0`` print apart).  The context is canonicalized
    once per distinct device and kwargs, value types included, so ``1``,
    ``1.0`` and ``True`` hash apart; one with an unhashable kwarg value is
    canonicalized anew."""
    key = (device, tuple(sorted(
        (name, type(value), value) for name, value in kernel_kwargs.items())))
    try:
        context = _CONTEXTS[key]
    except (KeyError, TypeError) as exc:  # a new context, or unhashable
        context = stable_hash({"device": device, "kwargs": kernel_kwargs,
                               "code": _code_version()})
        if isinstance(exc, KeyError):
            _CONTEXTS[key] = context
    return (context, gemm.m, gemm.k, gemm.n, type(bits), bits)


def _digest(key: tuple) -> str:
    """The cache key of the sweep with memo key ``key``: one sha256 over
    its context's digest, the shape and ``repr(bits)``."""
    context, m, k, n, _, bits = key
    return hashlib.sha256(f"{context}/{m}x{k}x{n}/{bits!r}".encode()).hexdigest()


def _sweep_digest(gemm: GemmShape, bits: int, device: GpuDevice, kwargs: dict) -> str:
    return _digest(_memo_key(gemm, bits, device, kwargs))


def _from_store(
    key: tuple, digest: str, data: dict | None, gemm: GemmShape, bits: int
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
    return _MEM_CACHE.setdefault(key, result)


def autotune_many(
    sweeps: Sequence[tuple[GemmShape, int, dict]],
    *,
    device: GpuDevice = TU102,
) -> list[AutotuneResult]:
    """The results of many ``(gemm, bits, kernel_kwargs)`` sweeps, in order.

    Each distinct sweep is answered once: from the in-process memo (no
    hashing), from the disk store (by cache key), or — for the misses — by
    :func:`_search` passes of up to ``_PASS_SWEEPS`` sweeps that share bit
    width, its type included, and context (device and kernel kwargs).
    Every result, tallies included, equals what the one-shape
    :func:`autotune` returns.  A sweep that lost candidates
    to quarantine (``skipped > 0``) is memoized, like the quarantine,
    but not stored: a later process without the faults searches again.
    A failing sweep does not stop the others: they are all memoized and
    stored, as one batch, first, then the error of the first failing
    sweep in ``sweeps`` is raised.
    """
    keys = [_memo_key(g, b, device, kw) for g, b, kw in sweeps]
    outcome: dict[tuple, AutotuneResult | AutotuneError | None] = {
        key: _MEM_CACHE.get(key) for key in keys}
    todo = {key: sweep for key, sweep in zip(keys, sweeps) if outcome[key] is None}
    digests = {key: _digest(key) for key in todo}
    stored = _STORE.get_many(digests.values()) if todo else []
    # a pass per context and bits, with their type: ``4 == 4.0``
    groups: dict[tuple, list[tuple[tuple, GemmShape, dict]]] = {}
    for (key, (gemm, bits, kwargs)), data in zip(todo.items(), stored):
        outcome[key] = _from_store(key, digests[key], data, gemm, bits)
        if outcome[key] is None:  # computed below
            groups.setdefault((key[0], type(bits), bits), []).append(
                (key, gemm, kwargs))
    new: list[tuple[str, AutotuneResult]] = []
    try:
        for (_, _, bits), members in groups.items():
            space, arrays, blocks, block_of = _legal_candidates(bits, device)
            kwargs = members[0][2]
            for start in range(0, len(members), _PASS_SWEEPS):
                part = members[start:start + _PASS_SWEEPS]
                gemms = [gemm for _, gemm, _ in part]
                found = (_search(gemms, bits, space, arrays, blocks, block_of,
                                 device, kwargs)
                         if space else
                         [_no_legal_tiling_error(g, bits, device) for g in gemms])
                for (key, _, _), result in zip(part, found):
                    if isinstance(result, AutotuneResult):
                        result = _MEM_CACHE.setdefault(key, result)
                        if not result.skipped:
                            new.append((digests[key], result))
                    outcome[key] = result
    finally:
        if new:
            _STORE.put_many((d, result.to_json()) for d, result in new)
    for key in keys:
        if isinstance(outcome[key], AutotuneError):
            raise outcome[key]
    return [outcome[key] for key in keys]


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
