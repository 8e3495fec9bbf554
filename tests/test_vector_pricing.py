"""The vectorized autotune engine: pricing path, equivalence, accounting.

The bit-level vector/scalar model equivalence lives in
``test_gpu_random_tilings.py``; this suite pins the *engine* behavior on
top of it: fault-free sweeps price in numpy while fault-selected lanes
take the guarded scalar path, identical results across the one-shape
call, the batched prewarm and the reference sweep (fault-free and under
the canned chaos plan), the Fig. 11 series against the reference, the
``evaluated + pruned + skipped == candidates`` invariant, quarantine
fallback, the batched profile-run counter, each distinct sweep computed
once, the sweep digest and its once-per-context canonicalization, the
per-pass tallies, the lower bound taken once per block tile, memo hits
that skip the GPU and ARM stores, and the ARM batch pricers and prewarm.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.gpu.autotune import (
    autotune,
    autotune_many,
    clear_cache,
    profile_quarantine,
    _candidate_key,
)
from repro.obs import metrics as obs_metrics
from repro.perf.cache import CACHE_DIR_ENV
from repro.resilience.chaos import CANNED_SEED, CANNED_SPEC
from repro.resilience.faults import FaultPlan, fault_plan
from repro.types import GemmShape

from .autotune_oracle import autotune_reference, route_to_reference

# the module, not the package's ``autotune`` function of the same name
autotune_mod = importlib.import_module("repro.gpu.autotune")


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    clear_cache()
    with fault_plan(None):
        yield
    clear_cache()


_GEMMS = [
    GemmShape(3136, 576, 64),
    GemmShape(37, 123, 211),
    GemmShape(196, 2304, 256),
]


# ---------------------------------------------------------------------------
# Pricing path: numpy for every lane, the guarded scalar path on demand
# ---------------------------------------------------------------------------


def _forbid_scalar_pricing(monkeypatch):
    def scalar(*args, **kwargs):
        raise AssertionError("fault-free sweep priced a candidate scalar")

    monkeypatch.setattr(autotune_mod, "kernel_time", scalar)


def _vector_runs(bits):
    return obs_metrics.counter(
        "gpu_profile_runs", bits=bits, pricing_mode="vector").value


def test_vector_mode_is_the_default(monkeypatch):
    """A fault-free sweep prices every candidate through the batched
    model; the scalar model (the guarded path's) is never called."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    _forbid_scalar_pricing(monkeypatch)
    before = _vector_runs(8)
    res = autotune(GemmShape(3136, 576, 64), 8)
    assert _vector_runs(8) - before >= res.evaluated > 0


def test_no_vector_env_forces_scalar(monkeypatch):
    """``REPRO_NO_VECTOR`` is gone: setting it changes neither the
    engine nor the result."""
    gemm = GemmShape(196, 2304, 256)
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    expected = autotune(gemm, 8)
    clear_cache()
    monkeypatch.setenv("REPRO_NO_VECTOR", "1")
    _forbid_scalar_pricing(monkeypatch)
    res = autotune(gemm, 8)
    assert res == expected


def test_fault_plan_on_profile_site_forces_scalar(monkeypatch):
    """Lanes a fault plan selects at ``autotune.profile`` (exact or glob
    rule) reach ``_guarded_profile``; retries absorb the faults, so the
    winner, cycles and tallies equal the fault-free run.  A rule on an
    unrelated site routes nothing there."""
    gemm = GemmShape(3136, 576, 64)
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_RETRY", "2")
    monkeypatch.setenv("REPRO_BACKOFF_S", "0")
    base = autotune(gemm, 4)
    routed = []
    guarded = autotune_mod._guarded_profile

    def spy(gemm_, bits, tiling, *args):
        routed.append(_candidate_key(gemm_, bits, tiling))
        return guarded(gemm_, bits, tiling, *args)

    monkeypatch.setattr(autotune_mod, "_guarded_profile", spy)
    for spec in ("autotune.profile:raise:0.3:1", "autotune.*:raise:0.3:1"):
        clear_cache()
        routed.clear()
        plan = FaultPlan.from_spec(spec, seed=3)
        with fault_plan(plan):
            res = autotune(gemm, 4)
        assert routed, spec
        assert all(plan.selects("autotune.profile", k) for k in routed)
        assert plan.total_injected() == len(routed)
        assert res == base
    clear_cache()
    routed.clear()
    with fault_plan("cache.put:corrupt"):
        assert autotune(gemm, 4) == base
    assert not routed


# ---------------------------------------------------------------------------
# Engine equivalence: numpy pricing vs the guarded scalar path vs reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bits", [8, 4])
def test_vector_engine_matches_scalar_engine(bits, monkeypatch):
    """A rate-1 transient plan routes every priced lane through the
    guarded scalar model; the result, tallies included, must equal the
    numpy-priced sweep, and the winner the reference sweep's."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_RETRY", "1")
    monkeypatch.setenv("REPRO_BACKOFF_S", "0")
    for gemm in _GEMMS:
        reference = autotune_reference(gemm, bits)
        vector = autotune(gemm, bits)
        clear_cache()
        with fault_plan("autotune.profile:raise:1.0:1") as plan:
            scalar = autotune(gemm, bits)
        clear_cache()
        assert plan.total_injected() == scalar.evaluated

        # the winner and its full cycle breakdown are engine-independent
        assert scalar == vector
        assert vector.best == reference.best
        assert vector.best_cycles == reference.best_cycles
        assert vector.candidates == reference.candidates
        assert vector.evaluated + vector.pruned + vector.skipped == vector.candidates


def test_vector_engine_prunes_and_accounts(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    res = autotune(GemmShape(3136, 576, 64), 4)
    assert res.pruned > 0
    assert res.evaluated < res.candidates
    assert res.evaluated + res.pruned + res.skipped == res.candidates


@pytest.mark.parametrize("kwargs", [
    {"tensor_core": False},
    {"double_buffer": False, "coalesced": False},
    {"split_k": 2, "out_elem_bytes": 4.0},
])
def test_vector_engine_forwards_kernel_kwargs(kwargs, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    gemm = GemmShape(196, 2304, 256)
    reference = autotune_reference(gemm, 8, **kwargs)
    vector = autotune(gemm, 8, **kwargs)
    assert vector.best == reference.best
    assert vector.best_cycles == reference.best_cycles


def test_vector_exhaustive_equals_vector_pruned(monkeypatch):
    """The pruned engine equals the exhaustive reference sweep: winner,
    cycle breakdown and the candidates both account for."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    gemm = GemmShape(37, 123, 211)
    exhaustive = autotune_reference(gemm, 8)
    pruned = autotune(gemm, 8)
    assert exhaustive.pruned == 0
    assert exhaustive.evaluated == exhaustive.candidates
    assert pruned.best == exhaustive.best
    assert pruned.best_perf == exhaustive.best_perf
    assert pruned.candidates == exhaustive.candidates
    assert pruned.evaluated + pruned.pruned == pruned.candidates
    assert pruned.skipped == exhaustive.skipped == 0


# ---------------------------------------------------------------------------
# Quarantine fallback
# ---------------------------------------------------------------------------


def test_quarantined_candidate_is_skipped_not_priced(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    gemm = GemmShape(3136, 576, 64)
    reference = autotune_reference(gemm, 8)
    # quarantine a non-winning candidate; the vector sweep must skip it
    # through the scalar guarded path and still find the same winner
    loser = next(t for t in _space_for(8) if t != reference.best)
    profile_quarantine().add(
        _candidate_key(gemm, 8, loser), reason="test")
    res = autotune(gemm, 8)
    assert res.skipped == 1
    assert res.evaluated + res.pruned + res.skipped == res.candidates
    assert res.best == reference.best
    assert res.best_cycles == reference.best_cycles


def test_degraded_sweep_is_not_persisted(monkeypatch):
    """A sweep that permanent profile faults degraded stays memoized in
    this process, like the quarantine, but never reaches the store: with
    the memo, the quarantine and the store index dropped, a fault-free
    rerun on the same cache directory searches again."""
    gemm = GemmShape(3136, 576, 64)
    monkeypatch.setenv("REPRO_RETRY", "0")
    with fault_plan("autotune.profile:raise:0.25:0", seed=11):
        degraded = autotune(gemm, 8)
    assert degraded.skipped > 0
    assert autotune(gemm, 8) is degraded
    clear_cache()
    clean = autotune(gemm, 8)
    reference = autotune_reference(gemm, 8)
    assert clean.skipped == reference.skipped == 0
    assert clean.best == reference.best
    assert clean.best_perf == reference.best_perf


def _space_for(bits):
    from repro.gpu.tiling import search_space

    return list(search_space(bits))


# ---------------------------------------------------------------------------
# Batched profile-run metric
# ---------------------------------------------------------------------------


def test_vector_profile_runs_counted_in_batch(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    before = obs_metrics.counter(
        "gpu_profile_runs", bits=8, pricing_mode="vector").value
    res = autotune(GemmShape(196, 2304, 256), 8)
    after = obs_metrics.counter(
        "gpu_profile_runs", bits=8, pricing_mode="vector").value
    # every vector-priced candidate ticks the counter, pruned ones do not
    assert after - before >= res.evaluated
    assert after - before <= res.candidates


# ---------------------------------------------------------------------------
# Batched == one-shape == reference, end to end
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bits", [8, 4])
@pytest.mark.parametrize("plan", [None, CANNED_SPEC], ids=["fault-free", "canned"])
def test_batched_equals_one_shape_equals_reference(plan, bits, monkeypatch):
    """The batched search returns the *same* AutotuneResult as one-shape
    calls (best tiling, exact cycles and the evaluated/pruned tallies),
    and the winner of the reference sweep, also under the canned chaos
    plan, whose transient profile faults the retries absorb."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_RETRY", "3")
    monkeypatch.setenv("REPRO_BACKOFF_S", "0")
    with fault_plan(plan, seed=CANNED_SEED) as active:
        single = []
        for gemm in _GEMMS:
            clear_cache()
            single.append(autotune(gemm, bits))
        clear_cache()
        batched = autotune_many([(gemm, bits, {}) for gemm in _GEMMS])
        reference = [autotune_reference(gemm, bits) for gemm in _GEMMS]
    assert (active.total_injected() > 0) == (plan is not None)
    assert batched == single
    for res, ref in zip(single, reference):
        assert res.skipped == ref.skipped == 0
        assert res.best == ref.best
        assert res.best_perf == ref.best_perf
        assert res.best_cycles == ref.best_cycles


def test_fig11_series_identical_to_the_reference(monkeypatch):
    """The Fig. 11 series regenerated through the engine, warmed by the
    batched prewarm or priced one shape at a time with the prewarm off,
    equal the reference sweep's float for float."""
    from repro.backends.gpu import GpuBackend
    from repro.figures import fig11_gpu_autotune

    def series(data):
        return (data.labels, [(s.name, tuple(s.values)) for s in data.series],
                tuple(data.baseline_times))

    reference_sweeps = obs_metrics.counter("autotune_sweeps", engine="reference")
    before = reference_sweeps.value
    with monkeypatch.context() as m:
        route_to_reference(m)
        base = series(fig11_gpu_autotune("resnet50"))
    assert reference_sweeps.value > before

    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    clear_cache()
    assert series(fig11_gpu_autotune("resnet50")) == base
    monkeypatch.setattr(GpuBackend, "_warm", lambda self, work: None)
    clear_cache()
    assert series(fig11_gpu_autotune("resnet50")) == base


# ---------------------------------------------------------------------------
# Batched GPU prewarm
# ---------------------------------------------------------------------------


def test_gpu_prewarm_computes_each_distinct_sweep_once():
    """Repeated items and epilogues that write the same output width
    collapse to one sweep each: the sweep counter and the store's puts
    rise by exactly the number of distinct cache digests, in one serial
    batched call, and the pricing pass only reads."""
    from repro.backends.gpu import GpuBackend, _epilogue_kwargs
    from repro.gpu.autotune import _sweep_digest, cache_store
    from repro.gpu.device import TU102
    from repro.gpu.pipelinemodel import conv_gemm_shape
    from repro.models import get_model_layers

    work = [(spec, bits, epilogue)
            for spec in get_model_layers("resnet50")[:3]
            for bits in (4, 8)
            for epilogue in (None, "requant", "requant_relu", "dequant")]
    work += work[::3]
    digests = {
        _sweep_digest(conv_gemm_shape(spec), bits, TU102,
                      _epilogue_kwargs(bits, epilogue, {}))
        for spec, bits, epilogue in work
    }
    # per (layer, bits): the bare kernel, requant(_relu) and dequant widths
    assert len(digests) == 3 * 2 * 3
    sweeps = obs_metrics.counter("autotune_sweeps", engine="pruned")
    before = sweeps.value
    store = cache_store()
    store.reset_stats()

    gpu = GpuBackend()
    gpu.prewarm(work)
    assert sweeps.value - before == len(digests)
    assert store.stats.puts == len(digests)
    for spec, bits, epilogue in work:
        gpu.price_conv(spec, bits, epilogue)
    assert sweeps.value - before == len(digests)
    assert store.stats.puts == len(digests)


def test_sweep_digest_keys_every_part_of_a_sweep(monkeypatch):
    """A sweep's digest changes with m, k, n, the bits, any device field,
    any kwarg and the code version; it tells kwargs 1, 1.0 and True and
    bits 4 and 4.0 apart, and ignores the kwargs' insertion order."""
    import dataclasses

    digest, device = autotune_mod._sweep_digest, autotune_mod.TU102
    gemm, kwargs = GemmShape(3136, 576, 64), {"out_elem_bytes": 0.5, "split_k": 1}
    bumped = [dataclasses.replace(device, **{f.name: (
        value + "'" if isinstance(value, str) else value * 2 + 1)})
        for f in dataclasses.fields(device)
        for value in [getattr(device, f.name)]]
    variants = [
        digest(gemm, 4, device, kwargs),
        digest(GemmShape(3137, 576, 64), 4, device, kwargs),
        digest(GemmShape(3136, 577, 64), 4, device, kwargs),
        digest(GemmShape(3136, 576, 65), 4, device, kwargs),
        digest(gemm, 8, device, kwargs),
        digest(gemm, 4.0, device, kwargs),
        digest(gemm, 4, device, {**kwargs, "out_elem_bytes": 1.0}),
        digest(gemm, 4, device, {"out_elem_bytes": 0.5}),
        *(digest(gemm, 4, d, kwargs) for d in bumped),
        *(digest(gemm, 4, device, {"flag": v}) for v in (1, 1.0, True)),
    ]
    assert len(set(variants)) == len(variants) == 11 + len(bumped)
    reordered = {"split_k": 1, "out_elem_bytes": 0.5}
    assert digest(gemm, 4, device, reordered) == variants[0]
    clear_cache()  # canonicalized anew, in the other order
    assert digest(gemm, 4, device, reordered) == variants[0]
    monkeypatch.setattr(autotune_mod, "_FINGERPRINT", "0" * 16)
    clear_cache()  # the memo holds one code version: the process's
    assert digest(gemm, 4, device, kwargs) not in variants


def test_each_sweep_context_is_canonicalized_once(monkeypatch):
    """The prewarm canonicalizes the sweep context (device, kwargs, code
    version) once per distinct device and kwargs, however many sweeps
    share it; pricing the prewarmed items, repeats included,
    canonicalizes none, and another device is another context."""
    import dataclasses

    from repro.backends.gpu import GpuBackend, _epilogue_kwargs
    from repro.models import get_model_layers

    calls = []
    stable_hash = autotune_mod.stable_hash
    monkeypatch.setattr(autotune_mod, "stable_hash",
                        lambda obj: calls.append(obj) or stable_hash(obj))
    work = [(spec, bits, epilogue)
            for spec in get_model_layers("resnet50")[:3]
            for bits in (4, 8)
            for epilogue in (None, "requant", "dequant")]
    work += work[::2]
    # {}, and out_elem_bytes 0.5 (4-bit requant), 1.0 (8-bit) and 4.0
    contexts = {tuple(_epilogue_kwargs(b, e, {}).items()) for _, b, e in work}
    assert len(contexts) == 4
    gpu = GpuBackend()
    gpu.prewarm(work)
    assert len(calls) == len(contexts)
    for spec, bits, epilogue in work:
        gpu.price_conv(spec, bits, epilogue)
    assert len(calls) == len(contexts)
    other = dataclasses.replace(autotune_mod.TU102, name="tu102-copy")
    for bits in (4, 8):
        autotune_mod._sweep_digest(_GEMMS[0], bits, other, {})
    assert len(calls) == len(contexts) + 1


def test_pass_tallies_are_the_sums_of_their_sweeps(monkeypatch):
    """One batched call over ResNet-50 at 4 and 8 bits adds to each
    ``autotune_*{engine=pruned}`` counter the sum over its results, and
    exactly what the same sweeps add one ``autotune`` call at a time."""
    from repro.gpu.pipelinemodel import conv_gemm_shape
    from repro.models import get_model_layers

    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    counters = [obs_metrics.counter(name, engine="pruned") for name in (
        "autotune_sweeps", "autotune_candidates", "autotune_evaluated",
        "autotune_pruned")]

    def deltas(run):
        before = [c.value for c in counters]
        results = run()
        return [c.value - b for c, b in zip(counters, before)], results

    sweeps = list(dict.fromkeys((conv_gemm_shape(spec), bits)
                                for bits in (4, 8)
                                for spec in get_model_layers("resnet50")))
    batched, results = deltas(
        lambda: autotune_many([(g, b, {}) for g, b in sweeps]))
    assert batched == [len(sweeps), sum(r.candidates for r in results),
                       sum(r.evaluated for r in results),
                       sum(r.pruned for r in results)]
    clear_cache()
    one_at_a_time, singles = deltas(lambda: [autotune(g, b) for g, b in sweeps])
    assert one_at_a_time == batched
    assert singles == results


def test_a_pass_bounds_each_block_tile_once(monkeypatch):
    """One search pass calls the lower bound once, on the space's 72
    distinct (MTile, NTile, KTile) blocks per shape, not on its 632
    candidates."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    bound, calls = autotune_mod.kernel_lower_bound, []

    def spy(gemm, bits, tilings, **kwargs):
        calls.append((bits, gemm.m.shape, len(tilings)))
        return bound(gemm, bits, tilings, **kwargs)

    monkeypatch.setattr(autotune_mod, "kernel_lower_bound", spy)
    autotune_many([(gemm, bits, {}) for bits in (4, 8) for gemm in _GEMMS])
    assert calls == [(4, (3, 1), 72), (8, (3, 1), 72)]
    for bits in (4, 8):
        assert len(autotune_mod._legal_candidates(bits, autotune_mod.TU102)[0]) == 632


def test_block_bounds_change_no_sweep_of_the_price_sweep(monkeypatch):
    """The e2e price sweep's 1,696 distinct sweeps (three models, batches
    1-16, 4 and 8 bits) give equal results, tallies included, searched
    with the block map and with an identity one, which makes every
    candidate its own block and so bounds each of them."""
    from repro.gpu.pipelinemodel import conv_gemm_shape
    from repro.models import get_model_layers

    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    sweeps = [(gemm, bits, {}) for gemm, bits in dict.fromkeys(
        (conv_gemm_shape(spec.with_batch(batch)), bits)
        for model in ("resnet50", "scr-resnet50", "densenet121")
        for bits in (4, 8) for batch in range(1, 17)
        for spec in get_model_layers(model))]
    assert len(sweeps) == 1696
    blocked = autotune_many(sweeps)
    legal = autotune_mod._legal_candidates

    def identity(bits, device):
        space, arrays, _, _ = legal(bits, device)
        return space, arrays, arrays, np.arange(len(space))

    monkeypatch.setattr(autotune_mod, "_legal_candidates", identity)
    clear_cache()
    assert autotune_many(sweeps) == blocked


def _count_store_calls(monkeypatch, store) -> dict[str, int]:
    """Count ``store``'s ``get_many`` and ``put_many`` calls, live."""
    calls = dict.fromkeys(("get_many", "put_many"), 0)
    for name in calls:
        def spy(items, name=name, method=getattr(store, name)):
            calls[name] += 1
            return method(items)

        monkeypatch.setattr(store, name, spy)
    return calls


def test_memo_hits_do_not_touch_the_store(monkeypatch):
    """Pricing prewarmed items calls the store's ``get_many`` and
    ``put_many`` zero times; a cold miss calls each once per
    ``autotune_many`` call."""
    from repro.backends.gpu import GpuBackend
    from repro.models import get_model_layers

    calls = _count_store_calls(monkeypatch, autotune_mod.cache_store())
    layers = get_model_layers("resnet50")
    work = [(spec, bits, None) for spec in layers[:3] for bits in (4, 8)]
    work += work[::2]
    gpu = GpuBackend()
    gpu.prewarm(work)
    assert calls == {"get_many": 1, "put_many": 1}
    for spec, bits, epilogue in work:
        gpu.price_conv(spec, bits, epilogue)
    assert calls == {"get_many": 1, "put_many": 1}
    gpu.price_conv(layers[3], 4)
    assert calls == {"get_many": 2, "put_many": 2}


def test_arm_memo_hits_do_not_touch_the_store(monkeypatch):
    """Pricing an ARM-prewarmed network calls the schedule store's
    ``get_many`` and ``put_many`` zero times, the first time and again;
    the cold prewarm still writes one segment per width, holding every
    stream it scheduled."""
    from repro.arm.cost_model import clear_schedule_cache, schedule_store
    from repro.backends.arm import ArmBackend
    from repro.models import get_model_layers

    clear_schedule_cache()
    calls = _count_store_calls(monkeypatch, schedule_store())
    computed = obs_metrics.counter("arm_schedules", outcome="computed")
    before = computed.value
    work = [(spec, bits, None) for bits in (2, 4, 8)
            for spec in get_model_layers("resnet50")]
    backend = ArmBackend()
    backend.prewarm(work)
    segments = list((pathlib.Path(os.environ[CACHE_DIR_ENV]) / "arm-schedule").iterdir())
    assert calls["put_many"] == len(segments) == 3
    assert sum(len(p.read_text().splitlines()) for p in segments) == computed.value - before
    warm = dict(calls)
    for _ in range(2):
        for spec, bits, epilogue in work:
            backend.price_conv(spec, bits, epilogue)
        assert calls == warm
    clear_schedule_cache()


def test_results_found_before_an_escaping_error_are_stored(monkeypatch):
    """An exception that escapes a later pass (not a sweep's own
    AutotuneError) still leaves the earlier passes' results on disk."""
    from repro.perf.cache import PersistentCache

    search = autotune_mod._search
    passes = []

    def interrupted(gemms, *args, **kwargs):
        passes.append(gemms)
        if len(passes) == 2:
            raise KeyboardInterrupt
        return search(gemms, *args, **kwargs)

    monkeypatch.setattr(autotune_mod, "_search", interrupted)
    sweeps = [(_GEMMS[0], 4, {}), (_GEMMS[1], 8, {})]  # one pass per width
    with pytest.raises(KeyboardInterrupt):
        autotune_many(sweeps)
    assert len(passes) == 2
    digest = autotune_mod._sweep_digest(_GEMMS[0], 4, autotune_mod.TU102, {})
    assert PersistentCache("gpu-autotune").get(digest) is not None


def test_cold_resnet50_prewarm_writes_one_segment_per_batch(tmp_path):
    """A cold ResNet-50 prewarm publishes one cache file per batch: one
    for the GPU at 4 and 8 bits, and one per width for the ARM at 2-8
    bits (the fit's reference lengths are among the exact ones)."""
    from repro.arm.cost_model import clear_schedule_cache
    from repro.backends.arm import ArmBackend
    from repro.backends.gpu import GpuBackend
    from repro.models import get_model_layers

    layers = get_model_layers("resnet50")
    clear_schedule_cache()
    GpuBackend().prewarm([(spec, bits, None) for bits in (4, 8) for spec in layers])
    ArmBackend().prewarm([(spec, bits, None) for bits in range(2, 9) for spec in layers])
    clear_schedule_cache()
    cache = tmp_path / "cache"
    assert len(list((cache / "gpu-autotune").iterdir())) == 1
    assert len(list((cache / "arm-schedule").iterdir())) == 7


def test_executor_prewarm_does_not_change_graph_report(monkeypatch):
    """estimate_graph_cycles prewarms first; the report must equal the
    one priced with the prewarm switched off."""
    from repro.backends.base import Backend
    from repro.models import get_model_layers
    from repro.runtime.executor import estimate_graph_cycles
    from repro.runtime.graph import Graph, Op

    ops = []
    for spec in get_model_layers("resnet50")[:4]:
        ops += [
            Op("quantize", {"bits": 4, "scale": 0.05}),
            Op("conv", {"spec": spec, "bits": 4, "epilogue": "requant",
                        "out_scale": 0.1}),
            Op("dequantize", {"scale": 0.1}),
        ]
    graph = Graph(tuple(ops))
    warmed = estimate_graph_cycles(graph, "gpu")
    clear_cache(persistent=True)
    monkeypatch.setattr(Backend, "prewarm", lambda self, work: None)
    cold = estimate_graph_cycles(graph, "gpu")
    assert warmed.op_cycles == cold.op_cycles
    assert warmed.total_cycles == cold.total_cycles


# ---------------------------------------------------------------------------
# ARM batch pricers
# ---------------------------------------------------------------------------


def test_arm_tile_cycles_batch_matches_scalar():
    from repro.arm.cost_model import tile_cycles, tile_cycles_batch

    ks = [1, 3, 16, 64, 256, 511, 512, 513, 576, 1000, 2304, 4608]
    for scheme, bits in [("smlal", 8), ("smlal", 4), ("mla", 2),
                         ("ncnn", 8), ("sdot", 8), ("popcount", 2)]:
        batch = tile_cycles_batch(scheme, bits, ks)
        expected = [tile_cycles(scheme, bits, k) for k in ks]
        assert batch.tolist() == expected  # bit-exact, both regions


def test_arm_tile_cycles_batch_rejects_nonpositive_k():
    from repro.arm.cost_model import tile_cycles_batch
    from repro.errors import UnsupportedBitsError

    with pytest.raises(UnsupportedBitsError):
        tile_cycles_batch("smlal", 8, [64, 0, 128])


def test_arm_gemm_kernel_cycles_batch_matches_scalar():
    from repro.arm.conv_runner import (
        gemm_kernel_cycles,
        gemm_kernel_cycles_batch,
    )

    gemms = [GemmShape(64, 576, 3136), GemmShape(128, 1152, 784),
             GemmShape(1, 9, 12544), GemmShape(512, 4608, 49)]
    for scheme, bits in [("smlal", 8), ("mla", 2)]:
        batch = gemm_kernel_cycles_batch(gemms, scheme, bits)
        expected = [gemm_kernel_cycles(g, scheme, bits) for g in gemms]
        assert batch.tolist() == expected


def test_arm_prewarm_batching_changes_no_prices():
    from repro.arm.cost_model import clear_schedule_cache
    from repro.backends.arm import ArmBackend
    from repro.models import get_model_layers

    layers = get_model_layers("resnet50")[:4]
    work = [(spec, bits, None) for spec in layers for bits in (2, 8)]

    backend = ArmBackend()
    backend.prewarm(work)
    warmed = [backend.price_conv(s, b, e).total_cycles for s, b, e in work]

    clear_schedule_cache()
    cold = [backend.price_conv(s, b, e).total_cycles for s, b, e in work]
    assert warmed == cold


def test_arm_prewarm_does_not_import_numpy_ma(tmp_path):
    """An ARM prewarm, which every ``reproduce`` process runs, leaves
    ``numpy.ma`` unimported: the first ``np.unique`` call of a process
    imports it, at about 13 ms."""
    code = ("import sys\n"
            "from repro.backends.arm import ArmBackend\n"
            "from repro.models import get_model_layers\n"
            "spec = get_model_layers('resnet50')[0]\n"
            "ArmBackend().prewarm([(spec, 2, None), (spec, 8, None)])\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert list((tmp_path / "cache" / "arm-schedule").iterdir())


def test_arm_prewarm_schedules_streams_and_prices_nothing(monkeypatch):
    """The ARM prewarm only batch-schedules streams: it makes no
    ``price_conv`` call, and a width no scheme models neither raises nor
    counts a ``prewarm_errors``; pricing that width still raises."""
    from repro.arm.cost_model import clear_schedule_cache
    from repro.backends.arm import ArmBackend
    from repro.errors import UnsupportedBitsError
    from repro.models import get_model_layers

    calls = []
    price_conv = ArmBackend.price_conv
    monkeypatch.setattr(ArmBackend, "price_conv",
                        lambda self, *a, **kw: calls.append(a))
    computed = obs_metrics.counter("arm_schedules", outcome="computed")
    errors = obs_metrics.counter("prewarm_errors", backend="arm")
    before = computed.value, errors.value
    layers = get_model_layers("resnet50")[:3]
    backend = ArmBackend()
    clear_schedule_cache()
    backend.prewarm([(spec, bits, None) for spec in layers for bits in (4, 9)])
    assert calls == []
    assert computed.value > before[0]
    assert errors.value == before[1]
    with pytest.raises(UnsupportedBitsError):
        price_conv(backend, layers[0], 9)
