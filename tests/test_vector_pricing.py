"""The vectorized autotune engine: pricing path, equivalence, accounting.

The bit-level vector/scalar model equivalence lives in
``test_gpu_random_tilings.py``; this suite pins the *engine* behavior on
top of it: fault-free sweeps price in numpy while fault-selected lanes
take the guarded scalar path, identical results across the one-shape
call, the batched prewarm and the reference sweep (fault-free and under
the canned chaos plan), the Fig. 11 series against the reference, the
``evaluated + pruned + skipped == candidates`` invariant, quarantine
fallback, the batched profile-run counter, each distinct sweep computed
once, and the ARM batch pricers and prewarm.
"""

import importlib

import numpy as np
import pytest

from repro.gpu.autotune import (
    autotune,
    autotune_many,
    autotune_reference,
    clear_cache,
    autotune_options,
    profile_quarantine,
    _candidate_key,
)
from repro.obs import metrics as obs_metrics
from repro.perf.cache import CACHE_DIR_ENV
from repro.resilience.chaos import CANNED_SEED, CANNED_SPEC
from repro.resilience.faults import FaultPlan, fault_plan
from repro.types import GemmShape

from .autotune_oracle import route_to_reference

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
    _forbid_scalar_pricing(monkeypatch)
    before = _vector_runs(8)
    with autotune_options(persistent=False):
        res = autotune(GemmShape(3136, 576, 64), 8)
    assert _vector_runs(8) - before >= res.evaluated > 0


def test_no_vector_env_forces_scalar(monkeypatch):
    """``REPRO_NO_VECTOR`` is gone: setting it changes neither the
    engine nor the result."""
    gemm = GemmShape(196, 2304, 256)
    with autotune_options(persistent=False):
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
    monkeypatch.setenv("REPRO_RETRY", "2")
    monkeypatch.setenv("REPRO_BACKOFF_S", "0")
    with autotune_options(persistent=False):
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
        with fault_plan(plan), autotune_options(persistent=False):
            res = autotune(gemm, 4)
        assert routed, spec
        assert all(plan.selects("autotune.profile", k) for k in routed)
        assert plan.total_injected() == len(routed)
        assert res == base
    clear_cache()
    routed.clear()
    with fault_plan("cache.put:corrupt"), autotune_options(persistent=False):
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
    monkeypatch.setenv("REPRO_RETRY", "1")
    monkeypatch.setenv("REPRO_BACKOFF_S", "0")
    for gemm in _GEMMS:
        reference = autotune_reference(gemm, bits)
        with autotune_options(persistent=False):
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


def test_vector_engine_prunes_and_accounts():
    with autotune_options(persistent=False):
        res = autotune(GemmShape(3136, 576, 64), 4)
    assert res.pruned > 0
    assert res.evaluated < res.candidates
    assert res.evaluated + res.pruned + res.skipped == res.candidates


@pytest.mark.parametrize("kwargs", [
    {"tensor_core": False},
    {"double_buffer": False, "coalesced": False},
    {"split_k": 2, "out_elem_bytes": 4.0},
])
def test_vector_engine_forwards_kernel_kwargs(kwargs):
    gemm = GemmShape(196, 2304, 256)
    reference = autotune_reference(gemm, 8, **kwargs)
    with autotune_options(persistent=False):
        vector = autotune(gemm, 8, **kwargs)
    assert vector.best == reference.best
    assert vector.best_cycles == reference.best_cycles


def test_vector_exhaustive_equals_vector_pruned():
    gemm = GemmShape(37, 123, 211)
    with autotune_options(persistent=False):
        exhaustive = autotune(gemm, 8, prune=False)
        clear_cache()
        pruned = autotune(gemm, 8, prune=True)
    assert exhaustive.pruned == 0
    assert exhaustive.evaluated == exhaustive.candidates
    assert pruned.best_perf == exhaustive.best_perf


# ---------------------------------------------------------------------------
# Quarantine fallback
# ---------------------------------------------------------------------------


def test_quarantined_candidate_is_skipped_not_priced():
    gemm = GemmShape(3136, 576, 64)
    reference = autotune_reference(gemm, 8)
    # quarantine a non-winning candidate; the vector sweep must skip it
    # through the scalar guarded path and still find the same winner
    with autotune_options(persistent=False):
        loser = next(t for t in _space_for(8) if t != reference.best)
        profile_quarantine().add(
            _candidate_key(gemm, 8, loser), reason="test")
        res = autotune(gemm, 8)
    assert res.skipped == 1
    assert res.evaluated + res.pruned + res.skipped == res.candidates
    assert res.best == reference.best
    assert res.best_cycles == reference.best_cycles


def _space_for(bits):
    from repro.gpu.tiling import search_space

    return list(search_space(bits))


# ---------------------------------------------------------------------------
# Batched profile-run metric
# ---------------------------------------------------------------------------


def test_vector_profile_runs_counted_in_batch():
    before = obs_metrics.counter(
        "gpu_profile_runs", bits=8, pricing_mode="vector").value
    with autotune_options(persistent=False):
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
    monkeypatch.setenv("REPRO_RETRY", "3")
    monkeypatch.setenv("REPRO_BACKOFF_S", "0")
    with fault_plan(plan, seed=CANNED_SEED) as active, \
            autotune_options(persistent=False):
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

    clear_cache()
    with autotune_options(persistent=False):
        assert series(fig11_gpu_autotune("resnet50")) == base
    monkeypatch.setattr(GpuBackend, "_warm", lambda self, work: None)
    clear_cache()
    with autotune_options(persistent=False):
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


def test_each_distinct_sweep_is_hashed_once(monkeypatch):
    """The prewarm hashes each distinct sweep key once, and pricing the
    prewarmed items, repeats included, hashes none."""
    from repro.backends.gpu import GpuBackend
    from repro.gpu.pipelinemodel import conv_gemm_shape
    from repro.models import get_model_layers

    calls = []
    sweep_digest = autotune_mod._sweep_digest
    monkeypatch.setattr(autotune_mod, "_sweep_digest",
                        lambda *args: calls.append(args) or sweep_digest(*args))
    work = [(spec, bits, None)
            for spec in get_model_layers("resnet50")[:3] for bits in (4, 8)]
    work += work[::2]
    gpu = GpuBackend()
    gpu.prewarm(work)
    for spec, bits, epilogue in work:
        gpu.price_conv(spec, bits, epilogue)
    assert len(calls) == len({(conv_gemm_shape(s), b) for s, b, _ in work})


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
        autotune_many(sweeps, persistent=True)
    assert len(passes) == 2
    digest = autotune_mod._digest_of(_GEMMS[0], 4, autotune_mod.TU102, {})
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
