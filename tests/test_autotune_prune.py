"""Branch-and-bound pruning safety and the autotune cache rework.

Pruning is only legal because the lower bound is *admissible* (never above
the achieved kernel time).  The acceptance test for the engine is the
sweep below: the pruned engine must produce the exhaustive reference
sweep's winner, cycle breakdown and ``best_cycles`` on every shape, with
the tie-break on search-space order preserved.
"""

import dataclasses

import pytest

from repro.errors import AutotuneError, TilingError
from repro.gpu.autotune import (
    AutotuneResult,
    autotune,
    autotune_conv,
    cache_store,
    clear_cache,
    profile_quarantine,
)
from repro.gpu.device import TU102
from repro.gpu.pipelinemodel import conv_gemm_shape, kernel_lower_bound, kernel_time
from repro.gpu.tiling import default_tiling, search_space, search_space_size
from repro.models import get_model_layers
from repro.perf.cache import CACHE_DIR_ENV
from repro.resilience.faults import fault_plan
from repro.types import GemmShape

from .autotune_oracle import autotune_reference


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    clear_cache()
    # exact put/hit/error counts are asserted here; mask any env fault
    # plan (CI's chaos job runs the suite with REPRO_FAULTS exported —
    # fault-tolerance of the sweep itself is covered by test_chaos.py)
    with fault_plan(None):
        yield
    clear_cache()


_SHAPES = [
    conv_gemm_shape(get_model_layers("resnet50")[0]),
    conv_gemm_shape(get_model_layers("resnet50")[7]),
    GemmShape(3136, 576, 64),
    GemmShape(37, 123, 211),     # nothing tile-aligned
    GemmShape(1, 16, 8),         # degenerate tiny GEMM
    GemmShape(4096, 4096, 4096), # compute bound
]

_KWARGS_VARIANTS = [
    {},
    {"tensor_core": False},
    {"double_buffer": False, "coalesced": False},
    {"split_k": 2, "out_elem_bytes": 4.0},
    {"base_efficiency": 0.8, "in_place_epilogue": False},
]


# ---------------------------------------------------------------------------
# The bound is admissible
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bits", [8, 4])
def test_lower_bound_never_exceeds_kernel_time(bits):
    gemms = [GemmShape(3136, 576, 64), GemmShape(37, 123, 211),
             GemmShape(196, 2304, 256)]
    space = list(search_space(bits))
    sample = space[:: max(1, len(space) // 40)]  # ~40 tilings across the grid
    for gemm in gemms:
        for kwargs in _KWARGS_VARIANTS:
            for tiling in sample:
                bound = kernel_lower_bound(gemm, bits, tiling, **kwargs)
                actual = kernel_time(gemm, bits, tiling, **kwargs).total_cycles
                assert bound <= actual + 1e-9, (
                    f"inadmissible bound for {gemm} {bits}b {tiling} {kwargs}: "
                    f"{bound} > {actual}"
                )


# ---------------------------------------------------------------------------
# Pruning safety (acceptance test)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bits", [8, 4])
def test_pruning_preserves_winner_and_cycles(bits, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    for gemm in _SHAPES:
        reference = autotune_reference(gemm, bits)
        pruned = autotune(gemm, bits)

        assert pruned.best == reference.best
        assert pruned.best_cycles == reference.best_cycles
        assert pruned.best_perf == reference.best_perf

        assert reference.pruned == reference.skipped == pruned.skipped == 0
        assert reference.evaluated == reference.candidates
        assert pruned.evaluated + pruned.pruned == pruned.candidates
        assert pruned.candidates == reference.candidates


def test_pruning_actually_prunes(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    res = autotune(GemmShape(3136, 576, 64), 4)
    assert res.pruned > 0
    assert res.evaluated < res.candidates
    assert res.candidates > 50  # the sweep still covers the full legal grid


# ---------------------------------------------------------------------------
# Cache-key robustness + clear_cache
# ---------------------------------------------------------------------------


def test_kwarg_order_hits_the_same_entry():
    g = GemmShape(196, 2304, 256)
    r1 = autotune(g, 8, tensor_core=True, double_buffer=True)
    r2 = autotune(g, 8, double_buffer=True, tensor_core=True)
    assert r1 is r2  # same digest, same memoized object


def test_distinct_kwargs_are_distinct_entries():
    g = GemmShape(196, 2304, 256)
    r1 = autotune(g, 8)
    r2 = autotune(g, 8, out_elem_bytes=4.0)
    assert r1 is not r2
    assert r1 == autotune(g, 8)  # and the original entry is intact


def test_clear_cache_is_public_and_effective():
    g = GemmShape(37, 123, 211)
    r1 = autotune(g, 4)
    assert autotune(g, 4) is r1
    clear_cache(persistent=True)
    r2 = autotune(g, 4)
    assert r2 is not r1
    assert r2 == r1  # recomputed, identical


# ---------------------------------------------------------------------------
# Persistent store round trip
# ---------------------------------------------------------------------------


def test_result_json_roundtrip():
    import json

    res = autotune_reference(GemmShape(37, 123, 211), 4)
    back = AutotuneResult.from_json(json.loads(json.dumps(res.to_json())))
    assert back == res
    assert back.best_cycles == res.best_cycles


def test_persistent_cache_warm_hit_is_exact():
    g = GemmShape(3136, 576, 64)
    store = cache_store()
    store.reset_stats()
    r1 = autotune(g, 8)
    assert store.stats.puts == 1

    clear_cache()  # memo only; the disk entry survives
    store.reset_stats()
    r2 = autotune(g, 8)
    assert store.stats.hits == 1
    assert r2 == r1  # exact floats via JSON round trip
    assert r2.best_cycles == r1.best_cycles


def test_corrupt_persistent_entry_recomputes():
    g = GemmShape(196, 2304, 256)
    store = cache_store()
    r1 = autotune(g, 4)
    segments = list(store.directory().glob("seg-*.jsonl"))
    assert len(segments) == 1
    segments[0].write_text('["', encoding="utf-8")  # truncated

    clear_cache()  # the memo and the store's index: read the disk again
    store.reset_stats()
    r2 = autotune(g, 4)
    assert r2 == r1
    assert store.stats.errors >= 1  # tolerated, recomputed, re-stored
    assert store.stats.puts == 1


def test_autotune_conv_uses_the_cache():
    spec = get_model_layers("resnet50")[2]
    r1 = autotune_conv(spec, 4)
    assert autotune_conv(spec, 4) is r1
    assert r1.best_cycles > 0


# ---------------------------------------------------------------------------
# Failure diagnostics
# ---------------------------------------------------------------------------


def test_autotune_error_is_diagnostic():
    cramped = dataclasses.replace(
        TU102, name="toy-gpu", smem_per_sm=64, max_smem_per_block=64,
        max_threads_per_sm=8,
    )
    with pytest.raises(AutotuneError) as exc:
        autotune(GemmShape(64, 64, 64), 4, device=cramped)
    msg = str(exc.value)
    assert "4-bit" in msg
    assert "toy-gpu" in msg
    assert str(search_space_size(4)) in msg
    assert "0 of" in msg


def test_reference_raises_the_same_diagnostic():
    cramped = dataclasses.replace(TU102, name="tiny", smem_per_sm=1,
                                  max_smem_per_block=1, max_threads_per_sm=1)
    with pytest.raises(AutotuneError, match="tiny"):
        autotune_reference(GemmShape(8, 16, 8), 8, device=cramped)


def test_non_resident_tilings_are_illegal_not_faults(monkeypatch):
    """On SMs with 16 KiB of shared memory a block that stages more cannot
    be resident.  ``validate_tiling`` rejects it, so the search space
    leaves it out and the sweep never profiles it, instead of retrying it
    like a fault, quarantining it and counting it as skipped."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    dev = dataclasses.replace(TU102, name="half-smem", smem_per_sm=16 * 1024)
    full = list(search_space(8))
    space = list(search_space(8, device=dev))
    assert space == [t for t in full if t.smem_bytes(8) <= dev.smem_per_sm]
    assert 0 < len(space) < len(full)

    gemm = GemmShape(3136, 576, 64)
    with pytest.raises(TilingError, match="does not fit on an SM"):
        kernel_time(gemm, 8, default_tiling(8), device=dev)
    # single-buffered, the same tiling stages exactly 16 KiB and fits
    assert kernel_time(gemm, 8, default_tiling(8), device=dev,
                       double_buffer=False).blocks_per_sm == 1

    reference = autotune_reference(gemm, 8, device=dev)
    engine = autotune(gemm, 8, device=dev)
    assert engine.best == reference.best
    assert engine.best_perf == reference.best_perf
    assert engine.candidates == reference.candidates == len(space)
    assert engine.skipped == reference.skipped == 0
    assert len(profile_quarantine()) == 0
