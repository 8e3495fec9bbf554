"""Chaos suite: end-to-end invariants under seeded fault plans.

The acceptance bar: with a seeded plan making >=10% of autotune
candidates fail transiently, the sweep — and a cold-then-warm smoke
sweep over a real cache — must finish with the bit-identical winner of
a fault-free run; permanent failures quarantine and the search
continues over survivors; injected crashes at the persistence sites
leave zero torn artifacts.
"""

import pathlib
import re

import pytest

from repro.errors import AutotuneError
from repro.gpu.autotune import autotune, clear_cache, profile_quarantine
from repro.resilience.chaos import (
    CANNED_SEED,
    CANNED_SPEC,
    _torn_artifacts,
    run_chaos,
    scenario_autotune_invariance,
    scenario_executor_degradation,
    scenario_persistence_crash_safety,
)
from repro.resilience.faults import FaultPlan, fault_plan, install_plan
from repro.types import GemmShape

from .autotune_oracle import autotune_reference

GEMM = GemmShape(m=64, k=288, n=100)
BITS = 4


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_BACKOFF_S", "0")
    install_plan(None)
    clear_cache()
    yield
    install_plan(None)
    clear_cache()


# ---------------------------------------------------------------------------
# Transient faults: same winner, bit-identical cycles
# ---------------------------------------------------------------------------


def test_autotune_winner_invariant_under_transient_faults(monkeypatch):
    # fault-free baseline on the production engine: lanes the plan selects
    # take the guarded path, but every other lane prices exactly as here
    with fault_plan(None):
        base = autotune(GEMM, BITS)
    clear_cache()

    monkeypatch.setenv("REPRO_RETRY", "3")
    plan = FaultPlan.from_spec("autotune.profile:raise:0.4:2", seed=7)
    with fault_plan(plan):
        chaotic = autotune(GEMM, BITS)

    assert plan.total_injected() >= max(1, chaotic.evaluated // 10)
    assert chaotic.best == base.best
    assert chaotic.best_cycles == base.best_cycles  # bit-identical
    assert chaotic.skipped == 0
    assert chaotic.evaluated == base.evaluated
    assert chaotic.pruned == base.pruned
    assert len(profile_quarantine()) == 0


def test_batched_gpu_prewarm_invariant_under_transient_faults(monkeypatch):
    """The batched prewarm runs the same engine: under the canned
    transient profile plan it injects faults, and every conv prices
    exactly as after a fault-free prewarm (tiling and tallies included)."""
    from repro.backends.gpu import GpuBackend
    from repro.models import get_model_layers

    gpu = GpuBackend()
    work = [(spec, bits, None)
            for spec in get_model_layers("resnet50")[:4] for bits in (4, 8)]
    with fault_plan(None):
        gpu.prewarm(work)
        base = [gpu.price_conv(s, b, e) for s, b, e in work]
    clear_cache()

    monkeypatch.setenv("REPRO_RETRY", "3")
    plan = FaultPlan.from_spec("autotune.profile:raise:0.3:2", seed=CANNED_SEED)
    with fault_plan(plan):
        gpu.prewarm(work)
        injected = plan.total_injected()
        chaotic = [gpu.price_conv(s, b, e) for s, b, e in work]
    assert injected > 0
    assert plan.total_injected() == injected  # pricing only read the memo
    assert chaotic == base
    assert len(profile_quarantine()) == 0


def test_reference_sweep_wears_the_same_armor(monkeypatch):
    base = autotune_reference(GEMM, BITS)
    monkeypatch.setenv("REPRO_RETRY", "3")
    with fault_plan("autotune.profile:raise:0.4:2", seed=7):
        chaotic = autotune_reference(GEMM, BITS)
    assert chaotic.best == base.best
    assert chaotic.best_cycles == base.best_cycles
    assert chaotic.skipped == 0


# ---------------------------------------------------------------------------
# Permanent faults: quarantine, survivors win, never silently empty
# ---------------------------------------------------------------------------


def test_permanent_failures_quarantine_and_search_continues(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY", "1")
    # times=0 (unlimited): retries can never absorb these — permanent
    plan = FaultPlan.from_spec("autotune.profile:raise:0.25:0", seed=11)
    with fault_plan(plan):
        result = autotune(GEMM, BITS)

    assert result.skipped > 0, "the seeded plan must kill some candidates"
    assert result.evaluated + result.pruned + result.skipped == result.candidates
    assert result.best_perf.total_cycles > 0  # a survivor won
    assert len(profile_quarantine()) == result.skipped
    # quarantine reasons carry the underlying error for debugging
    assert all("InjectedFault" in reason
               for reason in profile_quarantine().entries().values())


def test_quarantined_candidates_skipped_cheaply_on_resweep(monkeypatch):
    from repro.obs import metrics as obs_metrics

    monkeypatch.setenv("REPRO_RETRY", "0")
    with fault_plan("autotune.profile:raise:0.25:0", seed=11):
        # the exhaustive reference profiles every candidate, so it
        # quarantines every one the plan kills
        first = autotune_reference(GEMM, BITS)
        quarantined = set(profile_quarantine().entries())
        assert first.skipped == len(quarantined) > 0
        obs_metrics.reset()
        # the engine's resweep must skip exactly the known-dead candidates
        # without re-profiling (and re-failing) them
        second = autotune(GEMM, BITS)
    assert second.best == first.best
    assert second.best_perf == first.best_perf
    assert second.skipped == first.skipped
    assert set(profile_quarantine().entries()) == quarantined
    snap = obs_metrics.snapshot()["counters"]
    assert snap.get("autotune_skipped{reason=quarantined}", 0) == second.skipped
    assert "autotune_skipped{reason=failed}" not in snap


def test_all_candidates_dead_raises_not_empty(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY", "0")
    with fault_plan("autotune.profile:raise:1:0"):
        with pytest.raises(AutotuneError, match="no survivor"):
            autotune(GEMM, BITS)


# ---------------------------------------------------------------------------
# The smoke sweep: a warm pass over the disk equals the cold search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("canned", [False, True],
                         ids=["fault-free", "canned-plan"])
def test_smoke_sweep_warm_pass_equals_cold_pass(
        canned, tmp_path, monkeypatch):
    """The first three ResNet-50 layers at 4 and 8 bits, searched cold
    and then read back warm from the same fresh cache directory, with
    only the in-process memo cleared in between.  The warm pass must
    return the cold winners bit for bit; fault-free it is all disk hits;
    under the canned transient plan the faults fire and leave no torn
    artifact behind."""
    from repro.figures import GPU_BITS
    from repro.gpu.autotune import autotune_conv, cache_store
    from repro.models import get_model_layers
    from repro.perf.cache import CACHE_DIR_ENV

    monkeypatch.delenv("REPRO_NO_CACHE")
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.setenv("REPRO_RETRY", "3")
    items = [(spec, bits) for spec in get_model_layers("resnet50")[:3]
             for bits in GPU_BITS]
    plan = FaultPlan.from_spec(CANNED_SPEC, seed=CANNED_SEED) if canned else None
    store = cache_store()
    passes = []
    with fault_plan(plan):
        for _ in ("cold", "warm"):
            clear_cache()  # the memo and the index: the warm pass reads disk
            store.reset_stats()
            results = [autotune_conv(spec, bits) for spec, bits in items]
            passes.append(([(r.best, r.best_cycles) for r in results],
                           sum(r.pruned for r in results),
                           store.stats.as_dict()))
    (cold, cold_pruned, cold_stats), (warm, _, warm_stats) = passes
    assert warm == cold
    assert cold_pruned > 0
    assert cold_stats["puts"] > 0
    # every cold put is a warm hit, or a garbled read under the plan
    assert warm_stats["hits"] + warm_stats["errors"] == cold_stats["puts"]
    if canned:
        assert plan.total_injected() > 0, "the plan must actually have fired"
        assert list(tmp_path.rglob("seg-*.jsonl"))
        assert _torn_artifacts(tmp_path) == []
    else:
        assert warm_stats["hit_rate"] == 1.0


def test_ci_chaos_job_exports_the_canned_plan():
    """The CI chaos job re-runs this suite under ``REPRO_FAULTS`` and
    ``REPRO_FAULTS_SEED``; they must stay the canned plan.  A regex reads
    the workflow, since the tier-1 job installs no YAML parser."""
    ci = pathlib.Path(__file__).resolve().parents[1] / ".github/workflows/ci.yml"
    job = re.search(r"^  chaos:\n(.*?)(?=^  \S)", ci.read_text(), re.M | re.S)
    assert job, "ci.yml has no chaos job"
    env = dict(re.findall(r'^ +(REPRO_FAULTS\w*): "(.*)"$', job.group(1), re.M))
    assert env == {"REPRO_FAULTS": CANNED_SPEC,
                   "REPRO_FAULTS_SEED": str(CANNED_SEED)}


# ---------------------------------------------------------------------------
# The packaged scenarios (what `python -m repro chaos` runs)
# ---------------------------------------------------------------------------


def test_scenario_autotune_invariance_passes():
    result = scenario_autotune_invariance()
    assert result.passed, result.checks


def test_scenario_executor_degradation_passes():
    result = scenario_executor_degradation()
    assert result.passed, result.checks


def test_scenario_persistence_crash_safety_passes():
    result = scenario_persistence_crash_safety()
    assert result.passed, result.checks


def test_run_chaos_exit_codes(capsys):
    assert run_chaos() == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 4 and "[FAIL]" not in out


def test_run_chaos_named_subset(capsys):
    assert run_chaos(names=["executor-degradation"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 1
    assert "executor-degradation" in out


def test_scenario_names_listing():
    from repro.resilience.chaos import scenario_names

    names = scenario_names()
    assert "autotune-invariance" in names
    assert "serve-slo" in names


def test_scenario_serve_slo_passes():
    from repro.resilience.chaos import scenario_serve_slo

    result = scenario_serve_slo()
    assert result.passed, result.checks
