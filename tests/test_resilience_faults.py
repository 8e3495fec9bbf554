"""Deterministic fault injection: grammar, determinism, hook semantics."""

import json

import pytest

from repro.errors import ReproError
from repro.resilience.faults import (
    FAULTS_ENV,
    FAULTS_SEED_ENV,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_plan,
    fault_plan,
    inject,
    install_plan,
    maybe_corrupt,
    maybe_garbage,
)


@pytest.fixture(autouse=True)
def _no_env_plan(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    monkeypatch.delenv(FAULTS_SEED_ENV, raising=False)
    install_plan(None)
    yield
    install_plan(None)


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------


def test_spec_grammar_full_and_defaults():
    plan = FaultPlan.from_spec(
        "cache.put:raise:0.5:3:0.1; autotune.*:delay ;;")
    assert plan.rules == (
        FaultRule("cache.put", "raise", rate=0.5, times=3, param=0.1),
        FaultRule("autotune.*", "delay", rate=1.0, times=1, param=0.0),
    )


@pytest.mark.parametrize("spec", [
    "nocolon",
    "site:unknown-kind",
    "site:raise:2.0",      # rate out of range
    "site:raise:0.5:-1",   # negative times
    "site:raise:abc",      # unparseable rate
    "autotune.profile:delay:0.01:1:inf",  # an endless delay
    "cache.put:corrupt:1:1:inf",          # infinitely many flipped bytes
    "cache.put:corrupt:1:1:nan",          # not a byte count
    "site:delay:1:1:-0.5",                # negative param
])
def test_bad_specs_raise_typed_errors(spec):
    with pytest.raises(ReproError):
        FaultPlan.from_spec(spec)


def test_invalid_env_spec_degrades_to_null_plan(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, "broken")
    plan = active_plan()
    assert plan.rules == ()  # warned, not crashed
    inject("anything")  # and injection is a no-op


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_selection_is_deterministic_and_order_independent():
    keys = [f"k{i}" for i in range(200)]
    spec = "site:raise:0.3:0"

    def fired(order):
        plan = FaultPlan.from_spec(spec, seed=42)
        hit = set()
        for k in order:
            try:
                plan.inject("site", k)
            except InjectedFault:
                hit.add(k)
        return hit

    forward = fired(keys)
    backward = fired(list(reversed(keys)))
    assert forward == backward
    # rate ~0.3 over 200 keys: loose but meaningful bounds
    assert 30 <= len(forward) <= 90


def test_seed_changes_the_selection():
    keys = [f"k{i}" for i in range(100)]

    def fired(seed):
        plan = FaultPlan.from_spec("s:raise:0.5:0", seed=seed)
        return {k for k in keys
                if _raises(lambda k=k: plan.inject("s", k))}

    assert fired(1) != fired(2)


def _raises(fn):
    try:
        fn()
        return False
    except InjectedFault:
        return True


def test_times_budget_per_site_key():
    plan = FaultPlan.from_spec("s:raise:1:2")  # twice per key, then clears
    for _ in range(2):
        with pytest.raises(InjectedFault):
            plan.inject("s", "a")
    plan.inject("s", "a")  # third call: fault exhausted
    with pytest.raises(InjectedFault):
        plan.inject("s", "b")  # independent budget per key
    plan.reset()
    with pytest.raises(InjectedFault):
        plan.inject("s", "a")  # reset replays identically


def test_glob_sites_match():
    plan = FaultPlan.from_spec("cache.*:raise")
    with pytest.raises(InjectedFault):
        plan.inject("cache.put", "k")
    plan.inject("history.append", "k")  # no match, no fault


# ---------------------------------------------------------------------------
# Hook flavors
# ---------------------------------------------------------------------------


def test_corrupt_flips_bytes_deterministically():
    data = json.dumps({"v": list(range(50))}).encode()
    plan1 = FaultPlan.from_spec("w:corrupt:1:0:4", seed=7)
    plan2 = FaultPlan.from_spec("w:corrupt:1:0:4", seed=7)
    out1 = plan1.corrupt("w", data, "k")
    out2 = plan2.corrupt("w", data, "k")
    assert out1 == out2 != data
    assert len(out1) == len(data)


def test_garbage_replaces_value_with_non_dict():
    plan = FaultPlan.from_spec("r:garbage")
    value = plan.garbage("r", {"real": 1}, "k")
    assert not isinstance(value, dict)
    assert plan.garbage("r", {"real": 1}, "k") == {"real": 1}  # budget spent


def test_inject_counts_and_logs(caplog):
    plan = FaultPlan.from_spec("s:raise:1:0")
    with caplog.at_level("INFO", logger="repro.resilience.faults"):
        for _ in range(3):
            with pytest.raises(InjectedFault):
                plan.inject("s", "k")
    assert plan.counts() == {"s/raise": 3}
    assert plan.total_injected() == 3
    assert sum("fault_injected" in r.getMessage()
               for r in caplog.records) == 3


# ---------------------------------------------------------------------------
# Active-plan resolution
# ---------------------------------------------------------------------------


def test_installed_plan_beats_env_plan(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, "s:raise")
    with fault_plan(None):  # explicit null install masks the env
        inject("s", "k")
    with pytest.raises(InjectedFault):
        inject("s", "k")  # env plan visible again


def test_fault_plan_contextmanager_restores(monkeypatch):
    with fault_plan("s:raise", seed=3) as plan:
        assert active_plan() is plan
        with pytest.raises(InjectedFault):
            inject("s", "k")
    inject("s", "k")  # back to the null plan


def test_env_plan_reparsed_on_change(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, "a:raise")
    with pytest.raises(InjectedFault):
        inject("a")
    monkeypatch.setenv(FAULTS_ENV, "b:raise")
    inject("a")  # old rule gone
    with pytest.raises(InjectedFault):
        inject("b")


def test_injected_fault_carries_context():
    with fault_plan("site.x:raise"):
        with pytest.raises(InjectedFault) as exc:
            inject("site.x", "key-1")
    assert exc.value.site == "site.x"
    assert exc.value.key == "key-1"
    assert exc.value.attempt == 1
    assert isinstance(exc.value, ReproError)
