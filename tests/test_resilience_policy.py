"""Bounded retry, backoff on the caller's clock, deadline, quarantine."""

import pytest

from repro.errors import ReproError
from repro.resilience.policy import (
    RETRY_ENV,
    DeadlineExceeded,
    ExecPolicy,
    PermanentFailure,
    Quarantine,
    call_with_policy,
)


# ---------------------------------------------------------------------------
# Policy resolution
# ---------------------------------------------------------------------------


def test_defaults(monkeypatch):
    monkeypatch.delenv(RETRY_ENV, raising=False)
    policy = ExecPolicy.resolve()
    assert policy.retries == 2
    assert policy.backoff_s == 0.0  # profile runs retry at once


def test_env_overrides(monkeypatch):
    monkeypatch.setenv(RETRY_ENV, "5")
    policy = ExecPolicy.resolve()
    assert policy.retries == 5
    assert policy.backoff_s == 0.0


def test_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(RETRY_ENV, "5")
    assert ExecPolicy.resolve(retries=1).retries == 1


def test_garbage_env_falls_back(monkeypatch):
    monkeypatch.setenv(RETRY_ENV, "lots")
    assert ExecPolicy.resolve().retries == 2


def test_negative_retries_clamp_to_zero(monkeypatch):
    monkeypatch.setenv(RETRY_ENV, "-3")
    assert ExecPolicy.resolve().retries == 0  # env path
    assert ExecPolicy.resolve(retries=-7).retries == 0  # explicit path


# ---------------------------------------------------------------------------
# Retry semantics
# ---------------------------------------------------------------------------


def test_transient_failure_succeeds_on_retry():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise ReproError("transient")
        return "winner"

    policy = ExecPolicy(retries=2, backoff_s=0.0)
    assert call_with_policy(flaky, site="t", policy=policy) == "winner"
    assert len(calls) == 3


def test_permanent_failure_wraps_last_error():
    def dead():
        raise ReproError("always")

    policy = ExecPolicy(retries=2, backoff_s=0.0)
    with pytest.raises(PermanentFailure) as exc:
        call_with_policy(dead, site="t", key="k1", policy=policy)
    assert exc.value.attempts == 3
    assert exc.value.site == "t" and exc.value.key == "k1"
    assert isinstance(exc.value.last, ReproError)
    assert isinstance(exc.value, ReproError)  # catchable as a library error


def test_non_library_errors_propagate_immediately():
    calls = []

    def buggy():
        calls.append(1)
        raise TypeError("programming error")

    policy = ExecPolicy(retries=5, backoff_s=0.0)
    with pytest.raises(TypeError):
        call_with_policy(buggy, site="t", policy=policy)
    assert len(calls) == 1  # never retried


def test_backoff_is_exponential_and_deterministic():
    sleeps = []

    def dead():
        raise ReproError("x")

    policy = ExecPolicy(retries=3, backoff_s=0.1)
    with pytest.raises(PermanentFailure):
        call_with_policy(dead, site="t", policy=policy, sleep=sleeps.append)
    assert sleeps == pytest.approx([0.1, 0.2, 0.4])


def test_zero_retries_means_one_attempt():
    calls = []

    def dead():
        calls.append(1)
        raise ReproError("x")

    with pytest.raises(PermanentFailure):
        call_with_policy(
            dead, site="t", policy=ExecPolicy(retries=0, backoff_s=0.0))
    assert len(calls) == 1


def test_retry_metrics_counted():
    from repro.obs import metrics as obs_metrics

    obs_metrics.reset()

    def dead():
        raise ReproError("x")

    with pytest.raises(PermanentFailure):
        call_with_policy(
            dead, site="msite", policy=ExecPolicy(retries=2, backoff_s=0.0))
    snap = obs_metrics.snapshot()["counters"]
    assert snap["resilience_retries{site=msite}"] == 2
    assert snap["resilience_permanent_failures{site=msite}"] == 1
    obs_metrics.reset()


# ---------------------------------------------------------------------------
# Deadline propagation
# ---------------------------------------------------------------------------


class FakeClock:
    """A hand-cranked ``now``/``sleep`` pair for deadline tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.t = start
        self.sleeps = []

    def now(self) -> float:
        return self.t

    def sleep(self, dt: float) -> None:
        assert dt >= 0
        self.sleeps.append(dt)
        self.t += dt


def test_deadline_already_passed_raises_without_an_attempt():
    clock = FakeClock(start=10.0)
    calls = []

    with pytest.raises(PermanentFailure) as exc:
        call_with_policy(
            lambda: calls.append(1), site="d", key="k",
            policy=ExecPolicy(retries=3, backoff_s=0.0),
            deadline=5.0, now=clock.now, sleep=clock.sleep)
    assert calls == []  # never started
    assert exc.value.attempts == 0
    assert isinstance(exc.value.last, DeadlineExceeded)
    assert exc.value.last.deadline == 5.0


def test_deadline_stops_retries_mid_sequence():
    clock = FakeClock()
    calls = []

    def dead():
        calls.append(1)
        clock.t += 3.0  # each attempt burns 3s of virtual time
        raise ReproError("x")

    with pytest.raises(PermanentFailure) as exc:
        call_with_policy(
            dead, site="d",
            policy=ExecPolicy(retries=10, backoff_s=0.0),
            deadline=5.0, now=clock.now, sleep=clock.sleep)
    # attempt 1 at t=0 (ends t=3), attempt 2 at t=3 (ends t=6); the
    # eleven-attempt budget is cut off by the deadline at t=5
    assert len(calls) == 2
    assert isinstance(exc.value.last, ReproError)  # the real error, kept


def test_deadline_caps_backoff_sleep():
    clock = FakeClock()

    def dead():
        clock.t += 1.0
        raise ReproError("x")

    with pytest.raises(PermanentFailure):
        call_with_policy(
            dead, site="d",
            policy=ExecPolicy(retries=2, backoff_s=10.0),
            deadline=1.5, now=clock.now, sleep=clock.sleep)
    # the first backoff (10s nominal) is capped to the 0.5s remaining
    assert clock.sleeps == pytest.approx([0.5])


def test_no_deadline_is_the_old_behavior():
    policy = ExecPolicy(retries=1, backoff_s=0.0)
    assert call_with_policy(lambda: 42, site="d", policy=policy) == 42


# ---------------------------------------------------------------------------
# Quarantine
# ---------------------------------------------------------------------------


def test_quarantine_set_semantics():
    q = Quarantine("test.site")
    assert not q.contains("a") and len(q) == 0
    q.add("a", reason="it died")
    q.add("a", reason="it died again")  # idempotent membership
    q.add("b")
    assert q.contains("a") and q.contains("b")
    assert len(q) == 2
    assert q.entries()["a"] == "it died again"
    q.clear()
    assert len(q) == 0 and not q.contains("a")


def test_quarantine_counts_fresh_entries_only():
    from repro.obs import metrics as obs_metrics

    obs_metrics.reset()
    q = Quarantine("qsite")
    q.add("x")
    q.add("x")
    q.add("y")
    snap = obs_metrics.snapshot()["counters"]
    assert snap["resilience_quarantined{site=qsite}"] == 2
    obs_metrics.reset()
