"""Circuit breaker state machine.

The serving simulator's correctness under chaos reduces to this state
machine behaving exactly: closed -> (threshold failures) -> open ->
(``open_s``) -> half_open probe -> closed on success / back to open on
failure.  Everything runs on a hand-cranked clock — no wall time, no
sleeps.
"""

import pytest

from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


class Clock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture()
def clock():
    return Clock()


def make(clock, threshold=3, open_s=1.0):
    return CircuitBreaker(
        "gpu", failure_threshold=threshold, open_s=open_s, now=clock)


def test_starts_closed_and_grants_traffic(clock):
    br = make(clock)
    assert br.state() == CLOSED
    assert br.acquire() == CLOSED
    assert br.opens == 0 and br.closes == 0


def test_threshold_consecutive_failures_trip_open(clock):
    br = make(clock, threshold=3)
    br.record_failure()
    br.record_failure()
    assert br.state() == CLOSED  # two failures: still below threshold
    br.record_failure()
    assert br.state() == OPEN
    assert br.opens == 1
    assert br.acquire() == OPEN  # traffic diverted


def test_success_resets_the_consecutive_count(clock):
    br = make(clock, threshold=3)
    br.record_failure()
    br.record_failure()
    br.record_success()  # interleaved success: not consecutive any more
    br.record_failure()
    br.record_failure()
    assert br.state() == CLOSED
    br.record_failure()
    assert br.state() == OPEN


def test_probe_granted_once_after_open_interval(clock):
    br = make(clock, open_s=1.0)
    for _ in range(3):
        br.record_failure()
    clock.t = 0.5
    assert br.acquire() == OPEN  # too early
    clock.t = 1.0
    assert br.acquire() == "probe"  # exactly one ticket
    assert br.state() == HALF_OPEN
    assert br.acquire() == OPEN  # concurrent caller keeps browning out


def test_probe_success_closes_and_counts(clock):
    br = make(clock, open_s=1.0)
    for _ in range(3):
        br.record_failure()
    clock.t = 2.0
    assert br.acquire() == "probe"
    br.record_success()
    assert br.state() == CLOSED
    assert br.closes == 1
    assert br.acquire() == CLOSED
    # the transition log tells the whole story in order
    assert [s for _, s in br.transitions] == [OPEN, HALF_OPEN, CLOSED]


def test_probe_failure_re_arms_the_open_interval(clock):
    br = make(clock, open_s=1.0)
    for _ in range(3):
        br.record_failure()
    clock.t = 1.0
    assert br.acquire() == "probe"
    br.record_failure()
    assert br.state() == OPEN
    assert br.probe_failures == 1
    clock.t = 1.5
    assert br.acquire() == OPEN  # open interval restarted at the probe failure
    clock.t = 2.0
    assert br.acquire() == "probe"


def test_straggler_failure_reports_while_open_are_ignored(clock):
    br = make(clock)
    for _ in range(3):
        br.record_failure()
    assert br.opens == 1
    br.record_failure()  # an in-flight batch reporting after the trip
    br.record_failure()
    assert br.opens == 1  # not double-counted, no re-arm spam
    assert [s for _, s in br.transitions] == [OPEN]


def test_explicit_now_beats_the_constructor_clock(clock):
    br = make(clock, open_s=1.0)
    for _ in range(3):
        br.record_failure(now=5.0)
    assert br.acquire(now=5.5) == OPEN
    assert br.acquire(now=6.0) == "probe"


def test_failure_threshold_validation(clock):
    with pytest.raises(ValueError):
        CircuitBreaker("x", failure_threshold=0, now=clock)


@pytest.mark.parametrize("open_s", [0, -1.0, float("nan")])
def test_open_interval_validation(clock, open_s):
    with pytest.raises(ValueError):
        CircuitBreaker("x", open_s=open_s, now=clock)
