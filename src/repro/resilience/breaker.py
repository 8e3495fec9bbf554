"""Per-backend circuit breakers.

The serving layer (:mod:`repro.serve`) dispatches batches to a priced
backend.  A backend that starts failing every batch must be cut off
*quickly* (each failed batch burns its requests' deadlines in retries)
but re-admitted *automatically* once it heals — the classic three-state
circuit breaker:

``closed``
    Normal traffic.  Failures increment a consecutive-failure count;
    hitting ``failure_threshold`` trips the breaker open (successes
    reset the count).
``open``
    All traffic is diverted (the caller browns out to its fallback).
    Once ``open_s`` has passed on the breaker's clock since it opened,
    :meth:`CircuitBreaker.acquire` grants exactly one probe ticket.
``half_open``
    One probe is in flight on the real backend.  Success closes the
    breaker (full re-admission); failure re-arms ``open_s`` and returns
    to open.

All timing runs on the injected ``now`` callable, so the serving
simulator drives breakers on its virtual clock and chaos replays are
deterministic.  Transitions are kept on :attr:`transitions` for the
serve summary and recorded as ``breaker_transition`` trace markers.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

from ..obs import trace as obs_trace

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Three-state breaker for one named resource (a serving backend).

    Not thread-safe by design: the serving simulator is a single-threaded
    event loop, and determinism there matters more than lock overhead
    here.  Wrap in a lock if a future caller is concurrent.
    """

    def __init__(
        self,
        name: str,
        *,
        failure_threshold: int = 3,
        open_s: float = 1.0,
        now: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if not open_s > 0:  # NaN too
            raise ValueError(f"open_s must be > 0, got {open_s}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.open_s = open_s
        self._now = now
        self._state = CLOSED
        self._since = 0.0  # the instant of the last transition
        self._consecutive_failures = 0
        self.opens = 0
        self.closes = 0
        self.probe_failures = 0
        #: (time_s, new_state) transition log, for the serve summary
        self.transitions: List[Tuple[float, str]] = []

    # -- state ---------------------------------------------------------------

    def state(self) -> str:
        """Current state without consuming a probe ticket."""
        return self._state

    def suspect(self) -> bool:
        """Closed but with recent (un-reset) failures: the window between
        the first permanent failure and the trip.  Callers that *price*
        future work (admission control) should assume degraded service
        here — the backend may be about to go down, and optimistic
        admissions in this window are the ones that die in the queue."""
        return self._consecutive_failures > 0

    def _transition(self, to: str, at: float) -> None:
        self._state, self._since = to, at
        self.transitions.append((at, to))
        obs_trace.instant(
            "breaker_transition", cat="serve", breaker=self.name, to=to)

    # -- the dispatch-side protocol ------------------------------------------

    def acquire(self, now: float | None = None) -> str:
        """Ask permission to send traffic: ``closed`` | ``probe`` | ``open``.

        ``probe`` means the breaker just went half-open and *this* call
        holds the single probe ticket — the caller must dispatch to the
        real backend and report back via :meth:`record_success` or
        :meth:`record_failure`.  ``open`` callers go to their fallback
        and report nothing.
        """
        if self._state == CLOSED:
            return CLOSED
        at = self._now() if now is None else now
        if self._state == OPEN and not at - self._since < self.open_s:
            self._transition(HALF_OPEN, at)
            return "probe"
        return OPEN

    def record_success(self, now: float | None = None) -> None:
        """A dispatch on the real backend succeeded (probe or closed)."""
        self._consecutive_failures = 0
        if self._state != CLOSED:
            self.closes += 1
            self._transition(CLOSED, self._now() if now is None else now)

    def record_failure(self, now: float | None = None) -> None:
        """A dispatch on the real backend failed permanently."""
        if self._state == OPEN:
            return  # not probing: a straggler report, ignore
        at = self._now() if now is None else now
        if self._state == HALF_OPEN:
            # re-arm: back to open, the interval restarts from the failure
            self.probe_failures += 1
            self._transition(OPEN, at)
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            self.opens += 1
            self._consecutive_failures = 0
            self._transition(OPEN, at)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CircuitBreaker {self.name!r} state={self.state()} "
                f"opens={self.opens} closes={self.closes}>")
