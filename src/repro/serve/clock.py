"""The virtual clock every serving component runs on.

A 50k-request replay must be fast, bit-reproducible, and independent of
the host's scheduler — so no serving code ever reads wall time.  Time is
a float microsecond counter advanced explicitly by the event loop, with
monotonicity enforced (an attempted backwards step is a simulator bug
and raises immediately rather than silently corrupting latencies).

Two views exist on purpose:

* the **event clock** — the single global timeline the discrete-event
  loop advances as it pops events;
* **lane clocks** (:meth:`VirtualClock.fork`) — a scratch copy handed to
  one batch execution, whose ``sleep_s`` models service time, fault
  detection, and retry backoff *locally*.  The lane's final reading
  becomes the batch's completion event on the global timeline, so
  in-flight work never has to mutate global time out of order.

The seconds-facing pair (:meth:`now_s` / :meth:`sleep_s`) plugs straight
into :func:`repro.resilience.policy.call_with_policy` as its ``now`` and
``sleep`` hooks — the deadline check and the ``backoff_ms`` backoff run
on virtual time.
"""

from __future__ import annotations

from ..errors import ReproError


class ClockError(ReproError):
    """A component tried to move a virtual clock backwards."""


class VirtualClock:
    """A monotonic float-microsecond counter advanced explicitly."""

    __slots__ = ("_now_us",)

    def __init__(self, start_us: float = 0.0) -> None:
        self._now_us = float(start_us)

    @property
    def now_us(self) -> float:
        return self._now_us

    def now_s(self) -> float:
        """Seconds view (the ``now`` hook for ``call_with_policy``)."""
        return self._now_us / 1e6

    def advance_to_us(self, t_us: float) -> None:
        """Jump to the absolute instant ``t_us`` (>= now)."""
        if t_us < self._now_us - 1e-9:
            raise ClockError(
                f"virtual clock cannot run backwards: "
                f"{self._now_us:.3f}us -> {t_us:.3f}us")
        if t_us > self._now_us:
            self._now_us = float(t_us)

    def advance_us(self, dt_us: float) -> None:
        """Advance by a relative duration ``dt_us`` (>= 0)."""
        if dt_us < 0:
            raise ClockError(f"negative advance: {dt_us}us")
        self._now_us += float(dt_us)

    def sleep_s(self, dt_s: float) -> None:
        """Seconds view of :meth:`advance_us` (the ``sleep`` hook)."""
        self.advance_us(dt_s * 1e6)

    def fork(self) -> "VirtualClock":
        """An independent lane clock starting at this clock's instant."""
        return VirtualClock(self._now_us)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VirtualClock {self._now_us:.3f}us>"
