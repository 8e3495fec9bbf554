"""Bounded retry and quarantine: one retry loop, no timers.

TVM-style operator autotuners survive thousands of failing candidates by
isolating each profile run and skipping the ones that keep dying (Cowan
et al.).  Here a profile run is a deterministic cost-model evaluation,
so the isolation is one retry loop around ``fn()``, in
:func:`call_with_policy`:

* **bounded retry** — library errors (:class:`~repro.errors.ReproError`,
  which includes injected faults) are retried up to ``retries`` times;
  anything else (a programming error like ``TypeError``) propagates on
  the first attempt, as an unguarded call would.  Profile runs retry at
  once; the serving simulator sets ``backoff_s`` from
  ``ServeConfig.backoff_ms`` and sleeps ``backoff_s * 2**attempt`` on its
  virtual clock;
* **permanent failure** — when every attempt fails the last error is
  re-raised wrapped in :class:`PermanentFailure`, and the caller decides:
  the autotuner quarantines the candidate (:class:`Quarantine`) and
  continues over the survivors, the serving simulator reports to its
  circuit breaker and serves the batch on the fallback;
* **deadline propagation** — an absolute ``deadline`` (on the caller's
  ``now`` timebase, the serving simulator's virtual clock) caps every
  backoff sleep: a retry that would outlive the caller's deadline is
  wasted work and is not started.

``REPRO_RETRY`` (retries after the first attempt, default 2, read per
call so tests can flip it) is the one environment knob.

Everything lands in metrics: ``resilience_retries{site=}``,
``resilience_permanent_failures{site=}``,
``resilience_deadline_exceeded{site=}``, ``resilience_quarantined{site=}``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from ..errors import ReproError
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics

T = TypeVar("T")

RETRY_ENV = "REPRO_RETRY"

_DEFAULT_RETRIES = 2


class PermanentFailure(ReproError):
    """Every attempt of a policy-guarded call failed."""

    def __init__(self, site: str, key: str, attempts: int,
                 last: BaseException) -> None:
        super().__init__(
            f"{site!r} failed permanently after {attempts} attempt(s) "
            f"(key={key!r}): {type(last).__name__}: {last}"
        )
        self.site = site
        self.key = key
        self.attempts = attempts
        self.last = last


class DeadlineExceeded(ReproError):
    """The caller's absolute deadline passed before the call could finish
    (or before a retry could usefully start)."""

    def __init__(self, site: str, deadline: float) -> None:
        super().__init__(f"{site!r} deadline {deadline:g} exceeded")
        self.site = site
        self.deadline = deadline


@dataclass(frozen=True)
class ExecPolicy:
    """Retry knobs for one class of guarded calls: ``retries`` after the
    first attempt, and the base of the exponential backoff between them
    (0, the default, retries at once)."""

    retries: int = _DEFAULT_RETRIES
    backoff_s: float = 0.0

    @classmethod
    def resolve(cls, *, retries: int | None = None) -> "ExecPolicy":
        """Explicit ``retries`` > ``REPRO_RETRY`` > the default.

        A malformed env value falls back to the default, and a negative
        count clamps to 0 (one attempt, never zero).
        """
        if retries is None:
            try:
                retries = int(os.environ.get(RETRY_ENV, "").strip()
                              or _DEFAULT_RETRIES)
            except ValueError:
                retries = _DEFAULT_RETRIES
        return cls(retries=max(0, retries))


def call_with_policy(
    fn: Callable[[], T],
    *,
    site: str,
    key: str = "",
    policy: ExecPolicy | None = None,
    sleep: Callable[[float], None] = time.sleep,
    deadline: float | None = None,
    now: Callable[[], float] = time.monotonic,
) -> T:
    """``fn()`` under bounded retry; raises :class:`PermanentFailure`.

    ``deadline`` is an *absolute* instant on the ``now`` timebase; the
    serving simulator passes its virtual clock as ``now`` and ``sleep``.
    When set, it caps every backoff sleep at the time remaining and
    refuses to start an attempt once the deadline has passed — a retry
    must never outlive the request that asked for it.  Running out of
    deadline raises :class:`PermanentFailure` whose ``last`` is the prior
    error, or :class:`DeadlineExceeded` when no attempt ever ran.
    """
    policy = policy if policy is not None else ExecPolicy.resolve()
    attempts = policy.retries + 1
    last: BaseException | None = None
    tried = 0
    for attempt in range(attempts):
        if deadline is not None and deadline - now() <= 0:
            obs_metrics.counter(
                "resilience_deadline_exceeded", site=site).inc()
            if last is None:
                last = DeadlineExceeded(site, deadline)
            break
        tried += 1
        try:
            return fn()
        except ReproError as exc:
            last = exc
        if attempt + 1 < attempts:
            obs_metrics.counter("resilience_retries", site=site).inc()
            obs_log.info(
                "call_retry", logger="repro.resilience.policy",
                site=site, key=key, attempt=attempt + 1,
                error=type(last).__name__,
            )
            if policy.backoff_s > 0:
                delay = policy.backoff_s * (2 ** attempt)
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline - now()))
                if delay > 0:
                    sleep(delay)
    assert last is not None
    obs_metrics.counter("resilience_permanent_failures", site=site).inc()
    obs_log.warning(
        "call_permanent_failure", logger="repro.resilience.policy",
        site=site, key=key, attempts=tried, error=type(last).__name__,
    )
    raise PermanentFailure(site, key, tried, last)


class Quarantine:
    """Inputs that failed permanently and should be skipped, per site.

    A thin thread-safe set with failure provenance; sweeps consult
    :meth:`contains` up front (skipping costs nothing) and :meth:`add`
    on :class:`PermanentFailure`.  Entries last for the process: a
    simulated profile run is deterministic, so a candidate that failed
    every attempt stays broken.  In-process only by design: a quarantined
    *simulated* candidate is a code bug or an injected fault, and pinning
    it across processes would mask the fix.
    """

    def __init__(self, site: str) -> None:
        self.site = site
        self._entries: dict[str, str] = {}  # key -> reason
        self._lock = threading.Lock()

    def add(self, key: str, reason: str = "") -> None:
        """Quarantine ``key`` (re-adding only replaces its reason)."""
        with self._lock:
            fresh = key not in self._entries
            self._entries[key] = reason
        if fresh:
            obs_metrics.counter("resilience_quarantined", site=self.site).inc()
            obs_log.warning(
                "quarantined", logger="repro.resilience.policy",
                site=self.site, key=key, reason=reason,
            )

    def contains(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def entries(self) -> dict[str, str]:
        with self._lock:
            return dict(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
