"""Deterministic, env/config-driven fault injection.

Chaos engineering only pays off when a failing run can be replayed, so
every decision here is a pure function of ``(plan seed, site, key,
attempt)`` — never of wall-clock time, thread scheduling or a shared RNG
stream.  Two runs with the same plan inject the same faults at the same
operations even if threads interleave them differently.

Usage::

    from repro.resilience import faults

    faults.inject("autotune.profile", key=digest)   # may raise/delay
    data = faults.maybe_corrupt("cache.put", data, key=digest)
    value = faults.maybe_garbage("cache.get", value, key=digest)

Sites are dotted names (``cache.put``, ``autotune.profile``,
``history.append``, ...); rules match them with ``fnmatch`` globs.  The
active plan comes from :func:`install_plan` / :func:`fault_plan`, or —
when neither was called — from the ``REPRO_FAULTS`` environment variable
(re-read whenever it changes, so tests can flip it mid-process).

Spec grammar (rules separated by ``;``)::

    REPRO_FAULTS="site_glob:kind[:rate[:times[:param]]][;...]"
    REPRO_FAULTS_SEED=1234

* ``kind`` — ``raise`` | ``delay`` | ``corrupt`` | ``garbage``
* ``rate`` — fraction of *keys* selected, default 1.0; selection hashes
  ``(seed, site, key)`` so one key fails consistently across retries of
  unrelated keys
* ``times`` — injections per (site, key) before the fault clears
  (``0`` = unlimited), default 1: the transient-fault model, absorbed by
  one retry
* ``param`` — seconds for ``delay`` (default 0.05), flipped bytes for
  ``corrupt`` (default 8)

Every firing increments ``faults_injected{site=,kind=}`` in
:mod:`repro.obs.metrics`, logs a ``fault_injected`` event, and drops a
structured instant marker (:func:`repro.obs.trace.instant`) so chaos
runs are replayable span-by-span.
"""

from __future__ import annotations

import contextlib
import fnmatch
import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..errors import ReproError
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace

#: environment variable carrying the fault-plan spec
FAULTS_ENV = "REPRO_FAULTS"
#: environment variable seeding the deterministic key selection
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"

KINDS = ("raise", "delay", "corrupt", "garbage")


class InjectedFault(ReproError):
    """The error raised by a ``raise``-kind fault (library-catchable)."""

    def __init__(self, site: str, key: str, attempt: int) -> None:
        super().__init__(
            f"injected fault at {site!r} (key={key!r}, attempt={attempt})"
        )
        self.site = site
        self.key = key
        self.attempt = attempt


@dataclass(frozen=True)
class FaultRule:
    """One site-glob -> fault mapping inside a :class:`FaultPlan`."""

    site: str
    kind: str
    rate: float = 1.0
    #: injections per (site, key) before the fault clears; 0 = unlimited
    times: int = 1
    #: delay seconds / corrupted byte count, depending on ``kind``
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; one of {', '.join(KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ReproError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.times < 0:
            raise ReproError(f"fault times must be >= 0, got {self.times}")

    def matches(self, site: str) -> bool:
        return fnmatch.fnmatchcase(site, self.site)


def _selects(seed: int, site: str, key: str, rate: float) -> bool:
    """Deterministic key selection: hash(seed, site, key) < rate."""
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    blob = f"{seed}\0{site}\0{key}".encode("utf-8")
    frac = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / 2**64
    return frac < rate


class FaultPlan:
    """An ordered rule list plus the per-(site, key) firing ledger.

    The first matching rule wins per ``inject``/``maybe_*`` call of its
    kind class (``raise``/``delay`` fire from :func:`inject`; ``corrupt``
    and ``garbage`` fire from their dedicated hooks, so a plan can layer
    a delay and a corruption on one site).
    """

    def __init__(self, rules: Iterable[FaultRule], *, seed: int = 0) -> None:
        self.rules = tuple(rules)
        self.seed = seed
        self._fired: dict[tuple[str, str, int], int] = {}
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, *, seed: int = 0) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see module docstring)."""
        rules: list[FaultRule] = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) < 2:
                raise ReproError(
                    f"bad fault rule {chunk!r}: want site:kind[:rate[:times[:param]]]"
                )
            site, kind = parts[0].strip(), parts[1].strip()
            try:
                rate = float(parts[2]) if len(parts) > 2 and parts[2] else 1.0
                times = int(parts[3]) if len(parts) > 3 and parts[3] else 1
                param = float(parts[4]) if len(parts) > 4 and parts[4] else 0.0
            except ValueError as exc:
                raise ReproError(f"bad fault rule {chunk!r}: {exc}") from None
            rules.append(FaultRule(site, kind, rate=rate, times=times, param=param))
        return cls(rules, seed=seed)

    # -- bookkeeping ---------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Injections so far, per ``site/kind``."""
        with self._lock:
            return dict(self._counts)

    def total_injected(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    def reset(self) -> None:
        """Forget every firing (a fresh chaos round replays identically)."""
        with self._lock:
            self._fired.clear()
            self._counts.clear()

    def _fire(self, rule: FaultRule, site: str, key: str) -> int | None:
        """Attempt number if the rule fires for (site, key), else None."""
        if not _selects(self.seed, site, key, rule.rate):
            return None
        ledger_key = (site, key, id(rule))
        with self._lock:
            attempt = self._fired.get(ledger_key, 0) + 1
            if rule.times and attempt > rule.times:
                return None
            self._fired[ledger_key] = attempt
            stat = f"{site}/{rule.kind}"
            self._counts[stat] = self._counts.get(stat, 0) + 1
        obs_metrics.counter("faults_injected", site=site, kind=rule.kind).inc()
        obs_log.info(
            "fault_injected", logger="repro.resilience.faults",
            site=site, key=key, kind=rule.kind, attempt=attempt,
        )
        # structured marker: a chaos run's injections replay right next
        # to the spans they perturbed
        obs_trace.instant(
            "fault_injected", cat="fault",
            site=site, key=key, kind=rule.kind, attempt=attempt,
        )
        return attempt

    def selects(self, site: str, key: str) -> bool:
        """Whether :meth:`inject` may fault ``key`` at ``site`` (a pure
        function of seed, site and key, the firing ledger aside)."""
        return any(
            rule.kind in ("raise", "delay") and rule.matches(site)
            and _selects(self.seed, site, key, rule.rate)
            for rule in self.rules
        )

    # -- the three hook flavors ---------------------------------------------

    def inject(self, site: str, key: str = "") -> None:
        """Fire any matching ``raise``/``delay`` rule for this call."""
        for rule in self.rules:
            if rule.kind not in ("raise", "delay") or not rule.matches(site):
                continue
            attempt = self._fire(rule, site, key)
            if attempt is None:
                continue
            if rule.kind == "delay":
                time.sleep(rule.param if rule.param > 0 else 0.05)
            else:
                raise InjectedFault(site, key, attempt)

    def corrupt(self, site: str, data: bytes, key: str = "") -> bytes:
        """Deterministically flip bytes when a ``corrupt`` rule fires."""
        for rule in self.rules:
            if rule.kind != "corrupt" or not rule.matches(site):
                continue
            if self._fire(rule, site, key) is None:
                continue
            n = max(1, int(rule.param) or 8)
            out = bytearray(data)
            if not out:
                return b"\xff" * n
            digest = hashlib.sha256(
                f"{self.seed}\0{site}\0{key}".encode("utf-8")).digest()
            for i in range(min(n, len(out))):
                pos = int.from_bytes(
                    digest[(2 * i) % 32: (2 * i) % 32 + 2], "big") % len(out)
                out[pos] ^= 0xFF
            return bytes(out)
        return data

    def garbage(self, site: str, value: Any, key: str = "") -> Any:
        """Replace ``value`` with type-confusing garbage when fired."""
        for rule in self.rules:
            if rule.kind != "garbage" or not rule.matches(site):
                continue
            if self._fire(rule, site, key) is None:
                continue
            # not a dict, not JSON-round-trippable to the original: the
            # classic "cache returned nonsense" failure shape
            return ["\x00garbage", site, key]
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultPlan seed={self.seed} rules={len(self.rules)}>"


#: a plan that never fires — the default when no faults are configured
NULL_PLAN = FaultPlan(())


# ---------------------------------------------------------------------------
# The active plan (install > env > null)
# ---------------------------------------------------------------------------

_ACTIVE: FaultPlan | None = None
_ENV_CACHE: tuple[str, str, FaultPlan] | None = None
_STATE_LOCK = threading.Lock()


def install_plan(plan: FaultPlan | None) -> None:
    """Make ``plan`` the process-wide active plan (None uninstalls)."""
    global _ACTIVE
    with _STATE_LOCK:
        _ACTIVE = plan


@contextlib.contextmanager
def fault_plan(plan: "FaultPlan | str | None", *, seed: int = 0):
    """Scoped :func:`install_plan` (a spec string is parsed first).

    Unlike ``install_plan(None)``, ``fault_plan(None)`` installs the
    *null* plan: inside the block no fault fires, even when
    ``REPRO_FAULTS`` is set.  That is how chaos scenarios take a
    fault-free baseline while the CI job keeps the env plan exported.
    """
    if plan is None:
        plan = NULL_PLAN
    elif isinstance(plan, str):
        plan = FaultPlan.from_spec(plan, seed=seed)
    global _ACTIVE
    with _STATE_LOCK:
        prev = _ACTIVE
        _ACTIVE = plan
    try:
        yield plan
    finally:
        with _STATE_LOCK:
            _ACTIVE = prev


def _env_plan() -> FaultPlan:
    """The plan described by ``REPRO_FAULTS`` (cached per env value)."""
    global _ENV_CACHE
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return NULL_PLAN
    seed_text = os.environ.get(FAULTS_SEED_ENV, "").strip()
    with _STATE_LOCK:
        if _ENV_CACHE is not None and _ENV_CACHE[:2] == (spec, seed_text):
            return _ENV_CACHE[2]
    try:
        seed = int(seed_text) if seed_text else 0
    except ValueError:
        seed = 0
    try:
        plan = FaultPlan.from_spec(spec, seed=seed)
    except ReproError as exc:
        # a broken env spec must never take the library down; warn once
        obs_log.warning(
            "fault_spec_invalid", logger="repro.resilience.faults",
            spec=spec, error=str(exc),
        )
        plan = NULL_PLAN
    with _STATE_LOCK:
        _ENV_CACHE = (spec, seed_text, plan)
    return plan


def active_plan() -> FaultPlan:
    """Installed plan > ``REPRO_FAULTS`` plan > the never-firing null plan."""
    with _STATE_LOCK:
        if _ACTIVE is not None:
            return _ACTIVE
    return _env_plan()


# ---------------------------------------------------------------------------
# Module-level hooks (what instrumented sites call)
# ---------------------------------------------------------------------------


def inject(site: str, key: str = "") -> None:
    """Raise/delay here if the active plan says so; no-op otherwise."""
    plan = active_plan()
    if plan.rules:
        plan.inject(site, key)


def maybe_corrupt(site: str, data: bytes, key: str = "") -> bytes:
    """Corrupted ``data`` if a corrupt rule fires, else ``data`` unchanged."""
    plan = active_plan()
    if plan.rules:
        return plan.corrupt(site, data, key)
    return data


def maybe_garbage(site: str, value: Any, key: str = "") -> Any:
    """Garbage replacement for ``value`` if a garbage rule fires."""
    plan = active_plan()
    if plan.rules:
        return plan.garbage(site, value, key)
    return value
