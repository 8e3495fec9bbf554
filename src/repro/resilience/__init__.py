"""Resilience layer: deterministic fault injection, bounded retry,
crash-safe persistence.

The paper's results come from long auto-search sweeps (Sec. 4 / Alg. 2)
and overflow-limited accumulation chains (Sec. 3.3) — precisely the
places a production serving stack fails ungracefully: one bad candidate,
one torn cache write, one out-of-range chain configuration used to abort
the whole run.  This package makes every such path survivable and makes
the failures themselves *reproducible*:

:mod:`repro.resilience.faults`
    A deterministic, env/config-driven fault-injection framework.
    ``inject("autotune.profile", key=digest)`` hooks are wired into named
    sites across the cache, the GPU autotuner, the runtime executor and
    the serving simulator;
    a seeded :class:`FaultPlan` (``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED``)
    decides — purely from ``(seed, site, key)`` — whether a call raises,
    delays, corrupts bytes or returns garbage, so chaos runs replay
    bit-identically regardless of thread scheduling.

:mod:`repro.resilience.policy`
    One bounded retry loop with no timers (``REPRO_RETRY``; profile runs
    retry at once, the serving simulator backs off on its virtual clock),
    and a :class:`Quarantine` for inputs that keep failing — search
    sweeps skip quarantined candidates and continue over the survivors
    instead of dying.

:mod:`repro.resilience.breaker`
    The serving simulator's per-backend circuit breaker: closed, open,
    and one half-open probe once its open interval has passed.

:mod:`repro.resilience.atomic`
    Crash-safe persistence: write-temp/fsync/rename for whole files, one
    JSONL line reader, and a quarantine that moves corrupt files into a
    ``.quarantine/`` sibling instead of raising.

:mod:`repro.resilience.chaos`
    The ``python -m repro chaos`` smoke runner: reprices/autotunes under
    a canned fault plan and asserts the invariants (same winners as the
    fault-free run, no partial files, stable exit codes).
"""

from .atomic import (
    atomic_write_json,
    atomic_write_text,
    quarantine_file,
)
from .faults import (
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
from .breaker import CircuitBreaker
from .policy import (
    DeadlineExceeded,
    ExecPolicy,
    PermanentFailure,
    Quarantine,
    call_with_policy,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_plan",
    "fault_plan",
    "inject",
    "install_plan",
    "maybe_corrupt",
    "maybe_garbage",
    "CircuitBreaker",
    "DeadlineExceeded",
    "ExecPolicy",
    "PermanentFailure",
    "Quarantine",
    "call_with_policy",
    "atomic_write_json",
    "atomic_write_text",
    "quarantine_file",
]
