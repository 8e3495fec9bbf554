"""Always-on flight recorder: trace contexts + a bounded event ring.

The tracer in :mod:`repro.obs.trace` only records while a tracer is
explicitly installed — great for deliberate profiling sessions, useless
for the question "what just happened?".  This module adds the production
side of the story:

* **Trace contexts.**  :class:`TraceContext` is the ``(trace_id,
  span_id, parent_id)`` triple carried in a thread-local.  Every real
  span (see :func:`repro.obs.trace.span`) derives a child context on
  entry and restores its parent on exit, so span records — whichever
  sink they land in — know their position in the request tree.

* **The flight recorder.**  A process-wide, bounded ring buffer
  (:class:`FlightRecorder`, default :data:`DEFAULT_CAPACITY` events,
  ``REPRO_FLIGHT_CAPACITY`` overrides) that receives *every* span and
  instant event while enabled — no tracer installation required.  When
  something goes wrong, ``python -m repro flight --dump t.json`` exports
  the last N seconds as a Chrome ``trace_event`` file after the fact.
  Old events fall off the back; the recorder never grows unbounded and
  never blocks the hot path for more than one lock-guarded append.

  Enabled by default; ``REPRO_FLIGHT=0`` (or :func:`disable`) turns it
  off, restoring the strict no-op instrumentation path.  The disabled
  *and* the enabled-but-idle cost are both bounded by tests
  (``tests/test_obs_flight.py``).

* **Clocks.**  All timestamps come from one module-level monotonic base
  (:func:`monotonic_us`, shared by :class:`repro.obs.trace.Tracer`), so
  events recorded by different threads of one process merge in a
  consistent order.  Wall-clock enters only as the trace *epoch*
  (:func:`wall_epoch_us`), recorded once at import and exported as
  metadata — the anchor for aligning dumps from different processes.

Structured instant events (fault injections from
:mod:`repro.resilience.faults`, autotune sweep completions) ride in the
same ring, so a chaos run's injected faults are replayable next to the
spans they perturbed.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pathlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

#: environment variable disabling the recorder ("0" | "off" | "false" | "no")
FLIGHT_ENV = "REPRO_FLIGHT"
#: environment variable overriding the ring capacity (events)
CAPACITY_ENV = "REPRO_FLIGHT_CAPACITY"
#: default ring capacity; at the library's coarse span rate this holds
#: minutes of history in ~a few MB
DEFAULT_CAPACITY = 65536

# ---------------------------------------------------------------------------
# Clocks: one monotonic base per process, wall-clock only as the epoch
# ---------------------------------------------------------------------------

_EPOCH_PERF = time.perf_counter()
_EPOCH_WALL_US = time.time() * 1e6


def monotonic_us() -> float:
    """Microseconds since the module epoch — monotonic, shared by every
    thread of the process, comparable across tracers and the recorder."""
    return (time.perf_counter() - _EPOCH_PERF) * 1e6


def wall_epoch_us() -> float:
    """Wall-clock microseconds (Unix epoch) at the monotonic base.

    ``wall_epoch_us() + monotonic_us()`` approximates absolute wall time;
    it is exported as trace metadata so dumps from different processes
    (each with its own monotonic base) can be aligned offline.
    """
    return _EPOCH_WALL_US


# ---------------------------------------------------------------------------
# Trace context
# ---------------------------------------------------------------------------

_ID_COUNTER = itertools.count(1)
#: per-process id prefix: pid + startup wall clock, so ids in dumps from
#: different processes never collide when merged offline
_ID_PREFIX = f"{os.getpid() & 0xFFFF:04x}{int(_EPOCH_WALL_US) & 0xFFFFFF:06x}"


def _next_id() -> str:
    return f"{_ID_PREFIX}{next(_ID_COUNTER):08x}"


@dataclass(frozen=True)
class TraceContext:
    """Position of the current operation in a trace tree (immutable)."""

    trace_id: str
    span_id: str
    parent_id: str | None = None

    def child(self) -> "TraceContext":
        """A fresh child context: same trace, new span, parent = self."""
        return TraceContext(self.trace_id, _next_id(), self.span_id)


def new_trace() -> TraceContext:
    """A root context starting a brand-new trace."""
    return TraceContext(_next_id(), _next_id(), None)


def derive(parent: "TraceContext | None") -> TraceContext:
    """A child of ``parent``, or a fresh root when there is no parent."""
    return parent.child() if parent is not None else new_trace()


_TLS = threading.local()


def current_context() -> "TraceContext | None":
    """The context active on this thread (None outside any span)."""
    return getattr(_TLS, "ctx", None)


def _set_context(ctx: "TraceContext | None") -> None:
    """Install ``ctx`` on this thread (the span fast path; no nesting
    bookkeeping — callers restore the previous value themselves)."""
    _TLS.ctx = ctx


# ---------------------------------------------------------------------------
# Events and the ring buffer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlightEvent:
    """One recorded span ("span") or marker ("instant").

    ``ts_us`` is module-monotonic (see :func:`monotonic_us`); exports
    re-anchor on the wall epoch.
    """

    kind: str
    name: str
    cat: str
    ts_us: float
    dur_us: float
    tid: int
    trace_id: str
    span_id: str
    parent_id: str | None = None
    args: dict[str, Any] = field(default_factory=dict)


class FlightRecorder:
    """Bounded, thread-safe ring of :class:`FlightEvent` records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        self._events: deque[FlightEvent] = deque(maxlen=capacity)
        self._thread_names: dict[int, str] = {}
        self._total = 0

    # -- recording ----------------------------------------------------------

    def record(self, event: FlightEvent) -> None:
        tid = event.tid
        tname = threading.current_thread().name
        with self._lock:
            self._events.append(event)
            self._total += 1
            self._thread_names.setdefault(tid, tname)

    # -- introspection ------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._events.maxlen or 0

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (>= ``len`` once the ring has wrapped)."""
        with self._lock:
            return self._total

    @property
    def dropped(self) -> int:
        """Events evicted off the back of the ring so far."""
        with self._lock:
            return self._total - len(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self, *, last_s: float | None = None) -> list[FlightEvent]:
        """A snapshot of the ring, oldest first.

        ``last_s`` keeps only events that *ended* within the trailing
        window (the ``--last`` CLI flag).
        """
        with self._lock:
            out = list(self._events)
        if last_s is not None:
            cutoff = monotonic_us() - last_s * 1e6
            out = [e for e in out if e.ts_us + e.dur_us >= cutoff]
        return out

    def resize(self, capacity: int) -> None:
        """Change the ring capacity, keeping the newest events."""
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        with self._lock:
            self._events = deque(self._events, maxlen=capacity)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._thread_names.clear()
            self._total = 0

    # -- export -------------------------------------------------------------

    def chrome_trace(
        self, *, last_s: float | None = None, process_name: str = "repro flight"
    ) -> dict:
        """The Chrome ``trace_event`` object format (Perfetto-loadable).

        ``ts`` is relative to the oldest exported event; the wall-clock
        anchor of that origin rides in ``otherData.trace_epoch_wall_us``
        so dumps from different processes can be merged offline.  Spans
        become ``"X"`` events, instants ``"i"`` events; trace ids travel
        in ``args`` (the same ``span_id``/``parent_id`` keys
        :func:`repro.obs.diff.spans_from_chrome` aligns trees by, so two
        ``flight --dump`` files diff directly).
        """
        events = self.events(last_s=last_s)
        with self._lock:
            thread_names = dict(self._thread_names)
        pid = os.getpid()
        t0 = min((e.ts_us for e in events), default=0.0)
        out: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": process_name},
        }]
        for tid, tname in sorted(thread_names.items()):
            out.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": tname},
            })
        for e in events:
            args = {k: _jsonable(v) for k, v in e.args.items()}
            args["trace_id"] = e.trace_id
            args["span_id"] = e.span_id
            if e.parent_id is not None:
                args["parent_id"] = e.parent_id
            ev: dict[str, Any] = {
                "name": e.name, "cat": e.cat,
                "ts": round(e.ts_us - t0, 3),
                "pid": pid, "tid": e.tid, "args": args,
            }
            if e.kind == "span":
                ev["ph"] = "X"
                ev["dur"] = round(e.dur_us, 3)
            else:
                ev["ph"] = "i"
                ev["s"] = "t"  # thread-scoped instant
            out.append(ev)
        return {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "otherData": {
                "trace_epoch_wall_us": round(wall_epoch_us() + t0, 3),
                "events_recorded": self.total_recorded,
                "events_dropped": self.dropped,
            },
        }

    def write(
        self, path: str | os.PathLike, *,
        last_s: float | None = None, process_name: str = "repro flight",
    ) -> pathlib.Path:
        """Serialize :meth:`chrome_trace` to ``path``; returns the path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = self.chrome_trace(last_s=last_s, process_name=process_name)
        path.write_text(
            json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
        return path


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


# ---------------------------------------------------------------------------
# Trace-tree validation (tests + the CI telemetry gate)
# ---------------------------------------------------------------------------


def span_events(events: Iterable[FlightEvent]) -> list[FlightEvent]:
    return [e for e in events if e.kind == "span"]


def unresolved_parents(events: Iterable[FlightEvent]) -> list[FlightEvent]:
    """Events whose ``parent_id`` does not resolve to a recorded span.

    Spans land in the ring at *exit*, so children precede their parents
    in buffer order — resolution is order-insensitive.  On a healthy,
    un-wrapped buffer covering a whole operation this returns ``[]``;
    eviction of old parents is the one legitimate source of orphans.
    """
    events = list(events)
    known = {(e.trace_id, e.span_id) for e in span_events(events)}
    return [
        e for e in events
        if e.parent_id is not None and (e.trace_id, e.parent_id) not in known
    ]


def trace_ids(events: Iterable[FlightEvent]) -> set[str]:
    return {e.trace_id for e in events}


# ---------------------------------------------------------------------------
# The process recorder and the enablement switch
# ---------------------------------------------------------------------------


def _env_capacity() -> int:
    raw = os.environ.get(CAPACITY_ENV, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return DEFAULT_CAPACITY


_RECORDER = FlightRecorder(_env_capacity())
_ENABLED = os.environ.get(FLIGHT_ENV, "").strip().lower() not in (
    "0", "off", "false", "no")


def recorder() -> FlightRecorder:
    return _RECORDER


def enabled() -> bool:
    """True while the flight recorder accepts events (one global read —
    this is the hot-path gate)."""
    return _ENABLED


def enable() -> None:
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


@contextlib.contextmanager
def suspended() -> Iterator[None]:
    """Disable the recorder for the block (tests, overhead baselines)."""
    global _ENABLED
    prev = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = prev


@contextlib.contextmanager
def capture(capacity: int | None = None) -> Iterator[FlightRecorder]:
    """Enable the recorder on a cleared ring for the block (test helper).

    Restores the previous enablement and drops the block's events from
    consideration by yielding the recorder itself for inspection.
    """
    global _ENABLED
    prev = _ENABLED
    if capacity is not None:
        _RECORDER.resize(capacity)
    _RECORDER.clear()
    _ENABLED = True
    try:
        yield _RECORDER
    finally:
        _ENABLED = prev


# ---------------------------------------------------------------------------
# Recording hooks (what the trace layer and instrumented sites call)
# ---------------------------------------------------------------------------


def record_span(
    name: str, cat: str, args: dict, start_us: float, end_us: float,
    ctx: TraceContext, *, tid: int | None = None,
) -> None:
    """Record one completed span (no-op while disabled)."""
    if not _ENABLED:
        return
    _RECORDER.record(FlightEvent(
        kind="span", name=name, cat=cat,
        ts_us=start_us, dur_us=max(0.0, end_us - start_us),
        tid=tid if tid is not None else threading.get_ident(),
        trace_id=ctx.trace_id, span_id=ctx.span_id, parent_id=ctx.parent_id,
        args=args,
    ))


def instant(name: str, *, cat: str = "repro", **args: Any) -> None:
    """Record a structured marker event under the current context.

    The marker gets its own span id (child of the active span, or a
    fresh root), so instants are addressable in the tree — a histogram
    exemplar or a log line can point at one fault injection.  No-op
    while disabled.
    """
    if not _ENABLED:
        return
    ctx = derive(current_context())
    _RECORDER.record(FlightEvent(
        kind="instant", name=name, cat=cat,
        ts_us=monotonic_us(), dur_us=0.0,
        tid=threading.get_ident(),
        trace_id=ctx.trace_id, span_id=ctx.span_id, parent_id=ctx.parent_id,
        args=args,
    ))
