"""Spans, markers and trace contexts, recorded into bounded or unbounded
:class:`Recorder` buffers and exported as Chrome ``trace_event`` JSON.

Usage::

    from repro.obs import trace

    with trace.capture() as rec:              # record everything below
        with trace.span("autotune", bits=4):  # from any thread
            ...
    rec.write("out.json")                     # load in Perfetto

One event type, one record path, one exporter:

* **Two kinds of recorder, one class.**  The process *ring* is a
  :class:`Recorder` bounded at :data:`RING_CAPACITY` events.  It is on by
  default (``REPRO_FLIGHT=0`` turns it off) and answers "what just
  happened?" after the fact (``python -m repro flight --dump``).
  :func:`capture` installs an unbounded recorder for a block (``repro
  profile``, ``--trace``); a nested capture restores the outer one on
  exit.  Each span or marker is built once and appended to every
  recorder that is on.
* **Cheap by default.**  :func:`span` reads one module-level tuple of
  the recorders that are on; when it is empty it returns a shared null
  span.  With only the ring on, a span costs one context derivation, two
  clock reads and one locked append — both regimes are bounded by tests
  (``tests/test_obs_trace.py``).
* **Per-item detail is opt-in.**  :func:`active` is true only under
  :func:`capture`; call sites gate their per-candidate histograms on it,
  so the always-on ring keeps a coarse, bounded event rate.
* **Trace contexts.**  :class:`TraceContext` is the ``(trace_id,
  span_id, parent_id)`` triple carried in a thread-local.  Every span
  derives a child context on entry and restores its parent on exit; a
  marker (:func:`instant`) gets its own span id under the active span, so
  a histogram exemplar can point at one fault injection.
* **One clock.**  Timestamps come from :func:`monotonic_us`, a single
  per-process ``perf_counter`` base, so events from different threads
  merge in order.  Wall clock enters only as the exported epoch
  (``otherData.trace_epoch_wall_us``), the anchor for aligning dumps
  from different processes offline.
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
from typing import Any, Iterable, Iterator, NamedTuple

#: environment variable turning the ring off ("0" | "off" | "false" | "no")
FLIGHT_ENV = "REPRO_FLIGHT"
#: ring capacity; at the library's coarse span rate this holds minutes
#: of history in a few MB
RING_CAPACITY = 65536

# ---------------------------------------------------------------------------
# Clocks: one monotonic base per process, wall clock only as the epoch
# ---------------------------------------------------------------------------

_EPOCH_PERF = time.perf_counter()
_EPOCH_WALL_US = time.time() * 1e6


def monotonic_us() -> float:
    """Microseconds since the module epoch — monotonic and shared by
    every thread of the process."""
    return (time.perf_counter() - _EPOCH_PERF) * 1e6


# ---------------------------------------------------------------------------
# Trace contexts
# ---------------------------------------------------------------------------

_ID_COUNTER = itertools.count(1)
#: per-process id prefix: pid + startup wall clock, so ids in dumps from
#: different processes never collide when merged offline
_ID_PREFIX = f"{os.getpid() & 0xFFFF:04x}{int(_EPOCH_WALL_US) & 0xFFFFFF:06x}"


def _next_id() -> str:
    return f"{_ID_PREFIX}{next(_ID_COUNTER):08x}"


class TraceContext(NamedTuple):
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


def derive(parent: TraceContext | None) -> TraceContext:
    """A child of ``parent``, or a fresh root when there is no parent."""
    return parent.child() if parent is not None else new_trace()


_TLS = threading.local()


def current_context() -> TraceContext | None:
    """The context active on this thread (None outside any span)."""
    return getattr(_TLS, "ctx", None)


# ---------------------------------------------------------------------------
# Events and the recorder
# ---------------------------------------------------------------------------


class Event(NamedTuple):
    """One recorded span (``kind == "span"``) or marker (``"instant"``).

    ``ts_us`` is on the :func:`monotonic_us` base (serve's spans use its
    virtual clock instead); exports re-anchor on the oldest event.
    """

    kind: str
    name: str
    cat: str
    ts_us: float
    dur_us: float
    tid: int
    trace_id: str
    span_id: str
    parent_id: str | None
    args: dict[str, Any]


class Recorder:
    """A thread-safe event buffer: bounded (oldest events evicted first,
    and counted) when ``capacity`` is given, unbounded otherwise."""

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"recorder capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        self._events: deque[Event] = deque(maxlen=capacity)
        self._thread_names: dict[int, str] = {}
        self._total = 0

    def record(self, event: Event) -> None:
        with self._lock:
            self._events.append(event)
            self._total += 1
            if event.tid not in self._thread_names:
                self._thread_names[event.tid] = threading.current_thread().name

    @property
    def capacity(self) -> int | None:
        return self._events.maxlen

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (>= ``len`` once a ring has wrapped)."""
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

    def events(self, *, last_s: float | None = None) -> list[Event]:
        """A snapshot, oldest first; ``last_s`` keeps only events that
        *ended* within the trailing window (``repro flight --last``)."""
        with self._lock:
            out = list(self._events)
        if last_s is not None:
            cutoff = monotonic_us() - last_s * 1e6
            out = [e for e in out if e.ts_us + e.dur_us >= cutoff]
        return out

    def spans(self) -> list[Event]:
        """The recorded spans, markers excluded."""
        return span_events(self.events())

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._thread_names.clear()
            self._total = 0

    def chrome_trace(
        self, *, last_s: float | None = None, process_name: str = "repro",
    ) -> dict:
        """The Chrome ``trace_event`` object format (Perfetto-loadable).

        Spans become ``"X"`` events and markers thread-scoped ``"i"``
        events; process and thread names ride along as ``"M"`` metadata.
        ``ts`` is relative to the oldest exported event, whose wall-clock
        time is ``otherData.trace_epoch_wall_us``.  Trace ids travel in
        each event's ``args`` — the keys
        :func:`repro.obs.diff.spans_from_chrome` aligns span trees by.
        """
        events = self.events(last_s=last_s)
        with self._lock:
            thread_names = sorted(self._thread_names.items())
            recorded, kept = self._total, len(self._events)
        pid = os.getpid()
        t0 = min((e.ts_us for e in events), default=0.0)
        out: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": process_name},
        }]
        out += [{
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": tname},
        } for tid, tname in thread_names]
        for e in events:
            args = {k: _jsonable(v) for k, v in e.args.items()}
            args["trace_id"] = e.trace_id
            args["span_id"] = e.span_id
            if e.parent_id is not None:
                args["parent_id"] = e.parent_id
            ev: dict[str, Any] = {
                "name": e.name, "cat": e.cat, "ph": "X",
                "ts": round(e.ts_us - t0, 3),
                "pid": pid, "tid": e.tid, "args": args,
            }
            if e.kind == "span":
                ev["dur"] = round(e.dur_us, 3)
            else:
                ev["ph"] = "i"
                ev["s"] = "t"
            out.append(ev)
        return {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "otherData": {
                "trace_epoch_wall_us": round(_EPOCH_WALL_US + t0, 3),
                "events_recorded": recorded,
                "events_dropped": recorded - kept,
            },
        }

    def write(self, path: str | os.PathLike, **kwargs: Any) -> pathlib.Path:
        """Serialize :meth:`chrome_trace` (same keywords) to ``path``."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.chrome_trace(**kwargs), separators=(",", ":"))
            + "\n", encoding="utf-8")
        return path


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


# ---------------------------------------------------------------------------
# Trace-tree validation (tests, ``repro flight``)
# ---------------------------------------------------------------------------


def span_events(events: Iterable[Event]) -> list[Event]:
    return [e for e in events if e.kind == "span"]


def unresolved_parents(events: Iterable[Event]) -> list[Event]:
    """Events whose ``parent_id`` does not resolve to a recorded span.

    Spans are recorded at *exit*, so children precede their parents in
    buffer order — resolution is order-insensitive.  On an un-wrapped
    buffer covering a whole operation this returns ``[]``; eviction of
    old parents from the ring is the one legitimate source of orphans.
    """
    events = list(events)
    known = {(e.trace_id, e.span_id) for e in span_events(events)}
    return [
        e for e in events
        if e.parent_id is not None and (e.trace_id, e.parent_id) not in known
    ]


def trace_ids(events: Iterable[Event]) -> set[str]:
    return {e.trace_id for e in events}


# ---------------------------------------------------------------------------
# The switchboard: which recorders are on
# ---------------------------------------------------------------------------

_RING = Recorder(RING_CAPACITY)
_RING_ON = os.environ.get(FLIGHT_ENV, "").strip().lower() not in (
    "0", "off", "false", "no")
_CAPTURE: Recorder | None = None
#: the recorders that are on — the one global the hot path reads
_SINKS: tuple[Recorder, ...] = ()
_LOCK = threading.Lock()


def _refresh() -> None:
    """Rebuild :data:`_SINKS` from the switches (caller holds _LOCK)."""
    global _SINKS
    _SINKS = ((_RING,) if _RING_ON else ()) + (
        (_CAPTURE,) if _CAPTURE is not None else ())


_refresh()


def ring() -> Recorder:
    """The process ring (bounded; on unless ``REPRO_FLIGHT=0``)."""
    return _RING


def ring_enabled() -> bool:
    return _RING_ON


def recording() -> bool:
    """True while any recorder is on — the gate for call sites that build
    their events by hand (the serving simulator's virtual-time spans)."""
    return bool(_SINKS)


def active() -> bool:
    """True only under :func:`capture`: the gate for per-item detail
    (bound-gap histograms, per-stream stalls) that must never flood the
    always-on ring."""
    return _CAPTURE is not None


@contextlib.contextmanager
def capture() -> Iterator[Recorder]:
    """Record into a fresh unbounded recorder for the block, restoring
    the previous capture (if any) on exit.  The recorder keeps its
    events afterwards, ready for :meth:`Recorder.write`."""
    global _CAPTURE
    rec = Recorder()
    with _LOCK:
        prev, _CAPTURE = _CAPTURE, rec
        _refresh()
    try:
        yield rec
    finally:
        with _LOCK:
            _CAPTURE = prev
            _refresh()


@contextlib.contextmanager
def _ring_switched(on: bool) -> Iterator[Recorder]:
    global _RING_ON
    with _LOCK:
        prev, _RING_ON = _RING_ON, on
        _refresh()
    try:
        yield _RING
    finally:
        with _LOCK:
            _RING_ON = prev
            _refresh()


def suspended() -> contextlib.AbstractContextManager[Recorder]:
    """Turn the ring off for the block (tests, overhead baselines)."""
    return _ring_switched(False)


def fresh_ring() -> contextlib.AbstractContextManager[Recorder]:
    """Clear the ring and turn it on for the block; yields the ring
    (test helper)."""
    _RING.clear()
    return _ring_switched(True)


# ---------------------------------------------------------------------------
# Recording (the hot-path API)
# ---------------------------------------------------------------------------


class _Span:
    """Live span: derives a trace context on entry, records one event to
    the recorders that were on when it was opened."""

    __slots__ = ("_sinks", "_name", "_cat", "_args", "_start", "_ctx", "_prev")

    def __init__(self, sinks: tuple[Recorder, ...], name: str, cat: str,
                 args: dict) -> None:
        self._sinks = sinks
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_Span":
        self._prev = prev = getattr(_TLS, "ctx", None)
        self._ctx = _TLS.ctx = derive(prev)
        self._start = monotonic_us()
        return self

    def __exit__(self, *exc) -> None:
        end = monotonic_us()
        _TLS.ctx = self._prev
        ctx = self._ctx
        event = Event("span", self._name, self._cat, self._start,
                      max(0.0, end - self._start), threading.get_ident(),
                      ctx.trace_id, ctx.span_id, ctx.parent_id, self._args)
        for rec in self._sinks:
            rec.record(event)


#: the shared no-op span returned while no recorder is on
_NULL_SPAN = contextlib.nullcontext()


def span(name: str, *, cat: str = "repro", **args: Any):
    """A span recorded by every recorder that is on, or a shared no-op
    when none is."""
    sinks = _SINKS
    if not sinks:
        return _NULL_SPAN
    return _Span(sinks, name, cat, args)


def instant(name: str, *, cat: str = "repro", **args: Any) -> None:
    """A zero-duration marker under the current context (fault
    injections, breaker transitions, autotune sweeps); no-op while no
    recorder is on."""
    sinks = _SINKS
    if not sinks:
        return
    ctx = derive(current_context())
    event = Event("instant", name, cat, monotonic_us(), 0.0,
                  threading.get_ident(), ctx.trace_id, ctx.span_id,
                  ctx.parent_id, args)
    for rec in sinks:
        rec.record(event)


def record_span(
    name: str, cat: str, args: dict, start_us: float, end_us: float,
    ctx: TraceContext, *, tid: int | None = None,
) -> None:
    """Record one span built by hand (explicit times, context and track);
    no-op while no recorder is on."""
    sinks = _SINKS
    if not sinks:
        return
    event = Event("span", name, cat, start_us, max(0.0, end_us - start_us),
                  tid if tid is not None else threading.get_ident(),
                  ctx.trace_id, ctx.span_id, ctx.parent_id, args)
    for rec in sinks:
        rec.record(event)
