"""Spans, markers and trace contexts, recorded into a :class:`Recorder`
under :func:`capture` and exported as Chrome ``trace_event`` JSON.

Usage::

    from repro.obs import trace

    with trace.capture() as rec:              # record everything below
        with trace.span("autotune", bits=4):  # from any thread
            ...
    rec.write("out.json")                     # load in Perfetto

One event type, one record path, one exporter:

* **Recording happens only under a capture.**  :func:`capture` installs
  a recorder for one block (``repro profile``, ``--trace``); a nested
  capture restores the outer one on exit.  Outside a capture nothing is
  recorded: :func:`span` returns a shared null span and :func:`instant`
  and :func:`record_span` return at once, so instrumentation stays in
  hot paths at the cost of one global read (bounded by
  ``tests/test_obs_trace.py``).
* **Per-item detail is gated the same way.**  :func:`active` is true
  only under a capture; call sites gate their per-candidate histograms
  and hand-built spans on it.
* **Trace contexts.**  :class:`TraceContext` is the ``(trace_id,
  span_id, parent_id)`` triple carried in a thread-local.  Every span
  derives a child context on entry and restores its parent on exit; a
  marker (:func:`instant`) gets its own span id under the active span, so
  each fault injection is its own node of the trace tree.
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
from typing import Any, Iterable, Iterator, NamedTuple

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
    """A thread-safe, unbounded event buffer: what one :func:`capture`
    recorded."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[Event] = []
        self._thread_names: dict[int, str] = {}

    def record(self, event: Event) -> None:
        with self._lock:
            self._events.append(event)
            if event.tid not in self._thread_names:
                self._thread_names[event.tid] = threading.current_thread().name

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self) -> list[Event]:
        """A snapshot, in record order."""
        with self._lock:
            return list(self._events)

    def spans(self) -> list[Event]:
        """The recorded spans, markers excluded."""
        return span_events(self.events())

    def chrome_trace(self, *, process_name: str = "repro") -> dict:
        """The Chrome ``trace_event`` object format (Perfetto-loadable).

        Spans become ``"X"`` events and markers thread-scoped ``"i"``
        events; process and thread names ride along as ``"M"`` metadata.
        ``ts`` is relative to the oldest event, whose wall-clock
        time is ``otherData.trace_epoch_wall_us``.  Trace ids travel in
        each event's ``args`` — the keys
        :func:`repro.obs.diff.spans_from_chrome` aligns span trees by.
        """
        with self._lock:
            events = list(self._events)
            thread_names = sorted(self._thread_names.items())
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
            "otherData": {"trace_epoch_wall_us": round(_EPOCH_WALL_US + t0, 3)},
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


def span_events(events: Iterable[Event]) -> list[Event]:
    return [e for e in events if e.kind == "span"]


# ---------------------------------------------------------------------------
# The capture: the one recorder, on only for a block
# ---------------------------------------------------------------------------

#: the open capture's recorder — the one global the hot path reads
_CAPTURE: Recorder | None = None
_LOCK = threading.Lock()


def active() -> bool:
    """True only under :func:`capture`: the gate for call sites that
    build events or per-item detail (bound-gap histograms, per-stream
    stalls, the serving simulator's virtual-time spans) by hand."""
    return _CAPTURE is not None


@contextlib.contextmanager
def capture() -> Iterator[Recorder]:
    """Record into a fresh recorder for the block, restoring the
    previous capture (if any) on exit.  The recorder keeps its events
    afterwards, ready for :meth:`Recorder.write`."""
    global _CAPTURE
    rec = Recorder()
    with _LOCK:
        prev, _CAPTURE = _CAPTURE, rec
    try:
        yield rec
    finally:
        with _LOCK:
            _CAPTURE = prev


# ---------------------------------------------------------------------------
# Recording (the hot-path API)
# ---------------------------------------------------------------------------


class _Span:
    """Live span: derives a trace context on entry, records one event to
    the capture that was open when it was opened."""

    __slots__ = ("_rec", "_name", "_cat", "_args", "_start", "_ctx", "_prev")

    def __init__(self, rec: Recorder, name: str, cat: str, args: dict) -> None:
        self._rec = rec
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
        self._rec.record(Event(
            "span", self._name, self._cat, self._start,
            max(0.0, end - self._start), threading.get_ident(),
            ctx.trace_id, ctx.span_id, ctx.parent_id, self._args))


#: the shared no-op span returned outside a capture
_NULL_SPAN = contextlib.nullcontext()


def span(name: str, *, cat: str = "repro", **args: Any):
    """A span recorded by the open capture, or a shared no-op outside
    one."""
    rec = _CAPTURE
    if rec is None:
        return _NULL_SPAN
    return _Span(rec, name, cat, args)


def instant(name: str, *, cat: str = "repro", **args: Any) -> None:
    """A zero-duration marker under the current context (fault
    injections, breaker transitions, autotune sweeps); no-op outside a
    capture."""
    rec = _CAPTURE
    if rec is None:
        return
    ctx = derive(current_context())
    rec.record(Event("instant", name, cat, monotonic_us(), 0.0,
                     threading.get_ident(), ctx.trace_id, ctx.span_id,
                     ctx.parent_id, args))


def record_span(
    name: str, cat: str, args: dict, start_us: float, end_us: float,
    ctx: TraceContext, *, tid: int | None = None,
) -> None:
    """Record one span built by hand (explicit times, context and track);
    no-op outside a capture."""
    rec = _CAPTURE
    if rec is None:
        return
    rec.record(Event("span", name, cat, start_us, max(0.0, end_us - start_us),
                     tid if tid is not None else threading.get_ident(),
                     ctx.trace_id, ctx.span_id, ctx.parent_id, args))
