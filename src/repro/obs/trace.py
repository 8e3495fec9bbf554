"""Span-based tracer with a Chrome ``trace_event`` JSON exporter.

Usage::

    from repro.obs import trace

    with trace.capture() as tracer:          # install a tracer
        with trace.span("autotune", bits=4): # record spans anywhere below
            ...
    tracer.write("out.json")                 # load in Perfetto

Design rules:

* **Cheap by default.**  ``span()`` reads two module globals; with no
  tracer installed and the :mod:`repro.obs.flight` recorder disabled it
  returns a shared stateless null context manager.  With only the
  (default-on) flight recorder active, a span costs one context
  derivation, two clock reads and a ring append — both regimes are
  bounded by tests (``tests/test_obs_trace.py``,
  ``tests/test_obs_flight.py``).
* **Thread-safe and nestable.**  Spans record their OS thread id, so
  work on other threads (``repro top``'s workload, policy timeouts)
  appears as separate tracks in Perfetto; recording appends under a
  lock.  Every real span also derives a
  :class:`~repro.obs.flight.TraceContext` on entry, so records carry
  explicit ``trace_id``/``span_id``/``parent_id`` linkage on top of the
  visual time-containment nesting.
* **Timestamps share one monotonic base.**  All spans are stamped from
  :func:`repro.obs.flight.monotonic_us` — a single per-process
  ``perf_counter`` epoch — so spans recorded by different threads (or
  different tracers) merge in a consistent order.  Wall-clock enters
  only as the trace epoch, exported as ``otherData`` metadata.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from . import flight as _flight

monotonic_us = _flight.monotonic_us


@dataclass(frozen=True)
class SpanRecord:
    """One completed span (times in microseconds since tracer start)."""

    name: str
    cat: str
    start_us: float
    dur_us: float
    tid: int
    args: dict[str, Any] = field(default_factory=dict)
    trace_id: str = ""
    span_id: str = ""
    parent_id: str | None = None


class _Span:
    """Live span context manager: derives a trace context on entry and
    records to the bound tracer (if any) and the flight recorder."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start", "_ctx", "_prev")

    def __init__(self, tracer: "Tracer | None", name: str, cat: str,
                 args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args
        self._start = 0.0
        self._ctx: _flight.TraceContext | None = None
        self._prev: _flight.TraceContext | None = None

    def __enter__(self) -> "_Span":
        self._prev = _flight.current_context()
        self._ctx = _flight.derive(self._prev)
        _flight._set_context(self._ctx)
        self._start = monotonic_us()
        return self

    def __exit__(self, *exc) -> None:
        end = monotonic_us()
        _flight._set_context(self._prev)
        ctx = self._ctx
        assert ctx is not None  # __enter__ ran
        if self._tracer is not None:
            self._tracer._record(
                self._name, self._cat, self._args, self._start, end, ctx)
        _flight.record_span(
            self._name, self._cat, self._args, self._start, end, ctx)


class _NullSpan:
    """Shared no-op stand-in returned while all recording is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans; thread-safe; exports Chrome ``trace_event`` JSON.

    Timestamps are stored relative to tracer creation but derive from the
    module-wide monotonic base, so two tracers (or a tracer and the
    flight recorder) order events identically.  ``epoch_wall_us`` pins
    the tracer start to the wall clock for offline cross-process merges.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[SpanRecord] = []
        self._thread_names: dict[int, str] = {}
        self._t0_us = monotonic_us()
        #: wall-clock (Unix epoch) microseconds at tracer creation
        self.epoch_wall_us = _flight.wall_epoch_us() + self._t0_us

    # -- recording ----------------------------------------------------------

    def _now_us(self) -> float:
        return monotonic_us() - self._t0_us

    def span(self, name: str, *, cat: str = "repro", **args: Any) -> _Span:
        return _Span(self, name, cat, args)

    def _record(
        self, name: str, cat: str, args: dict,
        start_us: float, end_us: float,
        ctx: "_flight.TraceContext | None" = None,
    ) -> None:
        """Append one span; absolute (module-monotonic) microsecond times
        are re-based onto the tracer's start."""
        rec = SpanRecord(
            name=name,
            cat=cat,
            start_us=start_us - self._t0_us,
            dur_us=max(0.0, end_us - start_us),
            tid=threading.get_ident(),
            args=args,
            trace_id=ctx.trace_id if ctx else "",
            span_id=ctx.span_id if ctx else "",
            parent_id=ctx.parent_id if ctx else None,
        )
        tname = threading.current_thread().name
        with self._lock:
            self._events.append(rec)
            self._thread_names.setdefault(rec.tid, tname)

    def instant(self, name: str, *, cat: str = "repro", **args: Any) -> None:
        """Record a zero-duration marker event."""
        now = monotonic_us()
        self._record(name, cat, args, now, now,
                     _flight.derive(_flight.current_context()))

    # -- introspection ------------------------------------------------------

    def spans(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # -- export -------------------------------------------------------------

    def chrome_trace(self, *, process_name: str = "repro") -> dict:
        """The Chrome ``trace_event`` object format (Perfetto-loadable).

        Spans become ``"X"`` (complete) events with microsecond ``ts`` /
        ``dur``; process and thread names ride along as ``"M"`` metadata
        events so worker tracks are labeled.  Trace-context ids travel in
        each event's ``args`` — :func:`repro.obs.diff.spans_from_chrome`
        reads exactly these keys to rebuild the span tree for
        differential profiling — and the wall-clock anchor of ``ts == 0``
        is ``otherData.trace_epoch_wall_us``.
        """
        pid = os.getpid()
        events: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": process_name},
        }]
        spans = self.spans()
        with self._lock:
            thread_names = dict(self._thread_names)
        for tid, tname in sorted(thread_names.items()):
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": tname},
            })
        for rec in spans:
            args = {k: _jsonable(v) for k, v in rec.args.items()}
            if rec.trace_id:
                args["trace_id"] = rec.trace_id
                args["span_id"] = rec.span_id
                if rec.parent_id is not None:
                    args["parent_id"] = rec.parent_id
            events.append({
                "name": rec.name,
                "cat": rec.cat,
                "ph": "X",
                "ts": round(rec.start_us, 3),
                "dur": round(rec.dur_us, 3),
                "pid": pid,
                "tid": rec.tid,
                "args": args,
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "trace_epoch_wall_us": round(self.epoch_wall_us, 3),
            },
        }

    def write(self, path: str | os.PathLike, **kwargs: Any) -> pathlib.Path:
        """Serialize :meth:`chrome_trace` to ``path``; returns the path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.chrome_trace(**kwargs), separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        return path


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


# ---------------------------------------------------------------------------
# Module-level switchboard (the hot-path API)
# ---------------------------------------------------------------------------

_TRACER: Tracer | None = None
_INSTALL_LOCK = threading.Lock()


def active() -> bool:
    """True while a tracer is installed (detailed instrumentation gate).

    Deliberately *not* influenced by the flight recorder: per-item
    detail (bound-gap histograms, per-candidate timings) stays gated on
    an explicit tracer so the always-on recorder keeps its coarse,
    bounded event rate.
    """
    return _TRACER is not None


def current() -> Tracer | None:
    return _TRACER


def install(tracer: Tracer | None = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the process tracer."""
    global _TRACER
    with _INSTALL_LOCK:
        _TRACER = tracer if tracer is not None else Tracer()
        return _TRACER


def uninstall() -> Tracer | None:
    """Remove and return the installed tracer (None if none was)."""
    global _TRACER
    with _INSTALL_LOCK:
        tracer, _TRACER = _TRACER, None
        return tracer


@contextlib.contextmanager
def capture(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install a tracer for the ``with`` body, restoring the previous one.

    The yielded tracer keeps its spans after exit, ready for
    :meth:`Tracer.write`.
    """
    global _TRACER
    with _INSTALL_LOCK:
        prev = _TRACER
        _TRACER = tracer if tracer is not None else Tracer()
        installed = _TRACER
    try:
        yield installed
    finally:
        with _INSTALL_LOCK:
            _TRACER = prev


def span(name: str, *, cat: str = "repro", **args: Any):
    """A span recorded by the installed tracer and/or the flight
    recorder, or a shared no-op when both are off."""
    tracer = _TRACER
    if tracer is None and not _flight.enabled():
        return _NULL_SPAN
    return _Span(tracer, name, cat, args)


def instant(name: str, *, cat: str = "repro", **args: Any) -> None:
    """A zero-duration marker (no-op while all recording is disabled)."""
    tracer = _TRACER
    flight_on = _flight.enabled()
    if tracer is None and not flight_on:
        return
    ctx = _flight.derive(_flight.current_context())
    now = monotonic_us()
    if tracer is not None:
        tracer._record(name, cat, args, now, now, ctx)
    if flight_on:
        _flight.recorder().record(_flight.FlightEvent(
            kind="instant", name=name, cat=cat, ts_us=now, dur_us=0.0,
            tid=threading.get_ident(),
            trace_id=ctx.trace_id, span_id=ctx.span_id,
            parent_id=ctx.parent_id, args=args,
        ))


# re-exported for instrumented sites that only import trace
__all__ = [
    "SpanRecord", "Tracer", "active", "capture", "current", "install",
    "instant", "monotonic_us", "span", "uninstall",
]

# keep `time` imported for backwards compatibility of monkeypatching tests
_ = time
