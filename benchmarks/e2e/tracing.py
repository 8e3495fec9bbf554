"""In-memory span recorder for the end-to-end benchmark.

Spans come only from this directory: the driver records one per workload,
iteration and child process, and a traced worker records one per call-level
entry point it makes or wraps (see ``worker.instrument``).  Nothing under
``src/`` is edited; wrapping replaces module or class attributes in the
worker process only.

Timestamps are ``time.monotonic()`` microseconds.  On Linux that clock is
system-wide, so spans written by different processes line up in one
Chrome trace.  Span ids are ``<process number>.<sequence>``, with process
numbers handed out by the driver (0 is the driver itself).  Every span
carries its parent's id; a worker's root spans point at the driver span of
the process that ran them.

The module also holds the host probe, which the workers time and the
driver scales end-to-end times by.  It imports numpy on first use only.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict


def now_us() -> float:
    return time.monotonic() * 1e6


#: before a timed call, a worker times one host probe for each stretch of
#: this length since its last probes
PROBE_EVERY_S = 0.05
#: a call is judged by the median of the probes taken within this long
#: before its start or after its end (about eight probes).  Longer than
#: PROBE_EVERY_S, so the window always holds the probe before the call.
PROBE_WINDOW_S = 0.2
#: the probe's nominal time: end-to-end timings are scaled to a host on
#: which the probe's median takes this long
PROBE_REF_S = 0.0018
#: when the host slows down, the workloads slow down more than the probe:
#: across runs, log(call time) rises 1 to 1.5 times as fast as log(probe
#: time), depending on the workload and the hour.  Times are scaled by
#: (PROBE_REF_S / probe) ** PROBE_ELASTICITY.
PROBE_ELASTICITY = 1.25


@functools.cache
def _probe_operands():
    import numpy as np

    return (np, np.arange(64, dtype=np.int32), np.ones((64, 64), dtype=np.int64),
            np.ones(400_000, dtype=np.int64), np.empty(400_000, dtype=np.int64))


def host_probe() -> float:
    """Seconds taken by a fixed mix of work that calls nothing of the
    program: a sample of how fast the host runs the workloads' kinds of
    work right now.  The mix is a pure-Python loop, small numpy operations,
    a small int64 einsum and a copy and sum of 3 MB: a fifth of the time
    each for the first three, two fifths for the copy.  A busy host slows
    these kinds unequally, and the workloads mix all of them, so the mix
    tracks the workloads better than a pure-Python loop alone (README.md,
    "Steadiness and time")."""
    np, small, square, src, dst = _probe_operands()
    t0 = time.perf_counter()
    acc = 0
    for i in range(5_000):
        acc += i * i % 7
    vec = small
    for _ in range(150):
        vec = (vec + small) & 0xFFFF
    np.einsum("ij,jk->ik", square, square, optimize=True)
    np.copyto(dst, src)
    dst.sum()
    return time.perf_counter() - t0


def nearby_probe(probes: list[list[float]], start: float, seconds: float) -> float:
    """Median time of the ``[taken_at, seconds]`` probes (sorted by
    ``taken_at``) within PROBE_WINDOW_S of a call that started at ``start``
    and took ``seconds``.  One probe alone is too noisy to judge a call by;
    the window keeps to the stretch of host speed the call ran in."""
    lo = bisect.bisect_left(probes, start - PROBE_WINDOW_S, key=lambda p: p[0])
    hi = bisect.bisect_right(probes, start + seconds + PROBE_WINDOW_S, key=lambda p: p[0])
    return statistics.median(p[1] for p in probes[lo:hi])


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the host probe took ``probe_s``, scaled
    to the reference host speed."""
    return seconds * (PROBE_REF_S / probe_s) ** PROBE_ELASTICITY


class Recorder:
    """Spans plus aggregated tile-level counters for one process."""

    def __init__(self, proc: int = 0, root_parent: str | None = None) -> None:
        self.proc = proc
        self.root_parent = root_parent
        self.spans: list[dict] = []
        #: tile-level counters: name -> [calls, seconds, units]
        self.tiles: dict[str, list] = {}
        #: tagged onto every span, so per-round sums need no tree walk
        self.round: int | None = None
        self._seq = itertools.count()
        self._main = threading.main_thread()
        self._main_stack: list[str] = []
        self._local = threading.local()

    def _stack(self) -> list[str]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **args):
        stack = self._stack()
        # a pool thread's outermost call belongs to the main-thread call
        # that is waiting on the pool (e.g. a prewarm fanning out)
        parents = stack or self._main_stack
        rec = {
            "name": name,
            "id": f"{self.proc}.{next(self._seq)}",
            "parent": parents[-1] if parents else self.root_parent,
            "tid": threading.get_ident(),
            "round": self.round,
            "args": args,
            "start_us": now_us(),
        }
        stack.append(rec["id"])
        try:
            yield rec
        finally:
            stack.pop()
            rec["end_us"] = now_us()
            self.spans.append(rec)

    def wrap(self, owner, attr: str, name: str, *, args=None, result=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span per
        call.  ``args(*a, **kw)`` and ``result(out)`` return span args."""
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            with self.span(name, **(args(*a, **kw) if args else {})) as rec:
                out = fn(*a, **kw)
                if result is not None:
                    rec["args"].update(result(out))
                return out

        setattr(owner, attr,
                classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)

    def count(self, owner, attr: str, name: str, *, units=None) -> None:
        """Replace ``owner.attr`` with a wrapper that only adds to call,
        time and unit counters: for tile-level calls, where a span each
        would cost more than the call."""
        fn = getattr(owner, attr)
        slot = self.tiles.setdefault(name, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                slot[0] += 1
                slot[1] += time.perf_counter() - t0
                if units is not None:
                    slot[2] += units(*a, **kw)

        setattr(owner, attr, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "tiles": self.tiles}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> self time in microseconds: the span's duration minus the
    part of its interval that its children cover (children on pool threads
    may overlap each other, so their intervals are merged first)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start_us"], s["end_us"]))
    out = {}
    for s in spans:
        lo, hi = s["start_us"], s["end_us"]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = max(0.0, (hi - lo) - covered)
    return out


def unresolved_parents(spans: list[dict]) -> list[dict]:
    """Spans whose parent id names no span in ``spans``."""
    ids = {s["id"] for s in spans}
    return [s for s in spans if s["parent"] is not None and s["parent"] not in ids]


def write_chrome_trace(path, spans: list[dict], process_names: dict[int, str]) -> None:
    """Chrome trace-event JSON (``X`` events), loadable in Perfetto; one
    trace process per benchmark process, named by ``process_names``."""
    self_us = self_times(spans)
    events = [
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}}
        for pid, label in sorted(process_names.items())
    ]
    for s in sorted(spans, key=lambda s: s["start_us"]):
        events.append({
            "name": s["name"], "cat": "bench", "ph": "X",
            "ts": s["start_us"], "dur": s["end_us"] - s["start_us"],
            "pid": int(s["id"].split(".")[0]), "tid": s["tid"],
            "args": {**s["args"], "span_id": s["id"], "parent_id": s["parent"],
                     "round": s["round"], "self_us": self_us[s["id"]]},
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
