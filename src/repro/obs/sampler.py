"""Deterministic-interval wall-clock stack sampler.

A daemon thread walks ``sys._current_frames()`` on a fixed tick grid and
folds what it sees into *collapsed stacks* — the ``root;child;leaf N``
text format flamegraph tooling consumes, rendered natively as an SVG
panel by :func:`repro.obs.htmlreport.flamegraph_svg`.

Why wall-clock sampling, next to the span recorder the repo already has?
Spans only cover instrumented call sites; the sampler attributes *all*
time — the numpy inner loops, the pickle stalls in process pools, the
lock convoy nobody thought to wrap in a span — with zero code changes
and bounded overhead (one frame walk per tick, no sys.settrace).

Determinism caveats (see DESIGN §5.12): the *tick grid* is deterministic
— tick ``k`` fires at ``t0 + k*interval`` and ticks the thread missed
(because a walk overran or the OS descheduled it) are *counted*, never
silently skipped, so two runs of the same workload disagree only in
which frames they catch, not in how many ticks elapsed.  The frames
themselves are inherently racy: a sample is a statistical claim, not a
trace.  CPython's GIL means the walk observes a consistent snapshot of
each thread's stack, but threads blocked in C extensions show the call
site of the extension, not its interior.

Usage::

    from repro.obs import sampler

    with sampler.sampling(interval_s=0.005) as s:
        hot_workload()
    print(sampler.collapsed_text(s.collapsed()))
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import time
from typing import Iterator

#: default tick interval: 5 ms ≈ 200 Hz, coarse enough that a tick's
#: frame walk (tens of µs) never dominates
DEFAULT_INTERVAL_S = 0.005

#: frames deeper than this are truncated with a ``...`` marker so one
#: runaway recursion cannot bloat every collapsed key
MAX_DEPTH = 64


def _frame_label(frame) -> str:
    code = frame.f_code
    fname = os.path.basename(code.co_filename)
    qual = getattr(code, "co_qualname", code.co_name)
    return f"{fname}:{qual}"


def _collapse(frame) -> str:
    """Fold one thread's frame chain into ``outer;...;leaf``."""
    parts: list[str] = []
    while frame is not None and len(parts) < MAX_DEPTH:
        parts.append(_frame_label(frame))
        frame = frame.f_back
    if frame is not None:
        parts.append("...")
    parts.reverse()
    return ";".join(parts)


class StackSampler:
    """Samples every live thread's stack on a deterministic tick grid."""

    def __init__(self, *, interval_s: float = DEFAULT_INTERVAL_S) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval must be > 0, got {interval_s}")
        self.interval_s = interval_s
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: ticks actually sampled
        self.sample_count = 0
        #: grid ticks that elapsed un-sampled (walk overran / descheduled)
        self.missed_ticks = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "StackSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "StackSampler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join()
        self._thread = None
        return self

    # -- the sampling loop --------------------------------------------------

    def _run(self) -> None:
        me = threading.get_ident()
        t0 = time.perf_counter()
        tick = 0
        while not self._stop.is_set():
            self._sample_once(me)
            tick += 1
            # deterministic grid: next tick is t0 + tick*interval; if the
            # walk overran whole intervals, account for the skipped ticks
            # instead of drifting the grid
            now = time.perf_counter()
            behind = int((now - t0) / self.interval_s) + 1
            if behind > tick:
                self.missed_ticks += behind - tick
                tick = behind
            deadline = t0 + tick * self.interval_s
            delay = deadline - now
            if delay > 0 and self._stop.wait(delay):
                break

    def _sample_once(self, skip_ident: int) -> None:
        frames = sys._current_frames()
        with self._lock:
            self.sample_count += 1
            for ident, frame in frames.items():
                if ident == skip_ident:
                    continue
                key = _collapse(frame)
                if key:
                    self._counts[key] = self._counts.get(key, 0) + 1

    # -- results ------------------------------------------------------------

    def collapsed(self) -> dict[str, int]:
        """Collapsed-stack counts (``outer;...;leaf`` → samples)."""
        with self._lock:
            return dict(self._counts)

    def summary(self, *, top: int | None = None) -> dict:
        """JSON-ready stats block of the sampled run.

        ``top`` caps the exported stacks to the heaviest N (full counts
        stay available via :meth:`collapsed`); the cap is reported so a
        truncated export never masquerades as complete.
        """
        counts = self.collapsed()
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if top is not None:
            ordered = ordered[:top]
        return {
            "interval_ms": self.interval_s * 1e3,
            "samples": self.sample_count,
            "missed_ticks": self.missed_ticks,
            "distinct_stacks": len(counts),
            "stacks_exported": len(ordered),
            "stacks": dict(ordered),
        }


@contextlib.contextmanager
def sampling(
    *, interval_s: float = DEFAULT_INTERVAL_S,
) -> Iterator[StackSampler]:
    """Run a :class:`StackSampler` for the block and stop it on exit."""
    s = StackSampler(interval_s=interval_s).start()
    try:
        yield s
    finally:
        s.stop()


# ---------------------------------------------------------------------------
# Collapsed-stack text (the flamegraph interchange format)
# ---------------------------------------------------------------------------


def collapsed_text(counts: dict[str, int]) -> str:
    """``stack count`` lines, heaviest first (ties break lexically)."""
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return "".join(f"{stack} {n}\n" for stack, n in ordered)


def write_collapsed(
    counts: dict[str, int], path: "str | os.PathLike",
) -> "pathlib.Path":
    """Write ``counts`` as a collapsed-stack text file — the interchange
    format ``repro diff`` and external flamegraph tooling consume
    (``profile --stacks`` routes here)."""
    import pathlib

    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(collapsed_text(counts), encoding="utf-8")
    return p


def parse_collapsed(text: str) -> dict[str, int]:
    """Inverse of :func:`collapsed_text` (tests round-trip through it)."""
    counts: dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, n = line.rpartition(" ")
        if not stack:
            raise ValueError(f"malformed collapsed line {line!r}")
        counts[stack] = counts.get(stack, 0) + int(n)
    return counts
