"""Differential profiling: attribute *where* two runs diverge.

``python -m repro regress`` can say *that* wall clock drifted; this
module answers *where*.  It takes two runs — Chrome trace JSONs from the
:class:`~repro.obs.trace.Tracer` or flight recorder, collapsed-stack
samples from :mod:`repro.obs.sampler`, metrics snapshots, ``BENCH_*.json``
reports, or two ledger entries selected by run id / git sha /
fingerprint — and produces a ranked attribution report:

* **per-span deltas with tree alignment** — spans are keyed by their
  *name path* (the chain of span names from the trace root, via the
  ``trace_id``/``span_id``/``parent_id`` linkage every span carries), so
  ``autotune.search`` under ``bench.cold`` never aliases the same span
  under ``bench.warm``; each aligned node reports count and self/total
  time on both sides;
* **per-phase wall-clock deltas** — ranked by ``|log(b/a)|`` so a 2x
  shift on a 30 ms phase outranks 30% noise on a 300 ms one; phases
  shorter than :data:`PHASE_FLOOR_S` on both sides are demoted below
  every floored phase (their ratios are pure timer noise);
* **counter / gauge / histogram deltas** — histogram deltas include
  per-bucket shifts when both sides expose
  :meth:`~repro.obs.metrics.Histogram.bucket_counts`;
* **changepoint detection** — each phase's wall-clock series over the
  ledger is split at the point of maximum between-segment variance
  reduction, so a ``regress`` failure points at the *first offending
  entry* (run id + git sha) and the culprit phase, not just the newest;
* **a red/blue differential flamegraph** — two collapsed-stack sets
  merged into one icicle layout, sample counts normalized to the second
  run's total, each frame colored by its share shift (red grew, blue
  shrank).

Determinism: every ranking breaks ties lexically, floats are rounded at
the report boundary, and :meth:`DiffReport.to_json` serializes with
sorted keys — the same inputs always produce byte-identical output (the
``regress --attribute`` embedding contract, pinned by tests).
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from . import metrics as obs_metrics
from . import sampler as obs_sampler

#: bump when the diff-report JSON layout changes
SCHEMA_VERSION = 1

#: phases where both sides are shorter than this are ranked below every
#: longer phase: at sub-5 ms scale the log-ratio measures timer noise,
#: not behavior
PHASE_FLOOR_S = 0.005

#: changepoints scoring below this fraction of total variance explained
#: are suppressed (a flat-but-noisy series "splits" anywhere)
CHANGEPOINT_MIN_SCORE = 0.5

#: series shorter than this cannot support a changepoint verdict
CHANGEPOINT_MIN_RUNS = 4


def _round6(v: float) -> float:
    return round(float(v), 6)


# ---------------------------------------------------------------------------
# Span extraction and tree-aligned aggregation
# ---------------------------------------------------------------------------


def spans_from_chrome(doc: dict) -> list[dict]:
    """Extract span dicts from a Chrome ``trace_event`` document.

    Accepts both :meth:`repro.obs.trace.Tracer.chrome_trace` and
    :meth:`repro.obs.flight.FlightRecorder.chrome_trace` output: ``"X"``
    events become ``{name, dur_us, span_id, parent_id}``; metadata and
    instant events are skipped.  Trace ids ride in each event's ``args``.
    """
    out: list[dict] = []
    for ev in doc.get("traceEvents", ()):
        if ev.get("ph") != "X":
            continue
        args = ev.get("args") or {}
        out.append({
            "name": str(ev.get("name", "?")),
            "dur_us": float(ev.get("dur", 0.0)),
            "span_id": args.get("span_id"),
            "parent_id": args.get("parent_id"),
        })
    return out


def spans_from_records(records: Iterable[Any]) -> list[dict]:
    """Adapt :meth:`repro.obs.trace.Tracer.spans` output (SpanRecord
    objects) to the span-dict shape :func:`aggregate_spans` consumes."""
    return [{
        "name": r.name,
        "dur_us": r.dur_us,
        "span_id": r.span_id or None,
        "parent_id": r.parent_id,
    } for r in records]


def aggregate_spans(spans: Sequence[dict]) -> dict[str, dict]:
    """Fold spans into ``{name_path: {count, total_us, self_us}}``.

    The *name path* is the ``;``-joined chain of span names from the
    trace root (resolved through ``parent_id``; an unresolvable parent —
    evicted from the flight ring, or a trace without ids — starts a
    fresh root).  Self time is the span's duration minus its children's,
    clamped at zero: clock jitter can make a child nominally outlast its
    parent, and a negative self time would poison every ranking above it.
    """
    by_id: dict[Any, dict] = {}
    child_total: dict[Any, float] = {}
    for s in spans:
        sid = s.get("span_id")
        if sid is not None:
            by_id[sid] = s
    for s in spans:
        pid = s.get("parent_id")
        if pid is not None and pid in by_id:
            child_total[pid] = child_total.get(pid, 0.0) + s["dur_us"]

    paths: dict[Any, str] = {}

    def path_of(s: dict) -> str:
        sid = s.get("span_id")
        if sid is not None and sid in paths:
            return paths[sid]
        chain = [s["name"]]
        seen = {sid} if sid is not None else set()
        cur = s
        while True:
            pid = cur.get("parent_id")
            if pid is None or pid not in by_id or pid in seen:
                break
            seen.add(pid)
            cur = by_id[pid]
            chain.append(cur["name"])
        p = ";".join(reversed(chain))
        if sid is not None:
            paths[sid] = p
        return p

    agg: dict[str, dict] = {}
    for s in spans:
        p = path_of(s)
        node = agg.setdefault(p, {"count": 0, "total_us": 0.0, "self_us": 0.0})
        node["count"] += 1
        node["total_us"] += s["dur_us"]
        sid = s.get("span_id")
        node["self_us"] += max(0.0, s["dur_us"] - child_total.get(sid, 0.0))
    return agg


@dataclass(frozen=True)
class SpanDelta:
    """One tree-aligned span node compared across the two runs."""

    path: str
    count_a: int
    count_b: int
    total_us_a: float
    total_us_b: float
    self_us_a: float
    self_us_b: float

    @property
    def name(self) -> str:
        return self.path.rsplit(";", 1)[-1]

    @property
    def d_self_us(self) -> float:
        return self.self_us_b - self.self_us_a

    @property
    def d_total_us(self) -> float:
        return self.total_us_b - self.total_us_a

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "count_a": self.count_a, "count_b": self.count_b,
            "total_us_a": _round6(self.total_us_a),
            "total_us_b": _round6(self.total_us_b),
            "self_us_a": _round6(self.self_us_a),
            "self_us_b": _round6(self.self_us_b),
            "d_self_us": _round6(self.d_self_us),
            "d_total_us": _round6(self.d_total_us),
        }


def diff_spans(spans_a: Sequence[dict], spans_b: Sequence[dict]) -> list[SpanDelta]:
    """Aligned span deltas over the union of name paths, largest absolute
    self-time shift first (ties break lexically by path)."""
    agg_a = aggregate_spans(spans_a)
    agg_b = aggregate_spans(spans_b)
    empty = {"count": 0, "total_us": 0.0, "self_us": 0.0}
    out = []
    for path in set(agg_a) | set(agg_b):
        a = agg_a.get(path, empty)
        b = agg_b.get(path, empty)
        out.append(SpanDelta(
            path=path,
            count_a=a["count"], count_b=b["count"],
            total_us_a=a["total_us"], total_us_b=b["total_us"],
            self_us_a=a["self_us"], self_us_b=b["self_us"],
        ))
    return sorted(out, key=lambda d: (-abs(d.d_self_us), d.path))


# ---------------------------------------------------------------------------
# Phase deltas (wall-clock seconds per bench phase)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseDelta:
    """One wall-clock phase compared across the two runs.

    ``score`` is ``|log(b/a)|`` — scale-free, so a genuine 2x shift on a
    small phase outranks proportionally small noise on a large one — and
    0.0 for floored phases (see :data:`PHASE_FLOOR_S`) and phases
    missing on either side.
    """

    phase: str
    seconds_a: float | None
    seconds_b: float | None
    floored: bool = False

    @property
    def delta(self) -> float | None:
        if self.seconds_a is None or self.seconds_b is None:
            return None
        return self.seconds_b - self.seconds_a

    @property
    def ratio(self) -> float | None:
        if not self.seconds_a or self.seconds_b is None:
            return None
        return self.seconds_b / self.seconds_a

    @property
    def score(self) -> float:
        if self.floored or not self.seconds_a or not self.seconds_b:
            return 0.0
        return abs(math.log(self.seconds_b / self.seconds_a))

    def as_dict(self) -> dict:
        return {
            "phase": self.phase,
            "seconds_a": _round6(self.seconds_a) if self.seconds_a is not None else None,
            "seconds_b": _round6(self.seconds_b) if self.seconds_b is not None else None,
            "delta": _round6(self.delta) if self.delta is not None else None,
            "ratio": _round6(self.ratio) if self.ratio is not None else None,
            "score": _round6(self.score),
            "floored": self.floored,
        }


def diff_phases(
    phases_a: dict[str, float], phases_b: dict[str, float],
    *, floor_s: float = PHASE_FLOOR_S,
) -> list[PhaseDelta]:
    """Ranked wall-clock phase deltas over the union of phase names.

    Phases below ``floor_s`` on *both* sides rank below every other
    phase regardless of ratio; within each group the order is score
    descending, ties lexical.
    """
    out = []
    for phase in set(phases_a) | set(phases_b):
        a = phases_a.get(phase)
        b = phases_b.get(phase)
        floored = (
            (a is None or a < floor_s) and (b is None or b < floor_s))
        out.append(PhaseDelta(
            phase=phase, seconds_a=a, seconds_b=b, floored=floored))
    return sorted(out, key=lambda d: (d.floored, -d.score, d.phase))


# ---------------------------------------------------------------------------
# Metrics deltas (counters / gauges / histograms)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricDelta:
    key: str
    kind: str  #: "counter" | "gauge"
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a

    def as_dict(self) -> dict:
        return {"key": self.key, "kind": self.kind,
                "a": _round6(self.a), "b": _round6(self.b),
                "delta": _round6(self.delta)}


@dataclass(frozen=True)
class HistogramDelta:
    """Count/sum/mean shift of one histogram series, plus per-bucket
    deltas when both sides expose bucket counts."""

    key: str
    count_a: int
    count_b: int
    sum_a: float
    sum_b: float
    mean_a: float
    mean_b: float
    #: ``(bucket_index, count_b - count_a)`` for buckets that moved;
    #: indices follow :data:`repro.obs.metrics.BUCKET_BOUNDS` (+Inf last)
    bucket_deltas: tuple[tuple[int, int], ...] | None = None

    def as_dict(self) -> dict:
        out = {
            "key": self.key,
            "count_a": self.count_a, "count_b": self.count_b,
            "sum_a": _round6(self.sum_a), "sum_b": _round6(self.sum_b),
            "mean_a": _round6(self.mean_a), "mean_b": _round6(self.mean_b),
            "d_mean": _round6(self.mean_b - self.mean_a),
        }
        if self.bucket_deltas is not None:
            out["bucket_deltas"] = [list(bd) for bd in self.bucket_deltas]
        return out


def histogram_delta(
    key: str,
    a: "obs_metrics.Histogram | dict",
    b: "obs_metrics.Histogram | dict",
) -> HistogramDelta:
    """Delta of two histograms — live :class:`~repro.obs.metrics.Histogram`
    objects (bucket deltas via :meth:`~repro.obs.metrics.Histogram.bucket_counts`)
    or snapshot dicts (aggregates only)."""

    def stats(h):
        if isinstance(h, obs_metrics.Histogram):
            return h.count, h.sum, h.mean, h.bucket_counts()
        return (int(h.get("count", 0)), float(h.get("sum", 0.0)),
                float(h.get("mean", 0.0)), h.get("buckets"))

    count_a, sum_a, mean_a, buckets_a = stats(a)
    count_b, sum_b, mean_b, buckets_b = stats(b)
    bucket_deltas = None
    if buckets_a is not None and buckets_b is not None:
        n = max(len(buckets_a), len(buckets_b))
        pad_a = list(buckets_a) + [0] * (n - len(buckets_a))
        pad_b = list(buckets_b) + [0] * (n - len(buckets_b))
        bucket_deltas = tuple(
            (i, pad_b[i] - pad_a[i]) for i in range(n)
            if pad_b[i] != pad_a[i])
    return HistogramDelta(
        key=key, count_a=count_a, count_b=count_b,
        sum_a=sum_a, sum_b=sum_b, mean_a=mean_a, mean_b=mean_b,
        bucket_deltas=bucket_deltas,
    )


def diff_metrics(snap_a: dict, snap_b: dict) -> tuple[
        list[MetricDelta], list[MetricDelta], list[HistogramDelta]]:
    """Counter, gauge and histogram deltas between two registry
    snapshots; unchanged series are dropped, rankings are by absolute
    delta (counters/gauges) or absolute count shift (histograms)."""
    counters = []
    for key in set(snap_a.get("counters", {})) | set(snap_b.get("counters", {})):
        a = float(snap_a.get("counters", {}).get(key, 0))
        b = float(snap_b.get("counters", {}).get(key, 0))
        if a != b:
            counters.append(MetricDelta(key, "counter", a, b))
    gauges = []
    for key in set(snap_a.get("gauges", {})) | set(snap_b.get("gauges", {})):
        a = float(snap_a.get("gauges", {}).get(key, 0.0))
        b = float(snap_b.get("gauges", {}).get(key, 0.0))
        if a != b:
            gauges.append(MetricDelta(key, "gauge", a, b))
    hists = []
    empty: dict = {}
    for key in set(snap_a.get("histograms", {})) | set(snap_b.get("histograms", {})):
        ha = snap_a.get("histograms", {}).get(key, empty)
        hb = snap_b.get("histograms", {}).get(key, empty)
        if ha != hb:
            hists.append(histogram_delta(key, ha, hb))
    key_fn = lambda d: (-abs(d.delta), d.key)  # noqa: E731
    return (sorted(counters, key=key_fn), sorted(gauges, key=key_fn),
            sorted(hists, key=lambda d: (-abs(d.count_b - d.count_a), d.key)))


# ---------------------------------------------------------------------------
# Changepoint detection over the ledger's wall-clock series
# ---------------------------------------------------------------------------


def changepoint(series: Sequence[float]) -> tuple[int, float] | None:
    """The best two-segment split of ``series``: ``(index, score)``.

    ``index`` is the first point of the *after* segment; ``score`` is
    the fraction of total variance the split explains (1.0 = a perfect
    step, 0.0 = flat).  Deterministic: ties resolve to the earliest
    split.  Returns ``None`` for series shorter than
    :data:`CHANGEPOINT_MIN_RUNS` or with zero variance.
    """
    n = len(series)
    if n < CHANGEPOINT_MIN_RUNS:
        return None
    xs = [float(v) for v in series]
    mean = sum(xs) / n
    sse_total = sum((v - mean) ** 2 for v in xs)
    # flatness check is *relative*: a constant series like [0.1]*6 keeps
    # femto-scale rounding residue that a split would "explain" perfectly
    if sse_total <= n * (abs(mean) * 1e-9) ** 2 + 1e-24:
        return None

    def sse(seg: Sequence[float]) -> float:
        m = sum(seg) / len(seg)
        return sum((v - m) ** 2 for v in seg)

    best_k, best_score = None, -1.0
    for k in range(1, n):
        score = 1.0 - (sse(xs[:k]) + sse(xs[k:])) / sse_total
        if score > best_score + 1e-12:
            best_k, best_score = k, score
    assert best_k is not None
    return best_k, best_score


@dataclass(frozen=True)
class Changepoint:
    """One detected step in a phase's ledger wall-clock series."""

    phase: str
    index: int  #: ledger-series index of the first changed run
    run_id: str
    git_sha: str | None
    before_mean: float
    after_mean: float
    score: float

    @property
    def shift(self) -> float:
        return (self.after_mean / self.before_mean
                if self.before_mean else float("inf"))

    def as_dict(self) -> dict:
        return {
            "phase": self.phase, "index": self.index,
            "run_id": self.run_id, "git_sha": self.git_sha,
            "before_mean": _round6(self.before_mean),
            "after_mean": _round6(self.after_mean),
            "shift": _round6(self.shift) if self.before_mean else None,
            "score": _round6(self.score),
        }


def ledger_changepoints(
    entries: Sequence[dict], *,
    min_score: float = CHANGEPOINT_MIN_SCORE,
) -> list[Changepoint]:
    """Changepoints per wall-clock phase over ``entries`` (oldest first).

    Callers pass a *comparable* slice (same config/fingerprint — the
    regress window logic); each phase series is split independently and
    low-score splits are suppressed.  Ranked by score descending, ties
    lexical by phase.
    """
    phases = sorted({k for e in entries for k in e.get("wall_seconds", {})})
    out = []
    for phase in phases:
        indexed = [(i, float(e["wall_seconds"][phase]))
                   for i, e in enumerate(entries)
                   if phase in e.get("wall_seconds", {})]
        cp = changepoint([v for _, v in indexed])
        if cp is None:
            continue
        k, score = cp
        if score < min_score:
            continue
        values = [v for _, v in indexed]
        first = entries[indexed[k][0]]
        out.append(Changepoint(
            phase=phase, index=indexed[k][0],
            run_id=first.get("run_id", "?"),
            git_sha=first.get("git_sha"),
            before_mean=sum(values[:k]) / k,
            after_mean=sum(values[k:]) / (len(values) - k),
            score=score,
        ))
    return sorted(out, key=lambda c: (-c.score, c.phase))


# ---------------------------------------------------------------------------
# Collapsed-stack diff + the red/blue differential flamegraph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrameDelta:
    """Per-frame *self* (leaf-position) sample-share shift."""

    frame: str
    self_a: int  #: raw self samples in run A
    self_b: int
    share_a: float  #: self samples / total samples of the run
    share_b: float

    @property
    def d_share(self) -> float:
        return self.share_b - self.share_a

    def as_dict(self) -> dict:
        return {
            "frame": self.frame,
            "self_a": self.self_a, "self_b": self.self_b,
            "share_a": _round6(self.share_a), "share_b": _round6(self.share_b),
            "d_share": _round6(self.d_share),
        }


def diff_frames(
    counts_a: dict[str, int], counts_b: dict[str, int],
) -> list[FrameDelta]:
    """Leaf-frame sample-share deltas between two collapsed-stack sets.

    Shares (not raw counts) are compared because the two runs rarely
    cover the same wall time; ranked by absolute share shift, ties
    lexical.  Frames whose share is unchanged are dropped.
    """

    def self_counts(counts: dict[str, int]) -> dict[str, int]:
        out: dict[str, int] = {}
        for stack, n in counts.items():
            leaf = stack.rsplit(";", 1)[-1]
            out[leaf] = out.get(leaf, 0) + n
        return out

    total_a = sum(counts_a.values()) or 1
    total_b = sum(counts_b.values()) or 1
    self_a = self_counts(counts_a)
    self_b = self_counts(counts_b)
    out = []
    for frame in set(self_a) | set(self_b):
        a = self_a.get(frame, 0)
        b = self_b.get(frame, 0)
        share_a, share_b = a / total_a, b / total_b
        if share_a != share_b:
            out.append(FrameDelta(frame, a, b, share_a, share_b))
    return sorted(out, key=lambda d: (-abs(d.d_share), d.frame))


def _heat_color(r: float) -> str:
    """Map a relative shift ``r`` in [-1, 1] to blue (shrank) → neutral
    → red (grew).  Linear RGB interpolation, deterministic."""
    r = max(-1.0, min(1.0, r))
    neutral = (0x9a, 0x99, 0x94)
    hot = (0xd9, 0x30, 0x25)  # red: grew in run B
    cold = (0x2a, 0x78, 0xd6)  # blue: shrank in run B
    target = hot if r >= 0 else cold
    t = abs(r)
    rgb = tuple(round(n + (c - n) * t) for n, c in zip(neutral, target))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def differential_flamegraph_svg(
    counts_a: dict[str, int], counts_b: dict[str, int], *,
    width: int = 860, row_h: int = 18, max_depth: int = 40,
    label_a: str = "A", label_b: str = "B",
) -> str:
    """A red/blue differential flamegraph of two collapsed-stack sets.

    Icicle layout (root on top, alphabetical child order — deterministic
    for a given input).  Run A's counts are normalized to run B's total
    so the two runs compare by *share*; each frame's width is its
    combined (normalized A + B) weight, its color the relative shift
    ``(b - a~) / (a~ + b)`` — red grew in B, blue shrank, gray unchanged.
    Pure string building, no scripts; tooltips carry both sides' numbers.
    """
    total_a = sum(counts_a.values())
    total_b = sum(counts_b.values())
    if total_a + total_b <= 0:
        return "<p class='sub'>(no samples on either side)</p>"
    # normalize A onto B's total so shares, not durations, are compared
    scale_a = (total_b / total_a) if total_a and total_b else 1.0

    root: dict = {"a": 0.0, "b": 0.0, "children": {}}
    for counts, side, scale in ((counts_a, "a", scale_a), (counts_b, "b", 1.0)):
        for stack, n in sorted(counts.items()):
            node = root
            node[side] += n * scale
            for part in stack.split(";"):
                child = node["children"].setdefault(
                    part, {"a": 0.0, "b": 0.0, "children": {}})
                child[side] += n * scale
                node = child

    grand = root["a"] + root["b"]
    pps = width / grand  # pixels per (normalized) sample
    boxes: list[tuple[int, float, float, str, float, float]] = []

    def layout(name: str, node: dict, depth: int, x0: float) -> None:
        boxes.append((depth, x0, (node["a"] + node["b"]) * pps,
                      name, node["a"], node["b"]))
        if depth >= max_depth:
            return
        x = x0
        for child_name in sorted(node["children"]):
            child = node["children"][child_name]
            layout(child_name, child, depth + 1, x)
            x += (child["a"] + child["b"]) * pps

    layout("all", root, 0, 0.0)
    depth_max = max(d for d, *_ in boxes)
    height = (depth_max + 1) * row_h + 22
    parts = [
        f"<svg viewBox='0 0 {width} {height}' role='img' "
        f"aria-label='differential flamegraph'>",
        f"<text x='4' y='{height - 8}'>blue: shrank vs "
        f"{_esc(label_a)} &#183; red: grew in {_esc(label_b)} "
        f"(A normalized: {total_a} &#8594; {total_b} samples)</text>",
    ]
    for depth, x0, w, name, a, b in boxes:
        if w < 0.4:
            continue
        rel = (b - a) / (a + b) if (a + b) else 0.0
        yy = depth * row_h
        tip = (f"{name} — {label_a}: {a / max(scale_a, 1e-12):.0f} samples"
               f" ({a / grand * 2:.1%} norm), {label_b}: {b:.0f} samples"
               f" ({b / grand * 2:.1%}); shift {rel:+.1%}")
        parts.append(
            f"<rect x='{x0:.1f}' y='{yy}' width='{max(w, 0.6):.1f}' "
            f"height='{row_h - 2}' rx='2' fill='{_heat_color(rel)}' "
            f"stroke='light-dark(#fcfcfb,#1a1a19)' stroke-width='0.5'>"
            f"<title>{_esc(tip)}</title></rect>")
        if w >= 60:
            label = name if len(name) <= int(w / 7) else (
                name[: max(1, int(w / 7) - 1)] + "…")
            parts.append(
                f"<text x='{x0 + 4:.1f}' y='{yy + row_h - 6}' "
                f"fill='#ffffff'>{_esc(label)}</text>")
    parts.append("</svg>")
    return "".join(parts)


def _esc(s: object) -> str:
    import html

    return html.escape(str(s))


# ---------------------------------------------------------------------------
# Sides: one run's comparable material, wherever it came from
# ---------------------------------------------------------------------------


@dataclass
class Side:
    """Everything diffable extracted from one input (file or ledger)."""

    label: str
    kind: str  #: "trace" | "bench" | "metrics" | "collapsed" | "ledger"
    spans: list[dict] | None = None
    stacks: dict[str, int] | None = None
    phases: dict[str, float] | None = None
    metrics: dict | None = None
    entry: dict | None = None  #: the ledger entry, when kind == "ledger"


def _bench_phases(doc: dict) -> dict[str, float]:
    """Wall-clock phases of a ``BENCH_*.json`` report, named like the
    ledger's ``wall_seconds`` keys so the two sources align."""
    out: dict[str, float] = {}
    gpu = doc.get("gpu_autotune") or {}
    for phase in ("cold", "warm"):
        sec = (gpu.get(phase) or {}).get("seconds")
        if isinstance(sec, (int, float)):
            out[f"gpu_{phase}"] = float(sec)
    arm = doc.get("arm_schedule") or {}
    for phase in ("cold", "warm"):
        sec = (arm.get(phase) or {}).get("seconds")
        if isinstance(sec, (int, float)):
            out[f"arm_{phase}"] = float(sec)
    return out


def side_from_ledger_entry(entry: dict) -> Side:
    return Side(
        label=entry.get("run_id", "?"), kind="ledger",
        phases={k: float(v) for k, v in entry.get("wall_seconds", {}).items()},
        metrics=entry.get("metrics") or None,
        entry=entry,
    )


def load_side(
    spec: str, *, history_dir: str | os.PathLike | None = None,
) -> Side:
    """Auto-detect and load one diff input.

    An existing file is sniffed by content: a Chrome trace (has
    ``traceEvents``), a ``BENCH_*.json`` report (has ``gpu_autotune`` /
    ``arm_schedule``), a metrics snapshot (has ``counters``), a single
    ledger-entry JSON (has ``wall_seconds``), or collapsed-stack text.
    Anything else is a ledger selector — ``-1`` (newest), ``-2``, or a
    run-id / git-sha / fingerprint prefix — resolved against
    ``history_dir`` via :meth:`repro.obs.history.BenchLedger.select`.
    """
    path = pathlib.Path(spec)
    if path.is_file():
        text = path.read_text(encoding="utf-8")
        try:
            doc = json.loads(text)
        except ValueError:
            return Side(label=path.name, kind="collapsed",
                        stacks=obs_sampler.parse_collapsed(text))
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: JSON top level must be an object")
        if "traceEvents" in doc:
            return Side(label=path.name, kind="trace",
                        spans=spans_from_chrome(doc))
        if "gpu_autotune" in doc or "arm_schedule" in doc:
            side = Side(label=path.name, kind="bench",
                        phases=_bench_phases(doc),
                        metrics=doc.get("metrics") or None)
            sampler_block = doc.get("sampler") or {}
            if sampler_block.get("stacks"):
                side.stacks = {k: int(v)
                               for k, v in sampler_block["stacks"].items()}
            return side
        if "wall_seconds" in doc:
            side = side_from_ledger_entry(doc)
            side.label = path.name
            return side
        if "counters" in doc or "histograms" in doc:
            return Side(label=path.name, kind="metrics", metrics=doc)
        raise ValueError(f"{path}: unrecognized JSON document "
                         f"(keys: {', '.join(sorted(doc)[:8])})")
    from .history import BenchLedger

    return side_from_ledger_entry(BenchLedger(history_dir).select(spec))


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


@dataclass
class DiffReport:
    """Ranked attribution of where run B diverged from run A."""

    label_a: str
    label_b: str
    kind_a: str = "?"
    kind_b: str = "?"
    spans: list[SpanDelta] = field(default_factory=list)
    phases: list[PhaseDelta] = field(default_factory=list)
    counters: list[MetricDelta] = field(default_factory=list)
    gauges: list[MetricDelta] = field(default_factory=list)
    histograms: list[HistogramDelta] = field(default_factory=list)
    frames: list[FrameDelta] = field(default_factory=list)
    changepoints: list[Changepoint] = field(default_factory=list)
    stacks_a: dict[str, int] | None = None
    stacks_b: dict[str, int] | None = None

    @property
    def empty(self) -> bool:
        """True when no section found anything to attribute."""
        return not (self.spans or self.phases or self.counters
                    or self.gauges or self.histograms or self.frames
                    or self.changepoints)

    def top_phase(self) -> PhaseDelta | None:
        """The highest-ranked (non-floored) phase delta, if any."""
        for d in self.phases:
            if not d.floored and d.score > 0.0:
                return d
        return None

    def as_dict(self, *, top: int | None = None) -> dict:
        """Plain-JSON view; ``top`` caps every ranked section (the cap is
        recorded so a truncated report never masquerades as complete)."""

        def cap(rows):
            return rows[:top] if top is not None else rows

        return {
            "schema": SCHEMA_VERSION,
            "a": {"label": self.label_a, "kind": self.kind_a},
            "b": {"label": self.label_b, "kind": self.kind_b},
            "top": top,
            "phases": [d.as_dict() for d in cap(self.phases)],
            "spans": [d.as_dict() for d in cap(self.spans)],
            "counters": [d.as_dict() for d in cap(self.counters)],
            "gauges": [d.as_dict() for d in cap(self.gauges)],
            "histograms": [d.as_dict() for d in cap(self.histograms)],
            "frames": [d.as_dict() for d in cap(self.frames)],
            "changepoints": [c.as_dict() for c in self.changepoints],
        }

    def to_json(self, *, top: int | None = None) -> str:
        """Byte-stable serialization: sorted keys, compact separators,
        floats rounded at the section boundary — fixed inputs always
        produce identical bytes (the CI embedding contract)."""
        return json.dumps(self.as_dict(top=top), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def table(self, *, top: int = 10) -> list[str]:
        """The human-facing text rendering (ranked, capped per section)."""
        lines: list[str] = []
        if self.phases:
            lines.append(f"  {'phase':<22} {'A (s)':>10} {'B (s)':>10} "
                         f"{'delta':>10} {'ratio':>7}")
            for d in self.phases[:top]:
                fmt = lambda v: f"{v:.4f}" if v is not None else "—"  # noqa: E731
                ratio = f"{d.ratio:.2f}x" if d.ratio is not None else "—"
                note = " (floored)" if d.floored else ""
                lines.append(f"  {d.phase:<22} {fmt(d.seconds_a):>10} "
                             f"{fmt(d.seconds_b):>10} {fmt(d.delta):>10} "
                             f"{ratio:>7}{note}")
        if self.changepoints:
            lines.append("  changepoints (ledger series):")
            for c in self.changepoints[:top]:
                sha = (c.git_sha or "nogit")[:10]
                lines.append(
                    f"    {c.phase}: {c.before_mean:.4f}s -> "
                    f"{c.after_mean:.4f}s ({c.shift:.2f}x) first at "
                    f"{c.run_id} [{sha}] (score {c.score:.2f})")
        if self.spans:
            lines.append(f"  {'span (self-time delta)':<44} {'count':>11} "
                         f"{'self A ms':>10} {'self B ms':>10} {'delta':>9}")
            for d in self.spans[:top]:
                label = d.path if len(d.path) <= 44 else "…" + d.path[-43:]
                lines.append(
                    f"  {label:<44} {f'{d.count_a}->{d.count_b}':>11} "
                    f"{d.self_us_a / 1e3:>10.3f} {d.self_us_b / 1e3:>10.3f} "
                    f"{d.d_self_us / 1e3:>+9.3f}")
        if self.frames:
            lines.append(f"  {'frame (self-share delta)':<52} "
                         f"{'A':>7} {'B':>7} {'shift':>8}")
            for d in self.frames[:top]:
                label = d.frame if len(d.frame) <= 52 else "…" + d.frame[-51:]
                lines.append(f"  {label:<52} {d.share_a:>6.1%} "
                             f"{d.share_b:>6.1%} {d.d_share:>+8.1%}")
        if self.counters:
            lines.append("  counters:")
            for d in self.counters[:top]:
                lines.append(f"    {d.key:<56} {d.a:g} -> {d.b:g} "
                             f"({d.delta:+g})")
        if self.histograms:
            lines.append("  histograms:")
            for d in self.histograms[:top]:
                lines.append(
                    f"    {d.key:<56} n {d.count_a}->{d.count_b} "
                    f"mean {d.mean_a:.4g}->{d.mean_b:.4g}")
        if not lines:
            lines.append("  (nothing to attribute: the sides are identical "
                         "in every comparable section)")
        return lines


def diff_sides(a: Side, b: Side) -> DiffReport:
    """Compare every section both sides carry (others stay empty)."""
    report = DiffReport(
        label_a=a.label, label_b=b.label, kind_a=a.kind, kind_b=b.kind)
    if a.spans is not None and b.spans is not None:
        report.spans = diff_spans(a.spans, b.spans)
    if a.phases is not None and b.phases is not None:
        report.phases = diff_phases(a.phases, b.phases)
    if a.metrics is not None and b.metrics is not None:
        report.counters, report.gauges, report.histograms = diff_metrics(
            a.metrics, b.metrics)
    if a.stacks is not None and b.stacks is not None:
        report.frames = diff_frames(a.stacks, b.stacks)
        report.stacks_a, report.stacks_b = a.stacks, b.stacks
    obs_metrics.counter("diff_reports",
                        outcome="empty" if report.empty else "ranked").inc()
    return report


def attach_ledger_changepoints(
    report: DiffReport, entries: Sequence[dict], candidate: dict,
) -> DiffReport:
    """Add changepoint rows computed over the comparable ledger slice.

    ``entries`` is the whole ledger (oldest first); the comparable slice
    shares the candidate's config key and fingerprint — the same filter
    the regression checker applies to its wall-clock window.
    """
    from .regress import _config_key

    comparable = [
        e for e in entries
        if _config_key(e) == _config_key(candidate)
        and e.get("fingerprint") == candidate.get("fingerprint")
    ]
    report.changepoints = ledger_changepoints(comparable)
    return report


# ---------------------------------------------------------------------------
# regress --attribute: the bridge from a verdict to an explanation
# ---------------------------------------------------------------------------


def attribute_entries(
    baseline: dict, candidate: dict, *,
    ledger_entries: Sequence[dict] = (),
) -> DiffReport:
    """The deterministic attribution for a regress failure: per-phase
    deltas + metrics deltas between the two ledger entries, plus
    changepoints over the comparable ledger series.  Pure function of
    its inputs — ``to_json`` output is byte-stable."""
    report = diff_sides(
        side_from_ledger_entry(baseline), side_from_ledger_entry(candidate))
    if ledger_entries:
        attach_ledger_changepoints(report, ledger_entries, candidate)
    return report


def collect_fresh_profile(
    model: str = "resnet50", batch: int = 1, *,
    sample_interval_s: float = 0.002, layers_cap: int = 3,
) -> tuple[list[dict], dict[str, int]]:
    """A fresh (trace spans, collapsed stacks) pair of the smoke-scale
    autotune sweep under the current code — the ``regress --attribute``
    evidence for *where the candidate's time goes now*.

    Runs the first ``layers_cap`` layers through the autotuner under a
    private tracer + sampler; the in-process memo is cleared first so
    the sweep does real work.  Wall-clock content is inherently
    nondeterministic — callers must keep it out of byte-stable sections.
    """
    from ..gpu.autotune import autotune_conv, clear_cache
    from ..models import get_model_layers
    from . import trace as obs_trace

    clear_cache()
    specs = get_model_layers(model, batch=batch)[:layers_cap]
    with obs_trace.capture() as tracer, \
            obs_sampler.sampling(interval_s=sample_interval_s) as sampler:
        with obs_trace.span("attribute.collect", model=model, batch=batch):
            for spec in specs:
                autotune_conv(spec, bits=4)
    return spans_from_records(tracer.spans()), sampler.collapsed()
