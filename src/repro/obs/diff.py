"""Differential profiling: attribute *where* two runs diverge.

``python -m repro diff A B`` takes two runs — Chrome trace JSONs (from a
:class:`~repro.obs.trace.Recorder`, ``profile --trace``, ``flight
--dump`` or the ``trace.json`` of ``benchmarks/e2e/run.py --trace 1``),
collapsed-stack samples from :mod:`repro.obs.sampler`, or metrics
snapshots — and produces a ranked attribution report:

* **per-span deltas with tree alignment** — spans are keyed by their
  *name path* (the chain of span names from the trace root, via the
  ``span_id``/``parent_id`` linkage every span carries, across
  processes in an e2e trace), so ``autotune.search`` under one figure's
  span never aliases the same span under another; each aligned node
  reports count and self/total time on both sides;
* **counter / gauge / histogram deltas** — histogram deltas include
  per-bucket shifts when both sides expose
  :meth:`~repro.obs.metrics.Histogram.bucket_counts`;
* **a red/blue differential flamegraph** — two collapsed-stack sets
  merged into one icicle layout, sample counts normalized to the second
  run's total, each frame colored by its share shift (red grew, blue
  shrank).

Determinism: every ranking breaks ties lexically, floats are rounded at
the report boundary, and :meth:`DiffReport.to_json` serializes with
sorted keys — the same inputs always produce byte-identical output
(pinned by tests).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Sequence

from . import metrics as obs_metrics
from . import sampler as obs_sampler

#: bump when the diff-report JSON layout changes
#: v2: no wall-clock ``phases`` section and no ledger section
SCHEMA_VERSION = 2


def _round6(v: float) -> float:
    return round(float(v), 6)


# ---------------------------------------------------------------------------
# Span extraction and tree-aligned aggregation
# ---------------------------------------------------------------------------


def spans_from_chrome(doc: dict) -> list[dict]:
    """Extract span dicts from a Chrome ``trace_event`` document.

    Reads :meth:`repro.obs.trace.Recorder.chrome_trace` output: ``"X"``
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


def aggregate_spans(spans: Sequence[dict]) -> dict[str, dict]:
    """Fold spans into ``{name_path: {count, total_us, self_us}}``.

    The *name path* is the ``;``-joined chain of span names from the
    trace root (resolved through ``parent_id``; an unresolvable parent —
    evicted from the ring, or a trace without ids — starts a
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
# Sides: one run's comparable material
# ---------------------------------------------------------------------------


@dataclass
class Side:
    """Everything diffable extracted from one input file."""

    label: str
    kind: str  #: "trace" | "metrics" | "collapsed"
    spans: list[dict] | None = None
    stacks: dict[str, int] | None = None
    metrics: dict | None = None


def load_side(spec: str) -> Side:
    """Auto-detect and load one diff input file.

    The file is sniffed by content: a Chrome trace (has
    ``traceEvents``), a metrics snapshot (has ``counters`` or
    ``histograms``), or collapsed-stack text.  Every unusable input
    raises ``ValueError`` naming the file.
    """
    path = pathlib.Path(spec)
    if not path.is_file():
        raise ValueError(
            f"{spec}: {'not a file' if path.exists() else 'no such file'}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{spec}: cannot read ({exc})") from exc
    try:
        doc = json.loads(text)
    except ValueError:
        try:
            stacks = obs_sampler.parse_collapsed(text)
        except ValueError as exc:
            raise ValueError(f"{spec}: neither JSON nor collapsed stacks "
                             f"({exc})") from exc
        return Side(label=path.name, kind="collapsed", stacks=stacks)
    if not isinstance(doc, dict):
        raise ValueError(f"{spec}: JSON top level must be an object")
    if "traceEvents" in doc:
        return Side(label=path.name, kind="trace",
                    spans=spans_from_chrome(doc))
    if "counters" in doc or "histograms" in doc:
        return Side(label=path.name, kind="metrics", metrics=doc)
    raise ValueError(f"{spec}: unrecognized JSON document "
                     f"(keys: {', '.join(sorted(doc)[:8])})")


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
    counters: list[MetricDelta] = field(default_factory=list)
    gauges: list[MetricDelta] = field(default_factory=list)
    histograms: list[HistogramDelta] = field(default_factory=list)
    frames: list[FrameDelta] = field(default_factory=list)
    stacks_a: dict[str, int] | None = None
    stacks_b: dict[str, int] | None = None

    @property
    def empty(self) -> bool:
        """True when no section found anything to attribute."""
        return not (self.spans or self.counters or self.gauges
                    or self.histograms or self.frames)

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
            "spans": [d.as_dict() for d in cap(self.spans)],
            "counters": [d.as_dict() for d in cap(self.counters)],
            "gauges": [d.as_dict() for d in cap(self.gauges)],
            "histograms": [d.as_dict() for d in cap(self.histograms)],
            "frames": [d.as_dict() for d in cap(self.frames)],
        }

    def to_json(self, *, top: int | None = None) -> str:
        """Byte-stable serialization: sorted keys, compact separators,
        floats rounded at the section boundary — fixed inputs always
        produce identical bytes."""
        return json.dumps(self.as_dict(top=top), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def table(self, *, top: int = 10) -> list[str]:
        """The human-facing text rendering (ranked, capped per section)."""
        lines: list[str] = []
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
    if a.metrics is not None and b.metrics is not None:
        report.counters, report.gauges, report.histograms = diff_metrics(
            a.metrics, b.metrics)
    if a.stacks is not None and b.stacks is not None:
        report.frames = diff_frames(a.stacks, b.stacks)
        report.stacks_a, report.stacks_b = a.stacks, b.stacks
    obs_metrics.counter("diff_reports",
                        outcome="empty" if report.empty else "ranked").inc()
    return report
