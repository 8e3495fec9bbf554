"""Self-contained HTML dashboard: ``python -m repro report --html``.

One file, no external assets or scripts: inline CSS (light + dark via
``prefers-color-scheme``) and inline SVG charts —

* a roofline scatter per backend (log-log: MACs/byte vs MACs/s, the
  compute/memory roofs drawn in, points keyed by bit width);
* the Sec. 3.3 accumulation-chain overhead bars per bit width;
* the Fig. 1 CAL/LD table (traditional vs re-designed GEMM, ~4x);
* optional panels: a flamegraph of one collapsed-stack export
  (``--sample-collapsed``), the :mod:`repro.obs.diff` red/blue
  differential flamegraph of two (``--diff-collapsed A B``), and the
  serving card of a ``repro serve --out`` summary (``--serve-summary``).

Every chart carries a ``<details>`` data table (the accessibility/table
view), native ``<title>`` tooltips on marks, and a colorblind-validated
3-slot palette (blue/orange/aqua in both modes).
"""

from __future__ import annotations

import html
import math
import os
import pathlib
from typing import Sequence

from . import trace as obs_trace
from .roofline import (
    RooflinePoint,
    chain_overhead_table,
    model_cal_ld,
    model_roofline,
)

#: categorical slots (light, dark), validated all-pairs in both modes
_SLOTS = (("#2a78d6", "#3987e5"), ("#eb6834", "#d95926"),
          ("#1baf7a", "#199e70"))

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px; background: #f9f9f7; color: #0b0b0b;
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: #52514e; margin: 0 0 16px; }
.card {
  background: #fcfcfb; border: 1px solid rgba(11,11,11,0.10);
  border-radius: 8px; padding: 16px; margin-bottom: 16px;
}
.tiles { display: flex; gap: 12px; flex-wrap: wrap; }
.tile { flex: 1 1 160px; }
.tile .v { font-size: 26px; font-weight: 600; }
.tile .k { color: #52514e; font-size: 12px; }
svg text { font: 11px system-ui, sans-serif; fill: #898781; }
svg .lbl { fill: #52514e; }
table { border-collapse: collapse; font-variant-numeric: tabular-nums; }
th, td { text-align: right; padding: 2px 10px; border-bottom: 1px solid #e1e0d9; }
th:first-child, td:first-child { text-align: left; }
th { color: #52514e; font-weight: 600; }
details summary { cursor: pointer; color: #52514e; margin-top: 8px; }
.legend { display: flex; gap: 16px; margin: 4px 0 8px; color: #52514e; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin-right: 5px; vertical-align: -1px; }
@media (prefers-color-scheme: dark) {
  body { background: #0d0d0d; color: #ffffff; }
  .card { background: #1a1a19; border-color: rgba(255,255,255,0.10); }
  .sub, .tile .k, th, details summary, .legend { color: #c3c2b7; }
  th, td { border-bottom-color: #2c2c2a; }
  svg .lbl { fill: #c3c2b7; }
}
"""


def _esc(s: object) -> str:
    return html.escape(str(s))


def _fmt_si(v: float) -> str:
    for unit, scale in (("T", 1e12), ("G", 1e9), ("M", 1e6), ("K", 1e3)):
        if abs(v) >= scale:
            return f"{v / scale:.3g}{unit}"
    return f"{v:.3g}"


def _slot(i: int) -> str:
    light, dark = _SLOTS[i % len(_SLOTS)]
    return (f"light-dark({light}, {dark})")


# ---------------------------------------------------------------------------
# SVG builders
# ---------------------------------------------------------------------------


def _roofline_svg(points: Sequence[RooflinePoint], bit_list: Sequence[int],
                  width: int = 560, height: int = 300) -> str:
    pts = [p for p in points if p.intensity > 0 and p.achieved_ops > 0]
    if not pts:
        return "<p class='sub'>(no points)</p>"
    peak = max(p.peak_compute_ops for p in pts)
    bw = max(p.peak_bandwidth for p in pts)
    ridge = peak / bw
    x_lo = 10 ** math.floor(math.log10(min(min(p.intensity for p in pts), ridge)))
    x_hi = 10 ** math.ceil(math.log10(max(max(p.intensity for p in pts), ridge)))
    y_lo = 10 ** math.floor(math.log10(min(p.achieved_ops for p in pts)))
    y_hi = 10 ** math.ceil(math.log10(peak))
    m = {"l": 56, "r": 16, "t": 12, "b": 34}
    pw, ph = width - m["l"] - m["r"], height - m["t"] - m["b"]

    def x(v: float) -> float:
        return m["l"] + (math.log10(v) - math.log10(x_lo)) / (
            math.log10(x_hi) - math.log10(x_lo)) * pw

    def y(v: float) -> float:
        return m["t"] + ph - (math.log10(v) - math.log10(y_lo)) / (
            math.log10(y_hi) - math.log10(y_lo)) * ph

    parts = [f"<svg viewBox='0 0 {width} {height}' role='img' "
             f"aria-label='roofline scatter'>"]
    # decade gridlines + tick labels
    grid = "stroke='light-dark(#e1e0d9,#2c2c2a)' stroke-width='1'"
    dec = 10 ** math.floor(math.log10(x_lo))
    while dec <= x_hi:
        if dec >= x_lo:
            parts.append(f"<line x1='{x(dec):.1f}' y1='{m['t']}' "
                         f"x2='{x(dec):.1f}' y2='{m['t'] + ph}' {grid}/>")
            parts.append(f"<text x='{x(dec):.1f}' y='{height - 16}' "
                         f"text-anchor='middle'>{_fmt_si(dec)}</text>")
        dec *= 10
    dec = y_lo
    while dec <= y_hi:
        parts.append(f"<line x1='{m['l']}' y1='{y(dec):.1f}' "
                     f"x2='{m['l'] + pw}' y2='{y(dec):.1f}' {grid}/>")
        parts.append(f"<text x='{m['l'] - 6}' y='{y(dec) + 4:.1f}' "
                     f"text-anchor='end'>{_fmt_si(dec)}</text>")
        dec *= 10
    # the roofs: memory slope up to the ridge, flat compute roof after
    roof = "stroke='light-dark(#898781,#898781)' stroke-width='2' fill='none'"
    parts.append(
        f"<polyline {roof} points='"
        f"{x(x_lo):.1f},{y(min(peak, bw * x_lo)):.1f} "
        f"{x(ridge):.1f},{y(peak):.1f} {x(x_hi):.1f},{y(peak):.1f}'/>")
    parts.append(f"<text class='lbl' x='{x(x_hi) - 4:.1f}' "
                 f"y='{y(peak) - 6:.1f}' text-anchor='end'>"
                 f"peak {_fmt_si(peak)} MAC/s</text>")
    # points, colored by bit width (slot order = bit_list order)
    for p in pts:
        color = _slot(list(bit_list).index(p.bits) if p.bits in bit_list else 0)
        tip = (f"{p.layer} ({p.bits}-bit): {p.intensity:.2f} MACs/byte, "
               f"{_fmt_si(p.achieved_ops)} MAC/s, {p.pct_of_roof:.0%} of roof "
               f"({p.bound}-bound)")
        parts.append(
            f"<circle cx='{x(p.intensity):.1f}' cy='{y(p.achieved_ops):.1f}' "
            f"r='4' fill='{color}' stroke='light-dark(#fcfcfb,#1a1a19)' "
            f"stroke-width='2'><title>{_esc(tip)}</title></circle>")
    parts.append(f"<text x='{m['l'] + pw / 2:.0f}' y='{height - 2}' "
                 f"text-anchor='middle'>arithmetic intensity (MACs/byte, log)"
                 f"</text>")
    parts.append("</svg>")
    legend = "".join(
        f"<span><span class='sw' style='background:{_slot(i)}'></span>"
        f"{b}-bit</span>" for i, b in enumerate(bit_list))
    return f"<div class='legend'>{legend}</div>" + "".join(parts)


def _chain_svg(table: Sequence[dict], width: int = 560) -> str:
    bar_h, gap, left = 22, 8, 110
    height = len(table) * (bar_h + gap) + 16
    vmax = max(row["fraction"] for row in table) or 1.0
    pw = width - left - 70
    parts = [f"<svg viewBox='0 0 {width} {height}' role='img' "
             f"aria-label='chain overhead bars'>"]
    parts.append(f"<line x1='{left}' y1='4' x2='{left}' y2='{height - 4}' "
                 f"stroke='light-dark(#c3c2b7,#383835)' stroke-width='1'/>")
    for i, row in enumerate(table):
        yy = 8 + i * (bar_h + gap)
        w = max(2.0, row["fraction"] / vmax * pw)
        tip = (f"{row['bits']}-bit {row['scheme'].upper()}: chain "
               f"{row['chain']}:1, widening {row['fraction']:.1%} of kernel "
               f"occupancy")
        parts.append(f"<text class='lbl' x='{left - 8}' y='{yy + 15}' "
                     f"text-anchor='end'>{row['bits']}-bit "
                     f"{row['scheme'].upper()}</text>")
        parts.append(
            f"<rect x='{left + 1}' y='{yy}' width='{w:.1f}' "
            f"height='{bar_h}' rx='4' fill='{_slot(0)}'>"
            f"<title>{_esc(tip)}</title></rect>")
        parts.append(f"<text class='lbl' x='{left + w + 7:.1f}' "
                     f"y='{yy + 15}'>{row['fraction']:.1%} "
                     f"(chain {row['chain']}:1)</text>")
    parts.append("</svg>")
    return "".join(parts)


def flamegraph_svg(
    counts: dict[str, int], *, width: int = 860, row_h: int = 18,
    max_depth: int = 40,
) -> str:
    """An icicle-layout flamegraph of collapsed stacks (inline SVG).

    ``counts`` is :meth:`repro.obs.sampler.StackSampler.collapsed` output
    (``"outer;...;leaf" -> samples``).  Root at the top, one row per
    frame depth, box width proportional to sample share; every box
    carries a native ``<title>`` tooltip with the frame, sample count and
    percentage.  Pure string building — no scripts, matching the rest of
    the dashboard.
    """
    total = sum(counts.values())
    if total <= 0:
        return "<p class='sub'>(no samples)</p>"

    # fold the stacks into a trie; child order is alphabetical so the
    # layout is deterministic for a given sample set
    root: dict = {"name": "all", "value": 0, "children": {}}
    for stack, n in sorted(counts.items()):
        node = root
        node["value"] += n
        for part in stack.split(";"):
            child = node["children"].setdefault(
                part, {"name": part, "value": 0, "children": {}})
            child["value"] += n
            node = child

    pps = width / total  # pixels per sample
    boxes: list[tuple[int, float, float, str, int]] = []

    def layout(node: dict, depth: int, x0: float) -> None:
        boxes.append((depth, x0, node["value"] * pps, node["name"],
                      node["value"]))
        if depth >= max_depth:
            return
        x = x0
        for name in sorted(node["children"]):
            child = node["children"][name]
            layout(child, depth + 1, x)
            x += child["value"] * pps

    layout(root, 0, 0.0)
    depth_max = max(d for d, *_ in boxes)
    height = (depth_max + 1) * row_h + 4
    parts = [f"<svg viewBox='0 0 {width} {height}' role='img' "
             f"aria-label='flamegraph of sampled stacks'>"]
    for depth, x0, w, name, value in boxes:
        if w < 0.4:  # invisible at any zoom the dashboard offers
            continue
        yy = depth * row_h
        tip = f"{name} — {value} samples ({value / total:.1%})"
        parts.append(
            f"<rect x='{x0:.1f}' y='{yy}' width='{max(w, 0.6):.1f}' "
            f"height='{row_h - 2}' rx='2' fill='{_slot(depth)}' "
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


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>"
        for row in rows)
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _roofline_rows(points: Sequence[RooflinePoint]) -> str:
    return _table(
        ("layer", "bits", "MACs/byte", "achieved MAC/s", "roof MAC/s",
         "% of roof", "bound"),
        [(p.layer, p.bits, f"{p.intensity:.2f}", _fmt_si(p.achieved_ops),
          _fmt_si(p.roof_ops), f"{p.pct_of_roof:.1%}", p.bound)
         for p in sorted(points, key=lambda p: -p.pct_of_roof)],
    )


# ---------------------------------------------------------------------------
# The dashboard
# ---------------------------------------------------------------------------


def _serve_sections(summary: dict) -> list[str]:
    """The serving card: SLO/goodput tiles, counts, breaker timeline."""
    cfg = summary.get("config", {})
    counts = summary.get("counts", {})
    shed = counts.get("shed", {})
    lat = summary.get("latency_us", {})
    brk = summary.get("breaker", {})
    sections = [
        "<h2>Serving &amp; overload robustness</h2>",
        "<div class='card'>",
        f"<p class='sub'>{_esc(str(cfg.get('model', '?')))} "
        f"int{cfg.get('bits', '?')} on {_esc(str(cfg.get('backend', '?')))} "
        f"(fallback {_esc(str(cfg.get('fallback', '?')))}) — "
        f"{cfg.get('qps', '?')} qps × {cfg.get('requests', '?')} requests, "
        f"shape {_esc(str(cfg.get('shape', '?')))}, "
        f"SLO {cfg.get('slo_ms', '?')} ms (virtual clock).</p>",
        "<div class='tiles'>",
        f"<div class='tile'><div class='v'>"
        f"{summary.get('slo_attainment', 0):.2%}</div>"
        f"<div class='k'>SLO attainment over admitted</div></div>",
        f"<div class='tile'><div class='v'>"
        f"{summary.get('goodput', 0):.2%}</div>"
        f"<div class='k'>goodput (SLO-met / offered)</div></div>",
        f"<div class='tile'><div class='v'>"
        f"{lat.get('p99', 0) / 1e3:.1f} ms</div>"
        f"<div class='k'>p99 latency (p999 "
        f"{lat.get('p999', 0) / 1e3:.1f} ms)</div></div>",
        f"<div class='tile'><div class='v'>{brk.get('opens', 0)}"
        f"/{brk.get('closes', 0)}</div>"
        f"<div class='k'>breaker opens/closes "
        f"({brk.get('probe_failures', 0)} failed probes)</div></div>",
        "</div>",
        _table(
            ("offered", "admitted", "shed (deadline)", "shed (queue full)",
             "completed", "queue expiries", "SLO met", "SLO missed",
             "batches", "brownout", "probes"),
            [(counts.get("offered", 0), counts.get("admitted", 0),
              shed.get("deadline", 0), shed.get("queue_full", 0),
              counts.get("completed", 0), counts.get("expired", 0),
              counts.get("slo_met", 0), counts.get("slo_missed", 0),
              counts.get("batches", 0), counts.get("brownout_batches", 0),
              counts.get("probe_batches", 0))]),
    ]
    transitions = brk.get("transitions") or []
    if transitions:
        sections += [
            "<details><summary>breaker timeline</summary>",
            _table(("t (s, virtual)", "state"),
                   [(f"{t:.3f}", _esc(str(state)))
                    for t, state in transitions]),
            "</details>",
        ]
    injected = summary.get("faults_injected") or {}
    if injected:
        sections.append(
            "<p class='sub'>chaos: "
            + ", ".join(f"{_esc(site)} ×{n}"
                        for site, n in sorted(injected.items()))
            + "</p>")
    sections.append("</div>")
    return sections


def render_report(
    *,
    model: str = "resnet50",
    backends: Sequence[str] = ("arm", "gpu"),
    batch: int = 1,
    sample: "dict[str, int] | None" = None,
    diff_sample: "tuple[dict[str, int], dict[str, int]] | None" = None,
    serve_summary: "dict | None" = None,
) -> str:
    """Build the dashboard HTML string (prices layers on each backend).

    ``sample`` — collapsed-stack counts from
    :meth:`repro.obs.sampler.StackSampler.collapsed` (or a parsed
    collapsed file) — adds a flamegraph panel of the sampled wall-clock
    profile.  ``diff_sample`` — an (A, B) pair of collapsed-stack count
    dicts (``--diff-collapsed A B``) — adds the red/blue differential
    flamegraph.  ``serve_summary`` — a parsed ``python -m repro serve
    --out`` summary dict — adds the serving/overload-robustness card.
    """
    with obs_trace.span("report.html", model=model):
        per_backend = {}
        for name in backends:
            points = model_roofline(model, name, batch=batch)
            bit_list = tuple(dict.fromkeys(p.bits for p in points))
            per_backend[name] = (points, bit_list)
        cal_ld = model_cal_ld(model, batch=batch)
        chains = chain_overhead_table()

    geomean = math.exp(
        sum(math.log(r["improvement"]) for r in cal_ld) / len(cal_ld))
    best = max((p for pts, _ in per_backend.values() for p in pts),
               key=lambda p: p.pct_of_roof)
    sections = [
        "<div class='card tiles'>",
        f"<div class='tile'><div class='v'>{geomean:.2f}&times;</div>"
        f"<div class='k'>CAL/LD improvement, re-designed vs traditional GEMM "
        f"(geomean over {len(cal_ld)} layers; Fig. 1 claims &asymp;4&times;)"
        f"</div></div>",
        f"<div class='tile'><div class='v'>{best.pct_of_roof:.0%}</div>"
        f"<div class='k'>best %-of-roof: {_esc(best.layer)} "
        f"{best.bits}-bit on {_esc(best.backend)}</div></div>",
        "</div>",
    ]

    for name, (points, bit_list) in per_backend.items():
        sections += [
            f"<h2>Roofline — {_esc(name)} backend ({_esc(model)}, "
            f"batch {batch})</h2>",
            "<div class='card'>",
            _roofline_svg(points, bit_list),
            "<details><summary>data table</summary>",
            _roofline_rows(points), "</details></div>",
        ]

    sections += [
        "<h2>Accumulation-chain overhead (Sec. 3.3)</h2>",
        "<div class='card'>",
        "<p class='sub'>SADDW widening share of kernel issue occupancy — "
        "the price of overflow safety per bit width.</p>",
        _chain_svg(chains),
        "<details><summary>data table</summary>",
        _table(("bits", "scheme", "chain : drain", "widen cycles",
                "busy cycles", "overhead"),
               [(r["bits"], r["scheme"], f"{r['chain']} : 1",
                 r["widen_cycles"], r["busy_cycles"], f"{r['fraction']:.2%}")
                for r in chains]),
        "</details></div>",
        "<h2>CAL/LD ratio per layer (Fig. 1)</h2>",
        "<div class='card'>",
        _table(("layer", "GEMM (M×K×N)", "traditional", "re-designed",
                "improvement"),
               [(r["layer"], f"{r['m']}×{r['k']}×{r['n']}",
                 f"{r['traditional']:.3f}", f"{r['redesigned']:.3f}",
                 f"{r['improvement']:.2f}×") for r in cal_ld]),
        "</div>",
    ]

    if sample:
        total = sum(sample.values())
        top = sorted(sample.items(), key=lambda kv: (-kv[1], kv[0]))[:12]
        sections += [
            "<h2>Sampled wall-clock profile</h2>",
            "<div class='card'>",
            f"<p class='sub'>{total} samples over {len(sample)} distinct "
            f"stacks (deterministic-interval sampler; see DESIGN.md "
            f"§5.12 for caveats).</p>",
            flamegraph_svg(sample),
            "<details><summary>hottest stacks</summary>",
            _table(("samples", "share", "stack (leaf last)"),
                   [(n, f"{n / total:.1%}",
                     stack if len(stack) <= 120 else "…" + stack[-119:])
                    for stack, n in top]),
            "</details></div>",
        ]

    if serve_summary:
        sections += _serve_sections(serve_summary)

    if diff_sample is not None:
        from . import diff as obs_diff

        sections += [
            "<h2>Differential flamegraph</h2>",
            "<div class='card'>",
            "<p class='sub'>red: grew in run B, blue: shrank — sample "
            "shares (A normalized to B's total; see DESIGN.md §5.13).</p>",
            obs_diff.differential_flamegraph_svg(*diff_sample),
            "</div>",
        ]

    body = "\n".join(sections)
    return (
        "<!doctype html><html lang='en'><head><meta charset='utf-8'>"
        f"<title>repro report — {_esc(model)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<h1>Roofline report</h1>"
        f"<p class='sub'>{_esc(model)}, batch {batch} — backends: "
        f"{_esc(', '.join(backends))}. Cost-model metrics; see DESIGN.md "
        f"§5.9 for the formulas.</p>"
        f"{body}</body></html>"
    )


def write_report(path: str | os.PathLike, **kwargs) -> pathlib.Path:
    """Render and write the dashboard; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_report(**kwargs), encoding="utf-8")
    return path
