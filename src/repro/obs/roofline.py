"""Per-layer roofline analytics derived from the backend cost models.

Turns the recorder into an analyzer (Williams et al., "Roofline: An
Insightful Visual Performance Model", CACM 2009): every layer a backend
can price also gets

* **arithmetic intensity** — cost-model MACs per byte of main-memory
  traffic, from the backend's :meth:`~repro.backends.base.Backend
  .conv_traffic` hook (im2col/packing streams on ARM, tile re-reads on
  GPU);
* **%-of-peak throughput** — achieved MACs/s (``spec.macs`` over the
  priced seconds) against the layer's roof ``min(peak_compute,
  bandwidth * intensity)`` from :meth:`~repro.backends.base.Backend
  .peak_ops_per_sec` / :meth:`~repro.backends.base.Backend
  .peak_bandwidth_bytes_per_sec`;
* **CAL/LD ratio** — the Fig. 1 instruction-mix claim as a live metric:
  traditional vs re-designed GEMM arithmetic-per-load from
  :mod:`repro.gemm.analysis` (the improvement is ~theta2 = 4x with LD4R);
* **accumulation-chain overhead** — the Sec. 3.3 cost of overflow
  safety: SADDW widening occupancy over total kernel occupancy, per bit
  width, measured on the actually generated instruction streams.

Every quantity is registered as an ``obs.metrics`` gauge so profile runs
and metrics exports carry it; the text/ASCII rendering lives here too, the
self-contained HTML dashboard in :mod:`repro.obs.htmlreport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..types import ConvSpec, GemmShape
from . import metrics as obs_metrics
from . import trace as obs_trace

#: bit widths the roofline sweeps per backend (the figure ranges)
DEFAULT_BITS = {"arm": (2, 4, 8), "gpu": (4, 8), "ref": (8,)}

#: reduction depth the chain-overhead streams are generated at; deep
#: enough that prologue/epilogue noise is <1% of the stream
_CHAIN_K = 256


# ---------------------------------------------------------------------------
# Roofline points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RooflinePoint:
    """One (layer, bits) point in a backend's roofline plane."""

    backend: str
    layer: str
    bits: int
    macs: int
    bytes_moved: float
    achieved_ops: float  #: MACs/s the cost model says the layer sustains
    peak_compute_ops: float  #: MACs/s compute roof at this bit width
    peak_bandwidth: float  #: bytes/s memory roof

    @property
    def intensity(self) -> float:
        """Arithmetic intensity, MACs per main-memory byte."""
        return self.macs / self.bytes_moved if self.bytes_moved else math.inf

    @property
    def roof_ops(self) -> float:
        """The attainable MACs/s at this intensity (the roofline)."""
        return min(self.peak_compute_ops, self.peak_bandwidth * self.intensity)

    @property
    def pct_of_roof(self) -> float:
        return self.achieved_ops / self.roof_ops if self.roof_ops else 0.0

    @property
    def pct_of_peak(self) -> float:
        """Fraction of the flat compute roof (ignores the memory slope)."""
        return (self.achieved_ops / self.peak_compute_ops
                if self.peak_compute_ops else 0.0)

    @property
    def bound(self) -> str:
        """Which roof caps this layer at its intensity."""
        return ("compute"
                if self.peak_bandwidth * self.intensity >= self.peak_compute_ops
                else "memory")

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "layer": self.layer,
            "bits": self.bits,
            "macs": self.macs,
            "bytes": round(self.bytes_moved, 1),
            "intensity": round(self.intensity, 4),
            "achieved_ops": self.achieved_ops,
            "peak_compute_ops": self.peak_compute_ops,
            "peak_bandwidth": self.peak_bandwidth,
            "roof_ops": self.roof_ops,
            "pct_of_roof": round(self.pct_of_roof, 4),
            "bound": self.bound,
        }


def layer_roofline(backend, spec: ConvSpec, bits: int) -> RooflinePoint:
    """Roofline point for one layer on one backend, gauges included."""
    price = backend.price_conv(spec, bits)
    traffic = backend.conv_traffic(spec, bits)
    point = RooflinePoint(
        backend=backend.name,
        layer=spec.name,
        bits=bits,
        macs=spec.macs,
        bytes_moved=float(traffic["total"]),
        achieved_ops=spec.macs / price.seconds if price.seconds else 0.0,
        peak_compute_ops=backend.peak_ops_per_sec(bits),
        peak_bandwidth=backend.peak_bandwidth_bytes_per_sec(),
    )
    obs_metrics.gauge(
        "roofline_intensity", backend=backend.name, layer=spec.name, bits=bits
    ).set(point.intensity)
    obs_metrics.gauge(
        "roofline_pct_of_roof", backend=backend.name, layer=spec.name, bits=bits
    ).set(point.pct_of_roof)
    return point


def model_roofline(
    model: str,
    backend_name: str,
    *,
    bits: Sequence[int] | None = None,
    batch: int = 1,
) -> list[RooflinePoint]:
    """Roofline points for every unique conv layer of ``model``."""
    from ..backends import get_backend
    from ..models import get_model_layers

    backend = get_backend(backend_name)
    bit_list = tuple(bits) if bits else DEFAULT_BITS.get(backend.name, (8,))
    layers = get_model_layers(model, batch=batch)
    backend.prewarm([(s, b, None) for b in bit_list for s in layers])
    with obs_trace.span(
        "roofline.model", backend=backend.name, model=model, batch=batch
    ):
        return [
            layer_roofline(backend, spec, b)
            for b in bit_list
            for spec in layers
        ]


# ---------------------------------------------------------------------------
# CAL/LD ratio (Fig. 1, live)
# ---------------------------------------------------------------------------


def cal_ld_point(shape: GemmShape, *, layer: str = "") -> dict:
    """Traditional vs re-designed CAL/LD for one GEMM problem."""
    from ..gemm.analysis import redesigned_counts, traditional_counts

    trad = traditional_counts(shape)
    redo = redesigned_counts(shape)
    improvement = redo.cal_per_ld / trad.cal_per_ld
    if layer:
        obs_metrics.gauge(
            "gemm_cal_ld", formulation="traditional", layer=layer
        ).set(trad.cal_per_ld)
        obs_metrics.gauge(
            "gemm_cal_ld", formulation="redesigned", layer=layer
        ).set(redo.cal_per_ld)
        obs_metrics.gauge("gemm_cal_ld_improvement", layer=layer).set(improvement)
    return {
        "layer": layer,
        "m": shape.m, "k": shape.k, "n": shape.n,
        "traditional": trad.cal_per_ld,
        "redesigned": redo.cal_per_ld,
        "improvement": improvement,
    }


def model_cal_ld(model: str, *, batch: int = 1) -> list[dict]:
    """The Fig. 1 claim over a model's layers: improvement ~4x per layer."""
    from ..models import get_model_layers

    return [
        cal_ld_point(GemmShape.from_conv(spec), layer=spec.name)
        for spec in get_model_layers(model, batch=batch)
    ]


# ---------------------------------------------------------------------------
# Accumulation-chain overhead (Sec. 3.3, live)
# ---------------------------------------------------------------------------


def chain_overhead(bits: int) -> dict:
    """SADDW widening share of the generated kernel's issue occupancy.

    Generates the scheme's real instruction stream at ``K=_CHAIN_K`` and
    weighs each opcode by its pipe occupancy from the A53 cost table (the
    scalar bookkeeping ops count one issue slot each).  The fraction is
    the price of overflow safety: short chains (8-bit: 2:1) drain often
    and pay heavily, long chains (4-bit: 511:1) almost never do.
    """
    from ..arm.cost_model import _generate, scheme_for_bits
    from ..arm.pipeline import A53_COST_TABLE
    from ..arm.ratios import chain_length, round_interval

    scheme = scheme_for_bits(bits)
    kern = _generate(scheme, bits, _CHAIN_K, True, None)
    widen_cycles = total_cycles = 0
    for op, count in kern.summary().items():
        cost = A53_COST_TABLE.cost(op)
        busy = count * max(1, cost.neon_cycles + cost.mem_cycles)
        total_cycles += busy
        if op.startswith("SADDW"):
            widen_cycles += busy
    fraction = widen_cycles / total_cycles if total_cycles else 0.0
    obs_metrics.gauge(
        "chain_overhead_fraction", bits=bits, scheme=scheme
    ).set(fraction)
    return {
        "bits": bits,
        "scheme": scheme,
        "chain": chain_length(bits),
        "round_interval": round_interval(bits),
        "widen_cycles": widen_cycles,
        "busy_cycles": total_cycles,
        "fraction": fraction,
    }


def chain_overhead_table(bit_widths: Sequence[int] = (2, 3, 4, 5, 6, 7, 8)) -> list[dict]:
    with obs_trace.span("roofline.chain_overhead"):
        return [chain_overhead(b) for b in bit_widths]


# ---------------------------------------------------------------------------
# Text rendering (the `repro profile` / `repro report` surface)
# ---------------------------------------------------------------------------


def _fmt_ops(ops: float) -> str:
    for unit, scale in (("T", 1e12), ("G", 1e9), ("M", 1e6), ("K", 1e3)):
        if ops >= scale:
            return f"{ops / scale:.2f} {unit}MAC/s"
    return f"{ops:.1f} MAC/s"


def roofline_table(points: Sequence[RooflinePoint], limit: int = 0) -> list[str]:
    """Fixed-width per-layer table, lowest %-of-roof (most headroom) last."""
    if not points:
        return ["  (no roofline points)"]
    rows = sorted(points, key=lambda p: -p.pct_of_roof)
    if limit:
        rows = rows[:limit]
    lines = [
        f"  {'layer':<22} {'bits':>4} {'ops/byte':>9} {'achieved':>14} "
        f"{'roof':>14} {'%roof':>6}  bound"
    ]
    for p in rows:
        lines.append(
            f"  {p.layer:<22} {p.bits:>4} {p.intensity:>9.2f} "
            f"{_fmt_ops(p.achieved_ops):>14} {_fmt_ops(p.roof_ops):>14} "
            f"{p.pct_of_roof:>6.1%}  {p.bound}"
        )
    if limit and len(points) > limit:
        lines.append(f"  ... {len(points) - limit} more points")
    return lines


def ascii_roofline(
    points: Sequence[RooflinePoint], *, width: int = 68, height: int = 16
) -> list[str]:
    """Log-log scatter of the roofline plane with the roof drawn in.

    X is arithmetic intensity (MACs/byte), Y is MACs/s; the roof uses the
    first point's peaks (one plot per backend).  Points are plotted as the
    last digit of their bit width.
    """
    pts = [p for p in points if p.intensity > 0 and p.achieved_ops > 0]
    if not pts:
        return ["  (no roofline points)"]
    peak = max(p.peak_compute_ops for p in pts)
    bw = max(p.peak_bandwidth for p in pts)
    x_lo = min(min(p.intensity for p in pts), peak / bw) / 2
    x_hi = max(max(p.intensity for p in pts), peak / bw) * 2
    y_hi = peak * 2
    y_lo = min(p.achieved_ops for p in pts) / 2
    lx_lo, lx_hi = math.log10(x_lo), math.log10(x_hi)
    ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)

    def col(x: float) -> int:
        return round((math.log10(x) - lx_lo) / (lx_hi - lx_lo) * (width - 1))

    def row(y: float) -> int:
        frac = (math.log10(y) - ly_lo) / (ly_hi - ly_lo)
        return (height - 1) - round(frac * (height - 1))

    grid = [[" "] * width for _ in range(height)]
    # the roof: y = min(peak, bw * x) across every column
    for c in range(width):
        x = 10 ** (lx_lo + (lx_hi - lx_lo) * c / (width - 1))
        y = min(peak, bw * x)
        r = row(y)
        if 0 <= r < height:
            grid[r][c] = "-" if y >= peak else "/"
    for p in pts:
        r, c = row(p.achieved_ops), col(p.intensity)
        if 0 <= r < height and 0 <= c < width:
            grid[r][c] = str(p.bits % 10)
    lines = [f"  MACs/s (peak {_fmt_ops(peak)})"]
    lines += ["  |" + "".join(r) for r in grid]
    lines.append("  +" + "-" * width)
    lines.append(f"   MACs/byte, log-log [{x_lo:.3g} .. {x_hi:.3g}]  "
                 f"(digits = bit width)")
    return lines


def cal_ld_lines(table: Sequence[dict], limit: int = 6) -> list[str]:
    lines = [f"  {'layer':<22} {'trad CAL/LD':>12} {'redesigned':>12} "
             f"{'improvement':>12}"]
    for row in table[:limit]:
        label = row["layer"] or "x".join(
            str(row.get(d)) for d in ("m", "k", "n"))
        lines.append(
            f"  {label:<22} "
            f"{row['traditional']:>12.3f} {row['redesigned']:>12.3f} "
            f"{row['improvement']:>11.2f}x"
        )
    if len(table) > limit:
        lines.append(f"  ... {len(table) - limit} more layers")
    return lines


def chain_overhead_lines(table: Sequence[dict]) -> list[str]:
    lines = [f"  {'bits':>4} {'scheme':>7} {'chain':>6} {'widen/busy':>14} "
             f"{'overhead':>9}"]
    for row in table:
        lines.append(
            f"  {row['bits']:>4} {row['scheme']:>7} {row['chain']:>6} "
            f"{row['widen_cycles']:>6}/{row['busy_cycles']:<7} "
            f"{row['fraction']:>9.2%}"
        )
    return lines
