"""Open-loop workload generation and trace persistence.

The load generator is *open-loop* (arrivals do not wait for responses):
that is the regime where overload actually happens and where admission
control earns its keep — a closed-loop generator self-throttles and can
never drive the queue past its own concurrency.  Arrivals are a Poisson
process (``Random(seed).expovariate``) whose instantaneous rate is
modulated by a named *shape* over the nominal horizon ``requests/qps``:

``steady``
    Constant rate ``qps``.
``burst``
    Constant rate with a mid-run spike: between 45% and 60% of the
    horizon the rate is multiplied by ``burst_factor`` (default 3x) —
    the overload window the shed/SLO gates in CI watch.
``ramp``
    Linear ramp from 0.2x to 1.8x of ``qps`` — same mean rate, reveals
    where along the ramp admission starts shedding.

Every request carries the same relative SLO; its absolute deadline is
``arrival + slo``.  Traces are plain JSONL so a run can be replayed from
file (``--trace-file``) bit-identically, or a generated trace saved for
later comparison.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from dataclasses import dataclass
from typing import Iterable, List

from ..errors import ReproError

SHAPES = ("steady", "burst", "ramp")

#: burst shape: rate multiplier inside [BURST_START, BURST_END) x horizon
BURST_FACTOR = 3.0
BURST_START = 0.45
BURST_END = 0.60
RAMP_LO = 0.2
RAMP_HI = 1.8


@dataclass(frozen=True)
class Request:
    """One inference request on the virtual timeline."""

    rid: int
    arrival_us: float
    slo_us: float

    @property
    def deadline_us(self) -> float:
        return self.arrival_us + self.slo_us


def _rate_factor(shape: str, frac: float) -> float:
    """Instantaneous rate multiplier at fraction ``frac`` of the horizon."""
    if shape == "steady":
        return 1.0
    if shape == "burst":
        return BURST_FACTOR if BURST_START <= frac < BURST_END else 1.0
    if shape == "ramp":
        return RAMP_LO + (RAMP_HI - RAMP_LO) * min(1.0, max(0.0, frac))
    raise ReproError(f"unknown workload shape {shape!r} (choose from {SHAPES})")


def generate_trace(
    qps: float,
    requests: int,
    *,
    seed: int = 0,
    slo_us: float = 50_000.0,
    shape: str = "steady",
) -> List[Request]:
    """A seeded open-loop arrival trace of exactly ``requests`` requests.

    Thinning-free construction: each inter-arrival gap is drawn at the
    *local* rate ``qps * factor(t/horizon)``, so the shape modulates
    density directly and the draw sequence — hence the whole trace — is a
    pure function of ``(qps, requests, seed, slo_us, shape)``.
    """
    if not (math.isfinite(qps) and qps > 0):
        raise ReproError(f"qps must be finite and > 0, got {qps}")
    if not math.isfinite(slo_us):
        raise ReproError(f"slo_us must be finite, got {slo_us}")
    if requests < 0:
        raise ReproError(f"requests must be >= 0, got {requests}")
    _rate_factor(shape, 0.0)  # validate the shape name up front
    rng = random.Random(seed)
    horizon_us = requests / qps * 1e6
    out: List[Request] = []
    t_us = 0.0
    for rid in range(requests):
        frac = t_us / horizon_us if horizon_us > 0 else 0.0
        rate_per_us = qps * _rate_factor(shape, frac) / 1e6
        t_us += rng.expovariate(rate_per_us)
        out.append(Request(rid=rid, arrival_us=t_us, slo_us=slo_us))
    return out


def save_trace(path: "str | pathlib.Path", trace: Iterable[Request]) -> pathlib.Path:
    """Write a trace as JSONL (one request per line, sorted keys)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for req in trace:
            fh.write(json.dumps(
                {"rid": req.rid, "arrival_us": req.arrival_us,
                 "slo_us": req.slo_us},
                sort_keys=True) + "\n")
    return path


def load_trace(path: "str | pathlib.Path") -> List[Request]:
    """Read a JSONL trace back; validates field presence, finite times
    and ordering."""
    path = pathlib.Path(path)
    out: List[Request] = []
    last_arrival = float("-inf")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                    req = Request(
                        rid=int(row["rid"]),
                        arrival_us=float(row["arrival_us"]),
                        slo_us=float(row["slo_us"]),
                    )
                except (ValueError, KeyError, TypeError) as exc:
                    raise ReproError(
                        f"{path}:{lineno}: bad trace record: {exc}") from exc
                if not (math.isfinite(req.arrival_us)
                        and math.isfinite(req.slo_us)):
                    raise ReproError(
                        f"{path}:{lineno}: arrival_us and slo_us must be "
                        f"finite, got {req.arrival_us} and {req.slo_us}")
                if req.arrival_us < last_arrival:
                    raise ReproError(
                        f"{path}:{lineno}: arrivals not sorted "
                        f"({req.arrival_us} after {last_arrival})")
                last_arrival = req.arrival_us
                out.append(req)
    except OSError as exc:
        raise ReproError(f"cannot read trace {path}: {exc}") from exc
    return out
