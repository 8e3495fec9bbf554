"""Process-wide metrics registry: labeled counters, gauges, histograms.

The registry is deliberately tiny — no exposition server, no time series,
just monotonically updated values snapshotted into plain JSON by the
``profile`` and ``metrics-export`` surfaces::

    from repro.obs import metrics

    metrics.counter("cache_lookups", namespace="gpu-autotune",
                    outcome="hit").inc()
    metrics.gauge("gpu_layer_cycles", layer="conv3", bits=4).set(1.2e5)
    metrics.histogram("autotune_bound_gap_cycles").observe(gap)

Labels are canonicalized into the metric key (sorted ``k=v`` pairs), so
call-site keyword order never splits a series.  All operations are
thread-safe; individual updates take one lock each, cheap enough for the
coarse (per-sweep / per-layer) events the library records unconditionally.
Per-item detail in genuinely hot loops is gated on
:func:`repro.obs.trace.active` at the call site instead.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Any

from .trace import current_context

#: bump when the snapshot layout changes
SCHEMA_VERSION = 1

#: label *names* must be bare identifiers — they come from ``**labels``
#: keywords, so anything else indicates a programming error, not data
_LABEL_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

#: characters with structural meaning inside a series key; each is
#: backslash-escaped in label values so two distinct label sets can
#: never collide into one key (e.g. ``a="x,b=y"`` vs ``a="x", b="y"``)
_KEY_SPECIALS = ("\\", ",", "{", "}", "=")


def escape_label_value(value: Any) -> str:
    """Backslash-escape the structural key characters in ``value``.

    Values without ``\\ , { } =`` come back unchanged, so established
    series keys (plain bit widths, layer names, outcomes) keep their
    exact historical spelling.
    """
    text = str(value)
    for ch in _KEY_SPECIALS:
        text = text.replace(ch, "\\" + ch)
    return text


def unescape_label_value(value: str) -> str:
    """Exact inverse of :func:`escape_label_value`."""
    out: list[str] = []
    it = iter(value)
    for ch in it:
        if ch == "\\":
            out.append(next(it, "\\"))
        else:
            out.append(ch)
    return "".join(out)


def metric_key(name: str, labels: dict[str, Any]) -> str:
    """Canonical ``name{k=v,...}`` series key (labels sorted by name).

    Label values are escaped via :func:`escape_label_value`; label names
    must be identifiers (they arrive as ``**labels`` keywords) and metric
    names must not themselves contain key syntax.
    """
    if "{" in name or "}" in name:
        raise ValueError(f"metric name may not contain braces: {name!r}")
    if not labels:
        return name
    for k in labels:
        if not _LABEL_NAME_RE.match(k):
            raise ValueError(f"label name must be an identifier: {k!r}")
    inner = ",".join(
        f"{k}={escape_label_value(labels[k])}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _split_unescaped(text: str, sep: str) -> list[str]:
    """Split on ``sep`` occurrences not preceded by a backslash escape."""
    parts: list[str] = []
    buf: list[str] = []
    escaped = False
    for ch in text:
        if escaped:
            buf.append(ch)
            escaped = False
        elif ch == "\\":
            buf.append(ch)
            escaped = True
        elif ch == sep:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def parse_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`metric_key`: ``"n{a=1,b=2}"`` → ``("n", {...})``.

    The exposition and display layers use this instead of naive string
    splitting, so escaped label values survive the round trip.
    """
    if not key.endswith("}"):
        if "{" in key:
            raise ValueError(f"malformed series key: {key!r}")
        return key, {}
    brace = key.index("{")
    name, body = key[:brace], key[brace + 1:-1]
    labels: dict[str, str] = {}
    for pair in _split_unescaped(body, ","):
        k, eq, v = pair.partition("=")
        if not eq or not _LABEL_NAME_RE.match(k):
            raise ValueError(f"malformed label pair {pair!r} in {key!r}")
        labels[k] = unescape_label_value(v)
    return name, labels


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int | float:
        return self._value


class Gauge:
    """Last-written value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value


#: retained-sample ceiling per histogram; beyond it the sample set is
#: decimated 2x (keep every other) and only every ``stride``-th observation
#: is retained — a deterministic uniform subsample, never reservoir noise
SAMPLE_CAP = 4096

#: fixed log-decade bucket upper bounds for the exposition format — wide
#: enough for microseconds-to-hours latencies *and* cycle counts in the
#: trillions; the implicit final bucket is +Inf
BUCKET_BOUNDS: tuple[float, ...] = tuple(10.0 ** e for e in range(-9, 13))


class Histogram:
    """Streaming summary (count/sum/min/max) of observed values.

    Besides the running aggregates, a bounded, deterministically decimated
    sample set is retained so :meth:`percentile` can answer quantile
    queries — exact until :data:`SAMPLE_CAP` observations, a uniform
    1-in-``stride`` subsample beyond.  The regression checker leans on
    this for its noise-aware wall-clock medians.

    For the OpenMetrics exposition (:mod:`repro.obs.export`) every
    observation is also counted into fixed log-decade buckets
    (:data:`BUCKET_BOUNDS` plus +Inf), and — while a span context is
    active — the latest observation per bucket is kept as an *exemplar*
    ``(value, trace_id, span_id)``, so a slow bucket links straight to
    the span that produced it.
    """

    __slots__ = ("_lock", "count", "sum", "min", "max", "_samples", "_stride",
                 "_bucket_counts", "_exemplars")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._samples: list[float] = []
        self._stride = 1
        self._bucket_counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self._exemplars: dict[int, tuple[float, str, str]] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        bucket = bisect.bisect_left(BUCKET_BOUNDS, value)
        ctx = current_context()
        exemplar = None if ctx is None else (value, ctx.trace_id, ctx.span_id)
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self._bucket_counts[bucket] += 1
            if exemplar is not None:
                self._exemplars[bucket] = exemplar
            if (self.count - 1) % self._stride == 0:
                self._samples.append(value)
                if len(self._samples) >= SAMPLE_CAP:
                    self._samples = self._samples[::2]
                    self._stride *= 2

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts; bucket ``i`` holds
        observations in ``(BUCKET_BOUNDS[i-1], BUCKET_BOUNDS[i]]``, the
        last entry everything above the top bound (+Inf)."""
        with self._lock:
            return list(self._bucket_counts)

    def exemplars(self) -> dict[int, tuple[float, str, str]]:
        """Latest ``(value, trace_id, span_id)`` per bucket index."""
        with self._lock:
            return dict(self._exemplars)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of the observed values.

        Linear interpolation between order statistics of the retained
        sample set; raises :class:`ValueError` on an empty histogram.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            raise ValueError("percentile of an empty histogram")
        if len(samples) == 1:
            return samples[0]
        pos = (q / 100.0) * (len(samples) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(samples) - 1)
        frac = pos - lo
        return samples[lo] * (1.0 - frac) + samples[hi] * frac

    @classmethod
    def merge(cls, histograms: "list[Histogram] | tuple[Histogram, ...]") -> "Histogram":
        """Combine histograms into a fresh one (sum of the windows).

        Aggregates add exactly; the merged sample set concatenates the
        inputs' retained samples and re-decimates past :data:`SAMPLE_CAP`.
        """
        out = cls()
        merged: list[float] = []
        for h in histograms:
            with h._lock:
                out.count += h.count
                out.sum += h.sum
                if h.min is not None:
                    out.min = h.min if out.min is None else min(out.min, h.min)
                if h.max is not None:
                    out.max = h.max if out.max is None else max(out.max, h.max)
                merged.extend(h._samples)
                out._stride = max(out._stride, h._stride)
                for i, n in enumerate(h._bucket_counts):
                    out._bucket_counts[i] += n
                out._exemplars.update(h._exemplars)
        while len(merged) >= SAMPLE_CAP:
            merged = merged[::2]
            out._stride *= 2
        out._samples = merged
        return out

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """One namespace of metrics, keyed by canonical series name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _get(self, table: dict, cls: type, name: str, labels: dict):
        key = metric_key(name, labels)
        metric = table.get(key)
        if metric is None:
            with self._lock:
                metric = table.setdefault(key, cls())
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(self._histograms, Histogram, name, labels)

    def series(self) -> tuple[dict[str, Counter], dict[str, Gauge], dict[str, Histogram]]:
        """Point-in-time shallow copies of the live series tables.

        The exposition layer (:mod:`repro.obs.export`) needs the metric
        *objects* — bucket counts and exemplars are not part of the JSON
        snapshot — so this hands out the tables without exposing the
        registry's internals for mutation.
        """
        with self._lock:
            return dict(self._counters), dict(self._gauges), dict(self._histograms)

    def snapshot(self) -> dict:
        """Point-in-time plain-JSON view of every series."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "schema": SCHEMA_VERSION,
            "counters": {k: c.value for k, c in sorted(counters.items())},
            "gauges": {k: g.value for k, g in sorted(gauges.items())},
            "histograms": {k: h.as_dict() for k, h in sorted(histograms.items())},
        }

    def reset(self) -> None:
        """Drop every series (a fresh measurement window)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# ---------------------------------------------------------------------------
# The process default registry (what the library instrumentation uses)
# ---------------------------------------------------------------------------

_DEFAULT = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _DEFAULT


def counter(name: str, **labels: Any) -> Counter:
    return _DEFAULT.counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge:
    return _DEFAULT.gauge(name, **labels)


def histogram(name: str, **labels: Any) -> Histogram:
    return _DEFAULT.histogram(name, **labels)


def snapshot() -> dict:
    return _DEFAULT.snapshot()


def reset() -> None:
    _DEFAULT.reset()
