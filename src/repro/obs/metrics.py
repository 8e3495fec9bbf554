"""Process-wide metrics registry: labeled counters, gauges, histograms.

The registry is deliberately tiny — no exposition format, no time
series, just monotonically updated values snapshotted into plain JSON by
``profile --metrics``, the one view of it (``repro diff`` reads that
file)::

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

import re
import threading
from typing import Any

#: bump when the snapshot layout changes
SCHEMA_VERSION = 1

#: label *names* must be bare identifiers — they come from ``**labels``
#: keywords, so anything else indicates a programming error, not data
_LABEL_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

#: label value types whose equal values print alike, so a memoized key is
#: the one :func:`metric_key` builds (not float: ``-0.0 == 0.0``)
_MEMO_TYPES = (str, int, bool)

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


class Histogram:
    """Streaming summary (count/sum/min/max/mean) of observed values."""

    __slots__ = ("_lock", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

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
        #: (name, (label, type, value)...) -> series key; the type keeps
        #: ``1``, ``1.0`` and ``True`` apart, as their keys are
        self._keys: dict[tuple, str] = {}

    def _get(self, table: dict, cls: type, name: str, labels: dict):
        memo = (name, *((k, type(v), v) for k, v in labels.items()))
        try:
            key = self._keys[memo]
        except (KeyError, TypeError):  # new, or an unhashable label value
            key = metric_key(name, labels)
            if all(type(v) in _MEMO_TYPES for v in labels.values()):
                self._keys[memo] = key
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
