"""OpenMetrics text exposition of the metrics registry.

``python -m repro metrics-export`` renders the process registry in the
OpenMetrics text format (the Prometheus exposition superset): counters
as ``name_total``, gauges verbatim, histograms as cumulative
``_bucket{le=...}`` series with ``_sum``/``_count`` — and, where a span
context was active, an *exemplar* per bucket linking the latest
observation to its ``trace_id``/``span_id`` span.

The module also ships :func:`parse_exposition` / :func:`validate`, a
deliberately strict parser for the subset this renderer emits.  CI runs
every export through it: family blocks must be typed before sampled,
counter samples must carry the ``_total`` suffix, histogram buckets must
be cumulative and non-decreasing with a ``+Inf`` bucket equal to
``_count``, and the document must end in ``# EOF``.  A renderer bug
becomes a red build, not a silently garbled scrape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

from . import metrics as obs_metrics


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _format_value(value: float | int) -> str:
    if isinstance(value, bool):  # bool is an int; nobody wants "True"
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _escape_label(value: str) -> str:
    """Label-value escaping per the exposition spec."""
    return (value.replace("\\", "\\\\")
                 .replace("\"", "\\\"")
                 .replace("\n", "\\n"))


def _labels_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _exemplar_text(exemplar: tuple[float, str, str] | None) -> str:
    if exemplar is None:
        return ""
    value, trace_id, span_id = exemplar
    return (f' # {{trace_id="{_escape_label(trace_id)}"'
            f',span_id="{_escape_label(span_id)}"}} {_format_value(value)}')


def _group_by_family(table: dict[str, Any]) -> dict[str, list[tuple[dict, Any]]]:
    """Group series keys by metric family name, decoding key labels."""
    families: dict[str, list[tuple[dict, Any]]] = {}
    for key in sorted(table):
        name, labels = obs_metrics.parse_metric_key(key)
        families.setdefault(name, []).append((labels, table[key]))
    return families


def render(registry: "obs_metrics.MetricsRegistry | None" = None) -> str:
    """The whole registry in OpenMetrics text format (ends in ``# EOF``)."""
    reg = registry if registry is not None else obs_metrics.registry()
    counters, gauges, histograms = reg.series()
    lines: list[str] = []

    for name, series in _group_by_family(counters).items():
        lines.append(f"# TYPE {name} counter")
        lines.append(f"# HELP {name} repro counter {name}")
        for labels, c in series:
            lines.append(
                f"{name}_total{_labels_text(labels)} {_format_value(c.value)}")

    for name, series in _group_by_family(gauges).items():
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"# HELP {name} repro gauge {name}")
        for labels, g in series:
            lines.append(
                f"{name}{_labels_text(labels)} {_format_value(g.value)}")

    for name, series in _group_by_family(histograms).items():
        lines.append(f"# TYPE {name} histogram")
        lines.append(f"# HELP {name} repro histogram {name}")
        for labels, h in series:
            counts = h.bucket_counts()
            exemplars = h.exemplars()
            cumulative = 0
            for i, bucket_count in enumerate(counts):
                cumulative += bucket_count
                le = ("+Inf" if i == len(obs_metrics.BUCKET_BOUNDS)
                      else _format_value(obs_metrics.BUCKET_BOUNDS[i]))
                bucket_labels = dict(labels)
                bucket_labels["le"] = le
                lines.append(
                    f"{name}_bucket{_labels_text(bucket_labels)} {cumulative}"
                    f"{_exemplar_text(exemplars.get(i))}")
            lines.append(
                f"{name}_sum{_labels_text(labels)} {_format_value(h.sum)}")
            lines.append(
                f"{name}_count{_labels_text(labels)} {h.count}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Strict parsing / validation (the CI gate)
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """One parsed sample line."""

    name: str
    labels: dict[str, str]
    value: float
    exemplar: "dict[str, Any] | None" = None


@dataclass
class Family:
    """One parsed metric family (``# TYPE`` block)."""

    name: str
    type: str
    samples: list[Sample] = field(default_factory=list)


def _parse_labels(body: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i, n = 0, len(body)
    while i < n:
        eq = body.index("=", i)
        key = body[i:eq]
        if not key or body[eq + 1] != '"':
            raise ValueError(f"malformed label block {body!r}")
        j = eq + 2
        out: list[str] = []
        while True:
            if j >= n:
                raise ValueError(f"unterminated label value in {body!r}")
            ch = body[j]
            if ch == "\\":
                nxt = body[j + 1] if j + 1 < n else ""
                decoded = {"\\": "\\", '"': '"', "n": "\n"}.get(nxt)
                if decoded is None:
                    raise ValueError(f"bad escape \\{nxt} in {body!r}")
                out.append(decoded)
                j += 2
            elif ch == '"':
                j += 1
                break
            else:
                out.append(ch)
                j += 1
        labels[key] = "".join(out)
        if j < n:
            if body[j] != ",":
                raise ValueError(f"expected ',' in label block {body!r}")
            j += 1
        i = j
    return labels


def _parse_number(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def _split_name_labels(sample: str) -> tuple[str, dict[str, str], str]:
    """``name{labels} value`` → (name, labels, value-text)."""
    if "{" in sample:
        brace = sample.index("{")
        close = sample.rindex("}")
        name = sample[:brace]
        labels = _parse_labels(sample[brace + 1:close])
        rest = sample[close + 1:].strip()
    else:
        name, _, rest = sample.partition(" ")
        labels = {}
        rest = rest.strip()
    if not name or not rest:
        raise ValueError(f"malformed sample line {sample!r}")
    return name, labels, rest


def parse_exposition(text: str) -> dict[str, Family]:
    """Parse (strictly) the subset of OpenMetrics :func:`render` emits.

    Raises :class:`ValueError` with a line-numbered message on the first
    structural violation.  Returns families keyed by metric name.
    """
    families: dict[str, Family] = {}
    current: Family | None = None
    lines = text.split("\n")
    if text and not text.endswith("\n"):
        raise ValueError("exposition must end with a trailing newline")
    saw_eof = False
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        if saw_eof:
            raise ValueError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, mtype = rest.partition(" ")
            if mtype not in ("counter", "gauge", "histogram"):
                raise ValueError(f"line {lineno}: unknown type {mtype!r}")
            if name in families:
                raise ValueError(f"line {lineno}: duplicate family {name!r}")
            current = Family(name=name, type=mtype)
            families[name] = current
            continue
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            if current is None or name != current.name:
                raise ValueError(
                    f"line {lineno}: HELP outside its TYPE block")
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unexpected comment {line!r}")

        # sample line, possibly with an exemplar suffix
        exemplar = None
        body = line
        if " # " in line:
            body, _, ex = line.partition(" # ")
            if not ex.startswith("{"):
                raise ValueError(f"line {lineno}: malformed exemplar {ex!r}")
            close = ex.rindex("}")
            ex_labels = _parse_labels(ex[1:close])
            ex_value = _parse_number(ex[close + 1:].strip())
            exemplar = {"labels": ex_labels, "value": ex_value}
        name, labels, value_text = _split_name_labels(body)
        value = _parse_number(value_text)
        if current is None:
            raise ValueError(f"line {lineno}: sample before any # TYPE")
        base = current.name
        if current.type == "counter":
            if name != f"{base}_total":
                raise ValueError(
                    f"line {lineno}: counter sample must be {base}_total")
            if value < 0:
                raise ValueError(f"line {lineno}: negative counter")
        elif current.type == "gauge":
            if name != base:
                raise ValueError(
                    f"line {lineno}: gauge sample {name!r} outside {base!r}")
        else:  # histogram
            if name not in (f"{base}_bucket", f"{base}_sum", f"{base}_count"):
                raise ValueError(
                    f"line {lineno}: {name!r} not a histogram sample of {base!r}")
            if name == f"{base}_bucket" and "le" not in labels:
                raise ValueError(f"line {lineno}: bucket without le label")
            if exemplar is not None and name != f"{base}_bucket":
                raise ValueError(
                    f"line {lineno}: exemplar outside a bucket sample")
        current.samples.append(
            Sample(name=name, labels=labels, value=value, exemplar=exemplar))
    if not saw_eof:
        raise ValueError("missing # EOF terminator")
    _check_histograms(families)
    return families


def _series_key(labels: dict[str, str], *, drop: Iterable[str] = ()) -> tuple:
    return tuple(sorted((k, v) for k, v in labels.items() if k not in drop))


def _check_histograms(families: dict[str, Family]) -> None:
    for fam in families.values():
        if fam.type != "histogram":
            continue
        buckets: dict[tuple, list[tuple[float, float]]] = {}
        sums: dict[tuple, float] = {}
        counts: dict[tuple, float] = {}
        for s in fam.samples:
            if s.name.endswith("_bucket"):
                key = _series_key(s.labels, drop=("le",))
                buckets.setdefault(key, []).append(
                    (_parse_number(s.labels["le"]), s.value))
            elif s.name.endswith("_sum"):
                sums[_series_key(s.labels)] = s.value
            else:
                counts[_series_key(s.labels)] = s.value
        for key, series in buckets.items():
            les = [le for le, _ in series]
            if les != sorted(les):
                raise ValueError(f"{fam.name}: bucket le values not sorted")
            values = [v for _, v in series]
            if any(b < a for a, b in zip(values, values[1:])):
                raise ValueError(f"{fam.name}: bucket counts not cumulative")
            if not les or not math.isinf(les[-1]):
                raise ValueError(f"{fam.name}: missing +Inf bucket")
            if key not in counts or key not in sums:
                raise ValueError(f"{fam.name}: missing _sum/_count series")
            if values[-1] != counts[key]:
                raise ValueError(
                    f"{fam.name}: +Inf bucket {values[-1]} != count {counts[key]}")


def validate(text: str) -> dict[str, Family]:
    """Alias of :func:`parse_exposition` — the round-trip CI gate."""
    return parse_exposition(text)


def exemplar_count(families: dict[str, Family]) -> int:
    """How many bucket samples carry an exemplar (CI acceptance bar)."""
    return sum(
        1 for fam in families.values() for s in fam.samples
        if s.exemplar is not None)
