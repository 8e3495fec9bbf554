"""The metrics registry: labeled series, snapshots, thread-safety.

Most tests use a private :class:`MetricsRegistry` so they can't interfere
with the process default that library instrumentation writes into; the
default-registry convenience API gets its own reset-bracketed test.
"""

import itertools
import threading

import pytest

from repro.obs import metrics
from repro.obs.metrics import _LABEL_NAME_RE, MetricsRegistry, metric_key

# ---------------------------------------------------------------------------
# The inverse of metric_key: a round trip through it proves the key
# injective (no two label sets share a key)
# ---------------------------------------------------------------------------


def unescape_label_value(value: str) -> str:
    """Exact inverse of :func:`repro.obs.metrics.escape_label_value`."""
    out: list[str] = []
    it = iter(value)
    for ch in it:
        if ch == "\\":
            out.append(next(it, "\\"))
        else:
            out.append(ch)
    return "".join(out)


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
    """Invert :func:`metric_key`: ``"n{a=1,b=2}"`` → ``("n", {...})``."""
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


def test_metric_key_canonicalization():
    assert metric_key("hits", {}) == "hits"
    assert metric_key("hits", {"ns": "gpu", "bits": 4}) == \
        metric_key("hits", {"bits": 4, "ns": "gpu"}) == "hits{bits=4,ns=gpu}"


def test_metric_key_escapes_special_label_values():
    """Regression: values containing the key's own structural characters
    (`,` `{` `}` `=`) used to collide — ``{"a": "1,b=2"}`` keyed the same
    as ``{"a": "1", "b": "2"}``."""
    collide_a = metric_key("m", {"a": "1,b=2"})
    collide_b = metric_key("m", {"a": "1", "b": "2"})
    assert collide_a != collide_b
    assert collide_a == "m{a=1\\,b\\=2}"
    # backslashes themselves escape, so escaping never cascades ambiguously
    assert metric_key("m", {"a": "\\"}) == "m{a=\\\\}"
    assert metric_key("m", {"p": "x{y}"}) == "m{p=x\\{y\\}}"


def test_metric_key_round_trips_through_parse():
    cases = [
        ("plain", {}),
        ("hits", {"ns": "gpu", "bits": "4"}),
        ("m", {"a": "1,b=2"}),
        ("m", {"a": "1", "b": "2"}),
        ("m", {"path": "a\\b{c}=d,e"}),
    ]
    for name, labels in cases:
        parsed = parse_metric_key(metric_key(name, labels))
        assert parsed == (name, labels), f"round-trip failed for {labels}"


def test_metric_key_distinct_labels_stay_distinct():
    nasty = [
        {"a": "1,b=2"}, {"a": "1", "b": "2"}, {"a": "1\\,b\\=2"},
        {"a": "{"}, {"a": "}"}, {"a": "="}, {"a": ","}, {"a": "\\"},
    ]
    keys = [metric_key("m", labels) for labels in nasty]
    assert len(set(keys)) == len(nasty)


def test_metric_key_rejects_malformed_names():
    with pytest.raises(ValueError):
        metric_key("bad{name", {})
    with pytest.raises(ValueError):
        metric_key("m", {"not a name": "v"})
    with pytest.raises(ValueError):
        metric_key("m", {"no=eq": "v"})


def test_escape_label_value_inverse():
    for raw in ("", "plain", "a,b", "{x}", "k=v", "\\", "a\\,b", "\\\\"):
        assert unescape_label_value(
            metrics.escape_label_value(raw)) == raw


def test_counter_inc_and_identity():
    reg = MetricsRegistry()
    c = reg.counter("lookups", ns="a", outcome="hit")
    c.inc()
    c.inc(3)
    # keyword order doesn't split the series: same object comes back
    assert reg.counter("lookups", outcome="hit", ns="a") is c
    assert c.value == 4
    assert reg.counter("lookups", ns="a", outcome="miss").value == 0


@pytest.mark.parametrize("order", list(itertools.permutations([1, 1.0, True])),
                         ids=lambda order: "-".join(map(repr, order)))
def test_equal_label_values_of_other_types_stay_apart(order):
    """``bits=1``, ``bits=1.0`` and ``bits=True`` compare equal but key
    three series, whichever is looked up first, on every later lookup."""
    reg = MetricsRegistry()
    series = [reg.counter("runs", bits=value) for value in order]
    for value, counter in zip(order, series):
        assert reg.counter("runs", bits=value) is counter
    assert set(reg.snapshot()["counters"]) == {
        "runs{bits=1}", "runs{bits=1.0}", "runs{bits=True}"}


def test_repeated_lookups_keep_metric_keys():
    """A repeated label set gets the key :func:`metric_key` builds:
    keyword order maps to one series, an escaped value keeps its key, and
    floats that compare equal but print apart (``0.0``, ``-0.0``) and
    unhashable values get their own key on every lookup."""
    reg = MetricsRegistry()
    plain = reg.gauge("cycles", layer="conv1", bits=4)
    assert reg.gauge("cycles", bits=4, layer="conv1") is plain
    nasty = {"layer": "a,b=c{d}\\"}
    escaped = reg.gauge("cycles", **nasty)
    assert reg.gauge("cycles", **nasty) is escaped
    for value in (0.0, -0.0, 0.0, -0.0, [1, 2], [1, 2]):
        reg.gauge("cycles", v=value)
    assert set(reg.snapshot()["gauges"]) == {
        "cycles{bits=4,layer=conv1}", "cycles{layer=a\\,b\\=c\\{d\\}\\\\}",
        "cycles{v=0.0}", "cycles{v=-0.0}", "cycles{v=[1\\, 2]}"}


def test_bad_label_name_raises_on_every_lookup():
    reg = MetricsRegistry()
    for _ in range(2):
        with pytest.raises(ValueError, match="identifier"):
            reg.counter("c", **{"not a name": 1})
    assert reg.snapshot()["counters"] == {}


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("c").inc(-1)


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    g = reg.gauge("cycles", layer="conv1")
    g.set(100.0)
    g.set(42.5)
    assert g.value == 42.5


def test_histogram_summary_stats():
    reg = MetricsRegistry()
    h = reg.histogram("gap", bits=4)
    for v in (3.0, 1.0, 2.0):
        h.observe(v)
    d = h.as_dict()
    assert d == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0}
    assert reg.histogram("gap", bits=8).as_dict()["count"] == 0


def test_snapshot_layout_and_sorting():
    reg = MetricsRegistry()
    reg.counter("b_counter").inc(2)
    reg.counter("a_counter", x=1).inc()
    reg.gauge("g").set(7.0)
    reg.histogram("h").observe(1.5)
    snap = reg.snapshot()
    assert snap["schema"] == metrics.SCHEMA_VERSION
    assert list(snap) == ["schema", "counters", "gauges", "histograms"]
    assert list(snap["counters"]) == ["a_counter{x=1}", "b_counter"]
    assert snap["counters"]["b_counter"] == 2
    assert snap["gauges"] == {"g": 7.0}
    assert snap["histograms"]["h"]["count"] == 1
    import json

    json.dumps(snap)  # plain JSON, no custom types


def test_reset_drops_every_series():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.gauge("g").set(1.0)
    reg.histogram("h").observe(1.0)
    reg.reset()
    snap = reg.snapshot()
    assert snap["counters"] == snap["gauges"] == snap["histograms"] == {}


def test_concurrent_increments_do_not_lose_updates():
    reg = MetricsRegistry()

    def work():
        for _ in range(1000):
            reg.counter("racy", src="t").inc()
            reg.histogram("racy_h").observe(1.0)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.counter("racy", src="t").value == 8000
    assert reg.histogram("racy_h").count == 8000


def test_default_registry_convenience_api():
    metrics.reset()
    try:
        metrics.counter("conv_runs", backend="arm").inc(5)
        metrics.gauge("cycles", layer="conv1").set(123.0)
        snap = metrics.snapshot()
        assert snap["counters"]["conv_runs{backend=arm}"] == 5
        assert snap["gauges"]["cycles{layer=conv1}"] == 123.0
        assert metrics.registry().snapshot() == snap
    finally:
        metrics.reset()  # leave no residue for other tests
