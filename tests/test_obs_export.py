"""OpenMetrics exposition: renderer, strict parser, exemplars.

The contract under test: :func:`repro.obs.export.render` emits a
document the deliberately strict in-repo parser accepts (the CI gate is
this round-trip), histogram buckets are cumulative with a ``+Inf``
terminator equal to ``_count``, and exemplars ride on bucket samples and
resolve to recorded spans.
"""

import math

import pytest

from repro.obs import export, metrics, trace


@pytest.fixture(autouse=True)
def fresh_registry():
    metrics.reset()
    yield
    metrics.reset()


def _seed_registry():
    metrics.counter("requests", route="/a").inc(3)
    metrics.counter("requests", route="/b").inc()
    metrics.gauge("queue_depth").set(7)
    h = metrics.histogram("latency_seconds", op="fwd")
    for v in (0.002, 0.004, 0.5, 2.0):
        h.observe(v)


# ---------------------------------------------------------------------------
# Rendering + round-trip
# ---------------------------------------------------------------------------


def test_render_round_trips_through_strict_parser():
    _seed_registry()
    text = export.render()
    fams = export.validate(text)
    assert set(fams) == {"requests", "queue_depth", "latency_seconds"}
    assert fams["requests"].type == "counter"
    assert fams["queue_depth"].type == "gauge"
    assert fams["latency_seconds"].type == "histogram"
    totals = {tuple(sorted(s.labels.items())): s.value
              for s in fams["requests"].samples}
    assert totals == {(("route", "/a"),): 3.0, (("route", "/b"),): 1.0}


def test_histogram_buckets_cumulative_with_inf_terminator():
    _seed_registry()
    fams = export.validate(export.render())
    buckets = [s for s in fams["latency_seconds"].samples
               if s.name == "latency_seconds_bucket"]
    values = [s.value for s in buckets]
    assert values == sorted(values)  # cumulative
    les = [export._parse_number(s.labels["le"]) for s in buckets]
    assert math.isinf(les[-1])
    count = next(s.value for s in fams["latency_seconds"].samples
                 if s.name == "latency_seconds_count")
    assert values[-1] == count == 4
    s_sum = next(s.value for s in fams["latency_seconds"].samples
                 if s.name == "latency_seconds_sum")
    assert s_sum == pytest.approx(2.506)


def test_empty_registry_renders_bare_eof():
    text = export.render()
    assert text == "# EOF\n"
    assert export.validate(text) == {}


def test_label_values_with_specials_survive_the_round_trip():
    metrics.counter("odd", path='a"b\\c', note="x,y{z}=w").inc()
    fams = export.validate(export.render())
    (sample,) = fams["odd"].samples
    assert sample.labels == {"path": 'a"b\\c', "note": "x,y{z}=w"}


def test_exemplars_attach_to_buckets_and_resolve():
    """Exemplars follow the span context of a capture."""
    with trace.capture() as rec:
        with trace.span("probe", cat="test"):
            metrics.histogram("probe_seconds").observe(0.003)
    text = export.render()
    fams = export.validate(text)
    assert export.exemplar_count(fams) >= 1
    bucket = next(s for s in fams["probe_seconds"].samples
                  if s.exemplar is not None)
    ex = bucket.exemplar
    assert ex["value"] == pytest.approx(0.003)
    # the exemplar names the probe span the capture holds
    probe = next(e for e in rec.spans() if e.name == "probe")
    assert (ex["labels"]["trace_id"], ex["labels"]["span_id"]) == (
        probe.trace_id, probe.span_id)


def test_no_exemplars_without_flight_or_context():
    """Outside a capture no span context exists, so no exemplar."""
    with trace.span("probe", cat="test"):
        metrics.histogram("quiet_seconds").observe(0.5)
    fams = export.validate(export.render())
    assert export.exemplar_count(fams) == 0


# ---------------------------------------------------------------------------
# Parser strictness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad, why", [
    ("# EOF", "trailing newline"),
    ("x_total 1\n# EOF\n", "sample before any # TYPE"),
    ("# TYPE x counter\nx 1\n# EOF\n", "must be x_total"),
    ("# TYPE x counter\nx_total -1\n# EOF\n", "negative counter"),
    ("# TYPE x gauge\ny 1\n# EOF\n", "outside"),
    ("# TYPE x counter\nx_total 1\n", "missing # EOF"),
    ("# TYPE x counter\n# EOF\nx_total 1\n", "content after # EOF"),
    ("# TYPE x widget\n# EOF\n", "unknown type"),
    ("# TYPE x counter\n# TYPE x counter\n# EOF\n", "duplicate family"),
    ('# TYPE h histogram\nh_bucket{x="1"} 1\n# EOF\n', "without le"),
    ('# TYPE h histogram\nh_bucket{le="+Inf"} 1 # bad 1\n# EOF\n',
     "malformed exemplar"),
    ('# TYPE h histogram\nh_sum{} 1 # {a="b"} 1\n# EOF\n',
     "exemplar outside a bucket"),
], ids=lambda p: p[:28] if isinstance(p, str) else p)
def test_parser_rejects(bad, why):
    with pytest.raises(ValueError, match=why.replace("+", r"\+")):
        export.parse_exposition(bad)


@pytest.mark.parametrize("bad, why", [
    ('# TYPE h histogram\nh_bucket{le="1.0"} 2\nh_bucket{le="+Inf"} 1\n'
     'h_sum 3\nh_count 1\n# EOF\n', "not cumulative"),
    ('# TYPE h histogram\nh_bucket{le="2.0"} 1\nh_bucket{le="1.0"} 1\n'
     'h_bucket{le="+Inf"} 1\nh_sum 1\nh_count 1\n# EOF\n', "not sorted"),
    ('# TYPE h histogram\nh_bucket{le="1.0"} 1\nh_sum 1\nh_count 1\n# EOF\n',
     r"missing \+Inf"),
    ('# TYPE h histogram\nh_bucket{le="+Inf"} 2\nh_sum 1\nh_count 1\n# EOF\n',
     "!= count"),
    ('# TYPE h histogram\nh_bucket{le="+Inf"} 1\n# EOF\n',
     "missing _sum/_count"),
])
def test_histogram_invariants_rejected(bad, why):
    with pytest.raises(ValueError, match=why):
        export.parse_exposition(bad)


def test_parser_rejects_bad_escapes():
    with pytest.raises(ValueError, match="bad escape"):
        export.parse_exposition(
            '# TYPE x counter\nx_total{a="\\q"} 1\n# EOF\n')
