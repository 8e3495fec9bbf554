"""The differential-profiling engine (repro.obs.diff).

Acceptance contracts: span trees align by name path through parent ids
(never by bare name), metrics deltas drop unchanged series, the
differential flamegraph is well-formed SVG, every input is sniffed by
content, and every report serializes byte-stably.
"""

import json
import xml.etree.ElementTree as ET

import pytest

from repro.obs import diff
from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def _fresh_metrics():
    obs_metrics.reset()
    yield
    obs_metrics.reset()


# ---------------------------------------------------------------------------
# span extraction and tree alignment
# ---------------------------------------------------------------------------


def _span(name, dur, sid=None, pid=None):
    return {"name": name, "dur_us": float(dur), "span_id": sid,
            "parent_id": pid}


def test_spans_from_chrome_reads_ids_and_skips_metadata():
    doc = {"traceEvents": [
        {"name": "process_name", "ph": "M", "args": {"name": "x"}},
        {"name": "hit", "ph": "i", "args": {}},
        {"name": "root", "ph": "X", "dur": 100.0,
         "args": {"span_id": "a", "trace_id": "t"}},
        {"name": "child", "ph": "X", "dur": 40.0,
         "args": {"span_id": "b", "parent_id": "a"}},
    ]}
    spans = diff.spans_from_chrome(doc)
    assert [s["name"] for s in spans] == ["root", "child"]
    assert spans[1]["parent_id"] == "a"


def test_aggregate_spans_aligns_same_name_under_different_parents():
    spans = [
        _span("cold", 100, "c", None), _span("warm", 50, "w", None),
        _span("search", 80, "s1", "c"), _span("search", 10, "s2", "w"),
    ]
    agg = diff.aggregate_spans(spans)
    assert agg["cold;search"]["total_us"] == 80.0
    assert agg["warm;search"]["total_us"] == 10.0
    # self time: parent minus its own children, never the other tree's
    assert agg["cold"]["self_us"] == 20.0
    assert agg["warm"]["self_us"] == 40.0


def test_aggregate_spans_clamps_negative_self_time():
    # clock jitter: child nominally outlasts the parent
    agg = diff.aggregate_spans(
        [_span("p", 10, "p1", None), _span("c", 12, "c1", "p1")])
    assert agg["p"]["self_us"] == 0.0


def test_aggregate_spans_flat_fallback_without_ids():
    agg = diff.aggregate_spans([_span("a", 5), _span("a", 7), _span("b", 1)])
    assert agg["a"] == {"count": 2, "total_us": 12.0, "self_us": 12.0}


def test_diff_spans_ranks_by_absolute_self_delta():
    a = [_span("x", 100), _span("y", 50)]
    b = [_span("x", 110), _span("y", 200)]
    deltas = diff.diff_spans(a, b)
    assert deltas[0].path == "y" and deltas[0].d_self_us == 150.0
    assert deltas[1].path == "x"
    # a side missing a path contributes zeros, not a KeyError
    only_b = diff.diff_spans([], [_span("z", 9)])
    assert only_b[0].count_a == 0 and only_b[0].self_us_b == 9.0


# ---------------------------------------------------------------------------
# metrics / histogram deltas
# ---------------------------------------------------------------------------


def test_diff_metrics_drops_unchanged_and_ranks_by_delta():
    snap_a = {"counters": {"a": 10, "b": 5}, "gauges": {"g": 1.0},
              "histograms": {}}
    snap_b = {"counters": {"a": 10, "b": 105}, "gauges": {"g": 3.0},
              "histograms": {}}
    counters, gauges, hists = diff.diff_metrics(snap_a, snap_b)
    assert [d.key for d in counters] == ["b"] and counters[0].delta == 100.0
    assert gauges[0].delta == 2.0 and not hists


def test_histogram_delta_buckets_from_live_histograms():
    ha, hb = obs_metrics.Histogram(), obs_metrics.Histogram()
    for v in (0.5, 0.5, 200.0):
        ha.observe(v)
    for v in (0.5, 200.0, 200.0, 200.0):
        hb.observe(v)
    d = diff.histogram_delta("h", ha, hb)
    assert d.count_a == 3 and d.count_b == 4
    assert d.bucket_deltas is not None
    moved = dict(d.bucket_deltas)
    assert -1 in set(moved.values()) and 2 in set(moved.values())
    # snapshot dicts (no buckets) degrade to aggregates only
    d2 = diff.histogram_delta("h", ha.as_dict(), hb.as_dict())
    assert d2.bucket_deltas is None and d2.count_b == 4


# ---------------------------------------------------------------------------
# collapsed stacks: frame deltas + the differential flamegraph
# ---------------------------------------------------------------------------


def test_diff_frames_compares_shares_not_raw_counts():
    # run B sampled 10x longer; identical shares → no deltas
    a = {"m;hot": 80, "m;idle": 20}
    b = {"m;hot": 800, "m;idle": 200}
    assert diff.diff_frames(a, b) == []
    shifted = diff.diff_frames(a, {"m;hot": 200, "m;idle": 800})
    assert shifted[0].frame in ("hot", "idle")
    assert abs(shifted[0].d_share) == pytest.approx(0.6)


def test_differential_flamegraph_svg_well_formed_and_signed():
    a = {"main;work;hot": 80, "main;idle": 20}
    b = {"main;work;hot": 30, "main;idle": 70}
    svg = diff.differential_flamegraph_svg(a, b, label_a="scalar",
                                           label_b="vector")
    root = ET.fromstring(svg)  # raises on malformed XML
    assert root.tag.endswith("svg")
    rects = svg.count("<rect")
    assert rects >= 4  # all/main/work/hot/idle minus sub-pixel culls
    # the hot frame shrank (blue-ish) and idle grew (red-ish): both
    # non-neutral colors must appear, and tooltips carry both runs
    assert svg != diff.differential_flamegraph_svg(a, a)
    assert "scalar" in svg and "vector" in svg
    # identical sides render every frame in the neutral gray
    neutral = diff.differential_flamegraph_svg(a, a)
    assert neutral.count("#9a9994") == neutral.count("<rect")


def test_differential_flamegraph_empty_sides():
    assert "<svg" not in diff.differential_flamegraph_svg({}, {})


# ---------------------------------------------------------------------------
# side loading / auto-detection
# ---------------------------------------------------------------------------


def test_load_side_detects_each_file_kind(tmp_path):
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps({"traceEvents": [
        {"name": "s", "ph": "X", "dur": 5.0, "args": {}}]}))
    metrics = tmp_path / "m.json"
    metrics.write_text(json.dumps({"counters": {"c": 2}, "gauges": {},
                                   "histograms": {}}))
    stacks = tmp_path / "s.txt"
    stacks.write_text("main;hot 10\nmain;idle 3\n")

    assert diff.load_side(str(trace)).kind == "trace"
    assert diff.load_side(str(metrics)).kind == "metrics"
    assert diff.load_side(str(stacks)).stacks == {"main;hot": 10,
                                                  "main;idle": 3}


def test_load_side_rejects_unrecognized_json(tmp_path):
    p = tmp_path / "x.json"
    p.write_text(json.dumps({"whatever": 1}))
    with pytest.raises(ValueError, match="unrecognized"):
        diff.load_side(str(p))


@pytest.mark.parametrize("name, content, needle", [
    ("missing.json", None, "no such file"),
    ("bad.txt", "main;hot count\n", "neither JSON nor collapsed stacks"),
    ("list.json", "[1, 2]", "top level must be an object"),
    ("latin1.txt", b"main;h\xe9 3\n", "cannot read"),
], ids=["missing", "malformed", "not-an-object", "not-utf8"])
def test_load_side_errors_name_the_file(tmp_path, name, content, needle):
    p = tmp_path / name
    if isinstance(content, bytes):
        p.write_bytes(content)
    elif content is not None:
        p.write_text(content)
    with pytest.raises(ValueError, match=needle) as info:
        diff.load_side(str(p))
    assert str(info.value).startswith(f"{p}: ")
    assert "\n" not in str(info.value)


# ---------------------------------------------------------------------------
# the report: ranking + byte-stable serialization
# ---------------------------------------------------------------------------


def test_diff_sides_only_compares_shared_sections():
    a = diff.Side(label="a", kind="trace", spans=[_span("x", 5)])
    b = diff.Side(label="b", kind="metrics", metrics={"counters": {"c": 1}})
    report = diff.diff_sides(a, b)
    assert report.empty
    assert "identical" in "\n".join(report.table())


def test_report_json_is_byte_stable_and_capped():
    def build():
        a = diff.Side(label="A", kind="trace",
                      spans=[_span("search", 30), _span("serial", 100)])
        b = diff.Side(label="B", kind="trace",
                      spans=[_span("search", 13), _span("serial", 110)])
        return diff.diff_sides(a, b)

    j1, j2 = build().to_json(top=1), build().to_json(top=1)
    assert j1 == j2
    doc = json.loads(j1)
    assert doc["schema"] == diff.SCHEMA_VERSION == 2
    assert set(doc) == {"schema", "a", "b", "top", "spans", "counters",
                        "gauges", "histograms", "frames"}
    assert doc["top"] == 1 and len(doc["spans"]) == 1
    assert doc["spans"][0]["path"] == "search"
    # compact separators + sorted keys + trailing newline
    assert j1.endswith("\n") and '": ' not in j1
