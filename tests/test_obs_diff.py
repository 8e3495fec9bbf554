"""The differential-profiling engine (repro.obs.diff).

Acceptance contracts: span trees align by name path through parent ids
(never by bare name), phase ranking is noise-robust (|log ratio| with a
floor, so a 2x shift on the pricing phase outranks 30% serial noise),
changepoints name the first offending ledger run, the differential
flamegraph is well-formed SVG, and every report serializes byte-stably.
"""

import json
import xml.etree.ElementTree as ET

import pytest

from repro.obs import diff
from repro.obs import metrics as obs_metrics
from repro.obs.history import BenchLedger


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
# phase ranking: the noise-robustness contract
# ---------------------------------------------------------------------------


def test_phase_ranking_prefers_ratio_over_absolute_delta():
    """The acceptance scenario: serial noise moves 95 ms, the pricing
    phase moves 17 ms — but 2.1x beats 1.5x on |log ratio|, so the
    pricing phase ranks first."""
    deltas = diff.diff_phases(
        {"gpu_serial": 0.190, "gpu_cold": 0.030},
        {"gpu_serial": 0.285, "gpu_cold": 0.0143})
    assert [d.phase for d in deltas[:2]] == ["gpu_cold", "gpu_serial"]


def test_phase_floor_demotes_sub_noise_phases():
    deltas = diff.diff_phases(
        {"gpu_warm": 0.001, "gpu_cold": 0.030},
        {"gpu_warm": 0.004, "gpu_cold": 0.031})
    # warm quadrupled but both sides sit under the 5 ms floor → last
    assert deltas[-1].phase == "gpu_warm" and deltas[-1].floored
    assert deltas[-1].score == 0.0
    # one side over the floor keeps the phase rankable
    live = diff.diff_phases({"p": 0.001}, {"p": 0.100})
    assert not live[0].floored and live[0].score > 0


def test_phase_missing_side_scores_zero_but_reports():
    deltas = diff.diff_phases({"gone": 0.5}, {})
    assert deltas[0].seconds_b is None and deltas[0].score == 0.0
    assert deltas[0].delta is None and deltas[0].ratio is None


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
# changepoint detection
# ---------------------------------------------------------------------------


def test_changepoint_finds_the_step():
    k, score = diff.changepoint([1.0, 1.05, 0.95, 3.0, 3.1, 2.9])
    assert k == 3 and score > 0.9


def test_changepoint_refuses_short_or_flat_series():
    assert diff.changepoint([1.0, 2.0, 3.0]) is None  # n < 4
    assert diff.changepoint([2.0] * 8) is None  # zero variance


def test_ledger_changepoints_name_the_first_offending_run():
    entries = []
    for i in range(6):
        entries.append({
            "run_id": f"r{i}", "git_sha": f"sha{i}",
            "wall_seconds": {"gpu_cold": 0.03 if i < 4 else 0.09,
                             "gpu_serial": 0.1},
        })
    cps = diff.ledger_changepoints(entries)
    assert [c.phase for c in cps] == ["gpu_cold"]  # flat serial suppressed
    assert cps[0].run_id == "r4" and cps[0].git_sha == "sha4"
    assert cps[0].shift == pytest.approx(3.0)


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


def _ledger_entry(run_id, *, cold=0.03, sha="cafe0000", fp="fp0"):
    return {
        "schema": 3, "run_id": run_id, "git_sha": sha, "fingerprint": fp,
        "kind": "smoke", "model": "resnet50", "batch": 1, "jobs": 1,
        "backends": ["gpu"], "model_cycles": {"m": 1},
        "figures": {"fig10": {"s": [1.0]}},
        "wall_seconds": {"gpu_cold": cold, "gpu_serial": 0.1},
        "metrics": {"schema": 1, "counters": {}, "gauges": {},
                    "histograms": {}},
    }


def test_load_side_detects_each_file_kind(tmp_path):
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps({"traceEvents": [
        {"name": "s", "ph": "X", "dur": 5.0, "args": {}}]}))
    bench = tmp_path / "BENCH_x.json"
    bench.write_text(json.dumps({
        "gpu_autotune": {"cold": {"seconds": 0.03},
                         "warm": {"seconds": 0.001}},
        "arm_schedule": None,
        "metrics": {"counters": {"c": 1}},
    }))
    metrics = tmp_path / "m.json"
    metrics.write_text(json.dumps({"counters": {"c": 2}, "gauges": {},
                                   "histograms": {}}))
    stacks = tmp_path / "s.txt"
    stacks.write_text("main;hot 10\nmain;idle 3\n")

    assert diff.load_side(str(trace)).kind == "trace"
    bench_side = diff.load_side(str(bench))
    assert bench_side.kind == "bench"
    assert bench_side.phases == {"gpu_cold": 0.03, "gpu_warm": 0.001}
    assert diff.load_side(str(metrics)).kind == "metrics"
    assert diff.load_side(str(stacks)).stacks == {"main;hot": 10,
                                                  "main;idle": 3}


def test_load_side_resolves_ledger_selectors(tmp_path):
    ledger = BenchLedger(tmp_path)
    ledger.append(_ledger_entry("r0", sha="aaaa1111"))
    ledger.append(_ledger_entry("r1", sha="bbbb2222"))
    assert diff.load_side("-1", history_dir=tmp_path).label == "r1"
    assert diff.load_side("-2", history_dir=tmp_path).label == "r0"
    assert diff.load_side("aaaa", history_dir=tmp_path).label == "r0"
    with pytest.raises(ValueError, match="matches no"):
        diff.load_side("zzzz", history_dir=tmp_path)
    with pytest.raises(ValueError, match="only 2 entries"):
        diff.load_side("-3", history_dir=tmp_path)


def test_load_side_rejects_unrecognized_json(tmp_path):
    p = tmp_path / "x.json"
    p.write_text(json.dumps({"whatever": 1}))
    with pytest.raises(ValueError, match="unrecognized"):
        diff.load_side(str(p))


# ---------------------------------------------------------------------------
# the report: ranking + byte-stable serialization
# ---------------------------------------------------------------------------


def test_diff_sides_only_compares_shared_sections():
    a = diff.Side(label="a", kind="trace", spans=[_span("x", 5)])
    b = diff.Side(label="b", kind="bench", phases={"p": 1.0})
    report = diff.diff_sides(a, b)
    assert report.empty
    assert "identical" in "\n".join(report.table())


def test_report_json_is_byte_stable_and_capped():
    def build():
        a = diff.Side(label="A", kind="bench",
                      phases={"gpu_cold": 0.03, "gpu_serial": 0.1})
        b = diff.Side(label="B", kind="bench",
                      phases={"gpu_cold": 0.013, "gpu_serial": 0.11})
        return diff.diff_sides(a, b)

    j1, j2 = build().to_json(top=1), build().to_json(top=1)
    assert j1 == j2
    doc = json.loads(j1)
    assert doc["top"] == 1 and len(doc["phases"]) == 1
    assert doc["phases"][0]["phase"] == "gpu_cold"
    # compact separators + sorted keys + trailing newline
    assert j1.endswith("\n") and '": ' not in j1


def test_attribute_entries_is_deterministic_and_ranks_pricing():
    entries = [_ledger_entry(f"r{i}") for i in range(5)]
    entries.append(_ledger_entry("slow", cold=0.09, sha="eeee9999"))
    base, cand = entries[-2], entries[-1]
    r1 = diff.attribute_entries(base, cand, ledger_entries=entries)
    r2 = diff.attribute_entries(base, cand, ledger_entries=entries)
    assert r1.to_json(top=5) == r2.to_json(top=5)
    assert r1.top_phase().phase == "gpu_cold"
    assert r1.changepoints and r1.changepoints[0].run_id == "slow"


def test_top_phase_skips_floored_rows():
    report = diff.DiffReport(label_a="a", label_b="b")
    report.phases = diff.diff_phases({"w": 0.001}, {"w": 0.004})
    assert report.top_phase() is None
