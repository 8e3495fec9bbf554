"""``python -m repro profile``: the observability reporting surface.

The acceptance contract: profiling an artifact emits a text summary, a
Perfetto-loadable Chrome trace and a metrics snapshot containing the
cache, autotune and per-layer cycle series — and leaves no tracer
installed afterwards.  A model target also prints its roofline, CAL/LD
and chain-overhead tables; a bad target, backend or sample interval is
one stderr line and exit 2.
"""

import json

import pytest

from repro.cli import main
from repro.obs import trace


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_profile_fig13_happy_path(tmp_path, capsys):
    tpath = tmp_path / "t.json"
    mpath = tmp_path / "m.json"
    assert main(["profile", "fig13",
                 "--trace", str(tpath), "--metrics", str(mpath)]) == 0
    out = capsys.readouterr().out
    assert "== profile fig13" in out
    assert "spans by total time:" in out
    assert not trace.active()  # capture window closed behind itself

    doc = _load(tpath)
    assert doc["displayTimeUnit"] == "ms"
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"profile", "figure.fig13_space_overhead"} <= names

    snap = _load(mpath)
    assert snap["target"] == "fig13"
    assert snap["schema"] == 1
    assert set(snap) >= {"counters", "gauges", "histograms", "wall_seconds"}


def test_profile_fig10_records_acceptance_series(tmp_path, monkeypatch,
                                                  capsys):
    """fig10's metrics must show cache traffic, autotune evaluated/pruned
    tallies and per-layer cycles; its trace holds the spans the summary
    counts plus one marker per sweep."""
    from repro.gpu.autotune import clear_cache
    from repro.perf.cache import CACHE_DIR_ENV

    # hermetic caches: the sweeps must actually run here, not replay a
    # warm store left by earlier runs on this machine
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    clear_cache()
    mpath = tmp_path / "m.json"
    tpath = tmp_path / "t.json"
    assert main(["profile", "fig10",
                 "--trace", str(tpath), "--metrics", str(mpath)]) == 0
    snap = _load(mpath)
    counters, gauges = snap["counters"], snap["gauges"]
    assert any(k.startswith("cache_lookups{") for k in counters)
    assert any(k.startswith("autotune_evaluated{") for k in counters)
    assert any(k.startswith("autotune_pruned{") for k in counters)
    assert any(k.startswith("gpu_layer_cycles{") for k in gauges)
    events = _load(tpath)["traceEvents"]
    names = {e["name"] for e in events if e["ph"] == "X"}
    assert "autotune.search" in names
    # the summary's span count leaves the sweep markers out
    n_spans = sum(e["ph"] == "X" for e in events)
    assert f"spans: {n_spans}\n" in capsys.readouterr().out
    markers = [e for e in events if e["ph"] == "i"]
    assert len(markers) == counters["autotune_sweeps{engine=pruned}"] > 0
    assert {e["name"] for e in markers} == {"autotune.sweep"}
    # every span carries its trace id, and each sweep marker hangs off a
    # recorded span
    spans = [e for e in events if e["ph"] == "X"]
    assert all(e["args"]["trace_id"] for e in spans)
    span_ids = {e["args"]["span_id"] for e in spans}
    assert all(e["args"]["parent_id"] in span_ids for e in markers)


def test_profile_tab1_without_outputs(capsys):
    assert main(["profile", "tab1"]) == 0
    assert "== profile tab1" in capsys.readouterr().out


def test_profile_unknown_target(capsys):
    assert main(["profile", "fig99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "unknown profile target 'fig99'" in captured.err


def test_profile_model_prints_roofline_cal_ld_and_chain_tables(capsys):
    """A model target prints, in order, the backend's roofline with one
    row per point and its plot, the CAL/LD ratio of every layer ending
    in the geomean, and the chain overhead of every bit width; the gauge
    section above them does not list what they print."""
    from repro.models import get_model_layers

    layers = [spec.name for spec in get_model_layers("resnet50")]
    assert main(["profile", "resnet50", "--backend", "ref"]) == 0
    out = capsys.readouterr().out.splitlines()
    roof = out.index("roofline [ref]:")
    cal = out.index("CAL/LD ratio (Fig. 1):")
    chain = out.index("accumulation-chain overhead (Sec. 3.3):")
    assert roof < cal < chain == len(out) - 9  # header + 2..8 bits
    # ref prices 8 bits only: one point per layer, then the plot
    rows = out[roof + 2:roof + 2 + len(layers)]
    assert sorted(row.split()[0] for row in rows) == sorted(layers)
    assert out[roof + 2 + len(layers)].startswith("  MACs/s (peak ")
    assert not any(line.endswith(("more points", "more layers"))
                   for line in out)
    cal_rows = out[cal + 2:chain]
    assert [row.split()[0] for row in cal_rows] == [*layers, "geomean"]
    assert float(cal_rows[-1].split()[1].rstrip("x")) == pytest.approx(
        4.0, rel=0.1)
    assert [int(row.split()[0]) for row in out[chain + 2:]] == [
        2, 3, 4, 5, 6, 7, 8]
    # the summary's gauge section leaves the tables' families to them
    tabled = ("roofline_intensity", "roofline_pct_of_roof", "gemm_cal_ld",
              "gemm_cal_ld_improvement", "chain_overhead_fraction")
    assert not any(name in line for line in out[:roof] for name in tabled)


def test_flamegraph_and_stacks_start_the_sampler(tmp_path, capsys):
    """Either output flag samples the run at the default 5 ms interval;
    ``--profile-sample`` is needed only to change the interval."""
    fg, st = tmp_path / "fg.svg", tmp_path / "st.txt"
    assert main(["profile", "tab1", "--flamegraph", str(fg),
                 "--stacks", str(st)]) == 0
    assert fg.is_file() and st.is_file()
    assert " samples @ 5 ms (" in capsys.readouterr().out


@pytest.mark.parametrize("interval", ["0", "-1", "nan", "inf"])
def test_bad_sample_interval_is_a_usage_error(interval, tmp_path, capsys):
    stacks = tmp_path / "st.txt"
    assert main(["profile", "tab1", "--profile-sample", interval,
                 "--stacks", str(stacks)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert f"got {interval}" in captured.err
    assert not stacks.exists()


def test_failing_target_leaks_no_obs_state(monkeypatch):
    """A figure that blows up mid-run must not leave its half-filled
    metrics window (or an installed tracer) behind for later callers."""
    from repro.obs import metrics
    from repro.obs import report as obs_report

    def boom(target, model, batch, backend=None):
        def runner():
            metrics.counter("partial_work").inc(7)
            raise RuntimeError("mid-figure failure")
        return runner

    monkeypatch.setattr(obs_report, "resolve_target", boom)
    with pytest.raises(RuntimeError, match="mid-figure failure"):
        obs_report.run_profile("fig13", echo=lambda s: None)
    assert not trace.active()
    snap = metrics.snapshot()
    assert "partial_work" not in snap["counters"]


def test_fully_routed_pricing_round_leaves_no_empty_histogram(monkeypatch):
    """When a fault plan routes every lane of a pricing round to the
    guarded profile, the sweep records no bound-gap histogram for it:
    every histogram the snapshot holds has an observation, so the
    profile summary can print its min and max."""
    from repro.gpu.autotune import autotune, clear_cache
    from repro.obs import metrics as obs_metrics
    from repro.obs.report import _histogram_summary
    from repro.resilience.faults import fault_plan
    from repro.types import GemmShape

    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_RETRY", "2")
    monkeypatch.setenv("REPRO_BACKOFF_S", "0")
    clear_cache()
    obs_metrics.reset()
    try:
        with trace.capture(), \
                fault_plan("autotune.profile:raise:1.0:1", seed=3):
            result = autotune(GemmShape(3136, 576, 64), 8)
        histograms = obs_metrics.snapshot()["histograms"]
    finally:
        clear_cache()
        obs_metrics.reset()
    assert result.evaluated > 0 and result.skipped == 0  # retries absorb it
    assert all(h["count"] >= 1 for h in histograms.values()), histograms
    assert len(_histogram_summary(histograms)) == max(1, len(histograms))
