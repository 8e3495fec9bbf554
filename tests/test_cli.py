"""Command-line interface."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "fig17" in out and "tab1" in out


def test_chains(capsys):
    assert main(["chains"]) == 0
    out = capsys.readouterr().out
    assert "511 : 1" in out and "31 : 1" in out


def test_reproduce_tab1(capsys):
    assert main(["reproduce", "tab1"]) == 0
    out = capsys.readouterr().out
    assert "Cortex-A53" in out and "TU102" in out


def test_reproduce_fig13(capsys):
    assert main(["reproduce", "fig13"]) == 0
    out = capsys.readouterr().out
    assert "im2col" in out and "geomean" in out


def test_reproduce_unknown(capsys):
    assert main(["reproduce", "fig99"]) == 2
    err = capsys.readouterr().err
    # one line, lists the valid choices, no traceback
    assert err.count("\n") == 1
    assert "fig99" in err and "fig13" in err and "tab1" in err
    assert "Traceback" not in err


def test_layers(capsys):
    assert main(["layers", "resnet50"]) == 0
    out = capsys.readouterr().out
    assert "conv1:" in out and "conv19:" in out


def test_kernel_summary_and_listing(capsys):
    assert main(["kernel", "smlal", "4", "8", "--listing"]) == 0
    out = capsys.readouterr().out
    assert "SMLAL_8H" in out
    assert "MACs/cycle" in out
    assert "LD4R_B" in out  # listing shows the load-replicate


def test_kernel_sdot(capsys):
    assert main(["kernel", "sdot", "8", "16"]) == 0
    out = capsys.readouterr().out
    assert "SDOT_4S_LANE" in out


@pytest.mark.parametrize("argv, needle", [
    (["smlal", "2", "64"], "unsupported bit width: 2"),
    (["mla", "8", "64"], "unsupported bit width: 8"),
    (["smlal", "9", "64"], "unsupported bit width: 9"),
    (["smlal", "4", "0"], "k must be positive"),
    (["ncnn", "4", "64"], "8-bit operands only, got 4"),
    (["sdot", "2", "64"], "8-bit operands only, got 2"),
    (["popcount", "8", "64"], "2-bit operands only, got 8"),
])
def test_kernel_rejects_bad_arguments(capsys, argv, needle):
    """A width the scheme does not model, or a non-positive K, is a
    one-line usage error (exit 2), never a traceback or a kernel of
    another width."""
    assert main(["kernel", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert needle in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("scheme, bits, name", [
    ("ncnn", "8", "ncnn8"), ("sdot", "8", "sdot8"), ("popcount", "2", "popcount2"),
])
def test_kernel_fixed_width_schemes_accept_their_width(capsys, scheme, bits, name):
    assert main(["kernel", scheme, bits, "64"]) == 0
    assert capsys.readouterr().out.startswith(f"{name}: ")


def test_bench_smoke(tmp_path, capsys):
    assert main(["bench", "--smoke", "--backend", "gpu",
                 "--out", str(tmp_path),
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "identical best tilings: True" in out
    report = tmp_path / "BENCH_autotune_smoke.json"
    assert report.is_file()
    import json

    data = json.loads(report.read_text())
    assert data["kind"] == "smoke"
    gpu = data["gpu_autotune"]
    assert gpu["identical_best"] is True
    assert gpu["identical_series"] is True
    # the cold phase searched (and pruned), the warm one read the cache
    assert gpu["cold"]["pruned"] > 0
    assert gpu["cold"]["candidates_per_sec"] > 0
    assert gpu["warm"]["cache"]["hit_rate"] > 0.9
    # the report always carries an obs metrics block and, since v3, the
    # git/fingerprint provenance used by the bench-history ledger
    assert data["schema"] == 3
    assert data["fingerprint"]
    metrics = data["metrics"]
    assert set(metrics) >= {"schema", "counters", "gauges", "histograms"}
    assert any(k.startswith("cache_lookups{") for k in metrics["counters"])
    assert any(k.startswith("autotune_evaluated{")
               for k in metrics["counters"])


def test_bench_smoke_trace_and_metrics_outputs(tmp_path, capsys):
    tpath = tmp_path / "trace.json"
    mpath = tmp_path / "metrics.json"
    assert main(["bench", "--smoke", "--backend", "gpu",
                 "--out", str(tmp_path),
                 "--cache-dir", str(tmp_path / "cache"),
                 "--trace", str(tpath), "--metrics", str(mpath)]) == 0
    import json

    doc = json.loads(tpath.read_text())
    assert doc["displayTimeUnit"] == "ms"
    assert any(e["name"] == "autotune.search"
               for e in doc["traceEvents"] if e["ph"] == "X")
    snap = json.loads(mpath.read_text())
    assert set(snap) >= {"schema", "counters", "gauges", "histograms"}


def test_bench_save_then_regress_clean(tmp_path, capsys):
    """The acceptance loop: two identical --save runs, then a clean regress."""
    hist = tmp_path / "history"
    for _ in range(2):
        assert main(["bench", "--smoke", "--backend", "gpu",
                     "--out", str(tmp_path),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--save", "--history-dir", str(hist)]) == 0
    assert (hist / "ledger.jsonl").is_file()
    assert main(["regress", "--history-dir", str(hist)]) == 0
    out = capsys.readouterr().out
    assert "bit-identical" in out and "regress: clean" in out


def test_bench_smoke_arm_measures_nothing_and_exits_2(tmp_path, capsys):
    """The smoke bench has no ARM section, so an ARM-only smoke run is a
    usage error: one stderr line, exit 2, no report and no ledger entry."""
    assert main(["bench", "--smoke", "--backend", "arm",
                 "--out", str(tmp_path / "out"), "--save",
                 "--history-dir", str(tmp_path / "history")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "--smoke" in captured.err and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_regress_needs_two_entries(tmp_path, capsys):
    assert main(["regress", "--history-dir", str(tmp_path)]) == 2
    assert "at least 2 ledger entries" in capsys.readouterr().out


def test_report_html(tmp_path, capsys):
    out_html = tmp_path / "report.html"
    assert main(["report", "--html", str(out_html),
                 "--backend", "ref",
                 "--history-dir", str(tmp_path / "history")]) == 0
    text = out_html.read_text()
    assert text.startswith("<!doctype html>")
    assert "<svg" in text and "Roofline" in text
    assert "prefers-color-scheme: dark" in text  # dark mode is selected


def test_report_text(capsys):
    assert main(["report", "--backend", "ref"]) == 0
    out = capsys.readouterr().out
    assert "roofline [ref]" in out
    assert "CAL/LD" in out and "chain" in out


def test_report_unknown_backend(capsys):
    assert main(["report", "--backend", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "nope" in err and "arm" in err and "gpu" in err and "ref" in err
    assert "Traceback" not in err


def test_layers_unknown_backend(capsys):
    assert main(["layers", "resnet50", "--backend", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "nope" in err and "arm" in err and "ref" in err
    assert "Traceback" not in err


def test_profile_unknown_backend(capsys):
    assert main(["profile", "resnet50", "--backend", "nope"]) == 2
    out = capsys.readouterr().out
    assert "nope" in out and "Traceback" not in out


def test_chaos_command_registered():
    from repro.cli import build_parser

    args = build_parser().parse_args(["chaos"])
    assert args.command == "chaos"


def test_chaos_list_prints_scenarios(capsys):
    assert main(["chaos", "--list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "autotune-invariance" in out and "serve-slo" in out


def test_chaos_unknown_scenario_exits_two(capsys):
    assert main(["chaos", "not-a-scenario"]) == 2
    err = capsys.readouterr().err
    # one line, lists the valid choices, no traceback
    assert err.count("\n") == 1
    assert "not-a-scenario" in err and "serve-slo" in err
    assert "Traceback" not in err


def test_serve_smoke_and_summary_out(tmp_path, capsys):
    out = tmp_path / "serve.json"
    assert main(["serve", "--qps", "2000", "--requests", "300",
                 "--seed", "5", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "offered 300" in text and "slo_attainment" in text
    import json

    summary = json.loads(out.read_text())
    assert summary["schema"] == "repro.serve.summary/v1"
    assert summary["counts"]["offered"] == 300
    assert summary["invariants"]["conservation"] is True


def test_serve_json_output_is_canonical(capsys):
    assert main(["serve", "--qps", "2000", "--requests", "200",
                 "--seed", "5", "--json"]) == 0
    import json

    line = capsys.readouterr().out.strip()
    summary = json.loads(line)
    assert line == json.dumps(summary, sort_keys=True,
                              separators=(",", ":"))


def test_serve_trace_save_and_replay(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["serve", "--qps", "1000", "--requests", "100",
                 "--seed", "2", "--save-trace", str(trace)]) == 0
    assert trace.exists()
    capsys.readouterr()
    assert main(["serve", "--trace-file", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "offered 100" in out


def test_serve_unknown_shape_exits_two(capsys):
    assert main(["serve", "--shape", "sawtooth"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "sawtooth" in err and "steady" in err


def test_report_html_serve_summary_card(tmp_path, capsys):
    summary_path = tmp_path / "serve.json"
    assert main(["serve", "--qps", "2000", "--requests", "200",
                 "--seed", "5", "--out", str(summary_path)]) == 0
    capsys.readouterr()
    html = tmp_path / "dash.html"
    assert main(["report", "--html", str(html), "--backend", "gpu",
                 "--serve-summary", str(summary_path)]) == 0
    text = html.read_text()
    assert "Serving &amp; overload robustness" in text
    assert "SLO attainment" in text


def test_report_serve_summary_unreadable_exits_two(tmp_path, capsys):
    assert main(["report", "--html", str(tmp_path / "x.html"),
                 "--serve-summary", str(tmp_path / "missing.json")]) == 2
    assert "cannot read serve summary" in capsys.readouterr().err


def test_bad_command():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_flight_dump(tmp_path, capsys):
    import json

    out = tmp_path / "flight.json"
    assert main(["flight", "--run", "fig7", "--dump", str(out)]) == 0
    text = capsys.readouterr().out
    assert "flight recorder: enabled" in text
    assert "0 unresolved parents" in text
    doc = json.loads(out.read_text())
    assert doc["displayTimeUnit"] == "ms"
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert spans and all(e["args"]["trace_id"] for e in spans)


def test_flight_unknown_target(capsys):
    assert main(["flight", "--run", "fig99"]) == 2
    assert "fig99" in capsys.readouterr().err


def test_metrics_export_stdout_and_file(tmp_path, capsys):
    from repro.obs import export

    assert main(["metrics-export", "--run", "fig7"]) == 0
    text = capsys.readouterr().out
    assert text.endswith("# EOF\n")
    export.validate(text)  # printed exposition is parseable as-is

    out = tmp_path / "metrics.txt"
    assert main(["metrics-export", "--run", "fig7", "--out", str(out)]) == 0
    export.validate(out.read_text())
    assert "metric families" in capsys.readouterr().out


def test_top_iterations(capsys):
    assert main(["top", "--iterations", "2", "--interval", "0.01",
                 "--no-clear"]) == 0
    assert capsys.readouterr().out.count("repro top") == 2


def test_profile_sample_flag_and_flamegraph(tmp_path, capsys):
    fg = tmp_path / "fg.svg"
    assert main(["profile", "fig7", "--profile-sample", "1",
                 "--flamegraph", str(fg)]) == 0
    out = capsys.readouterr().out
    assert "sampler:" in out and "missed ticks" in out
    assert fg.read_text().startswith("<svg")


def test_report_html_sample_collapsed(tmp_path, capsys):
    collapsed = tmp_path / "stacks.txt"
    collapsed.write_text("main;work;hot 9\nmain;idle 1\n")
    out_html = tmp_path / "report.html"
    assert main(["report", "--html", str(out_html), "--backend", "ref",
                 "--sample-collapsed", str(collapsed)]) == 0
    html = out_html.read_text()
    assert "Sampled wall-clock profile" in html
    assert "flamegraph" in html.lower()
