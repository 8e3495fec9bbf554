"""Command-line interface."""

import pytest

from repro.backends import available_backends
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


def test_report_html(tmp_path, capsys):
    out_html = tmp_path / "report.html"
    assert main(["report", "--html", str(out_html), "--backend", "ref"]) == 0
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


@pytest.mark.parametrize("backend", available_backends())
def test_layers_and_profile_run_on_every_backend(
        backend, tmp_path, monkeypatch, capsys):
    """Every registered backend prices ResNet-50 through both CLI
    surfaces, on an empty cache of its own."""
    from repro.perf.cache import CACHE_DIR_ENV

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    assert main(["layers", "resnet50", "--backend", backend]) == 0
    out = capsys.readouterr().out
    assert f"[{backend} 8-bit:" in out and out.count("\n") == 20
    assert out.splitlines()[-1].startswith("total: ")
    assert main(["profile", "resnet50", "--backend", backend]) == 0
    out = capsys.readouterr().out
    assert f"executor_graphs_priced{{backend={backend}}}" in out
    assert f"roofline [{backend}]:" in out


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
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert main(["report", "--html", str(tmp_path / "x.html"),
                 "--serve-summary", str(listed)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not a JSON object" in err
    assert str(listed) in err and not (tmp_path / "x.html").exists()


@pytest.mark.parametrize("flag", ["--sample-collapsed", "--diff-collapsed"])
@pytest.mark.parametrize("content", [None, "main;hot count\n"],
                         ids=["missing", "malformed"])
def test_report_bad_collapsed_file_exits_two(tmp_path, capsys, flag, content):
    """A collapsed-stack input that is missing or not ``stack count``
    lines is a usage error: one stderr line naming the file, exit 2, no
    traceback and no report."""
    good = tmp_path / "good.txt"
    good.write_text("main;hot 3\n")
    bad = tmp_path / "bad.txt"
    if content is not None:
        bad.write_text(content)
    files = [str(bad)] if flag == "--sample-collapsed" else [str(good), str(bad)]
    out_html = tmp_path / "report.html"
    assert main(["report", "--html", str(out_html), "--backend", "ref",
                 flag, *files]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "cannot read collapsed stacks" in captured.err
    assert str(bad) in captured.err and "Traceback" not in captured.err
    assert not out_html.exists()


def test_bad_command():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


@pytest.mark.parametrize("target", ["fig7", "fig10"])
def test_flight_dump(target, tmp_path, capsys, monkeypatch):
    import json

    from repro.gpu.autotune import clear_cache
    from repro.obs import trace
    from repro.perf.cache import CACHE_DIR_ENV

    # an empty cache and ring: fig10's sweeps run and leave their markers
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    clear_cache()
    out = tmp_path / "flight.json"
    with trace.fresh_ring():
        assert main(["flight", "--run", target, "--dump", str(out)]) == 0
    text = capsys.readouterr().out
    assert "flight recorder: enabled" in text
    assert "0 unresolved parents" in text
    doc = json.loads(out.read_text())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and all(e["args"]["trace_id"] for e in spans)
    if target == "fig10":
        sweeps = [e for e in events if e["name"] == "autotune.sweep"]
        assert sweeps and all(e["ph"] == "i" for e in sweeps)
        span_ids = {e["args"]["span_id"] for e in spans}
        assert all(e["args"]["parent_id"] in span_ids for e in sweeps)


def test_flight_unknown_target(capsys):
    assert main(["flight", "--run", "fig99"]) == 2
    assert "fig99" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["fig7", "fig10"])
def test_metrics_export_stdout_and_file(target, tmp_path, capsys):
    from repro.obs import export

    assert main(["metrics-export", "--run", target]) == 0
    text = capsys.readouterr().out
    assert text.endswith("# EOF\n")
    export.validate(text)  # printed exposition is parseable as-is

    out = tmp_path / "metrics.txt"
    assert main(["metrics-export", "--run", target, "--out", str(out)]) == 0
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
