"""Command-line interface."""

import argparse
import pathlib
import re
import shlex

import pytest

from repro import cli
from repro.backends import available_backends
from repro.cli import build_parser, main


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
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "nope" in captured.err and "Traceback" not in captured.err
    assert all(name in captured.err for name in available_backends())


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


def test_bad_command():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def _readme_commands() -> list[list[str]]:
    """The argv of every ``python -m repro ...`` command in README.md's
    fenced blocks, each cut at a comment, a ``&&`` or a closing backtick."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```",
                        readme.read_text(encoding="utf-8"), flags=re.S | re.M)
    return [shlex.split(re.split(r" #|&&|`|\n", tail, maxsplit=1)[0])
            for block in blocks
            for tail in block.split("python -m repro")[1:]]


def test_readme_commands_parse(capsys):
    """Every README example parses against the current CLI.  Parsing
    only: nothing runs, so a stale command or flag is all this finds."""
    commands = _readme_commands()
    assert len(commands) >= 20  # the extraction still finds the examples
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: python -m repro "
                        f"{shlex.join(argv)}\n{capsys.readouterr().err}")


def test_module_docstring_lists_every_subcommand():
    """The ``Commands`` list in ``repro.cli``'s docstring names exactly
    the subcommands the parser registers, in the same order."""
    documented = re.findall(r"^``([a-z][\w-]*)", cli.__doc__, flags=re.M)
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert documented == list(subparsers.choices)


def test_flight_is_an_unknown_command(capsys):
    for command in ("flight", "metrics-export", "report"):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_profile_sample_flag_and_flamegraph(tmp_path, capsys):
    fg = tmp_path / "fg.svg"
    assert main(["profile", "fig7", "--profile-sample", "1",
                 "--flamegraph", str(fg)]) == 0
    out = capsys.readouterr().out
    assert "sampler:" in out and "missed ticks" in out
    assert fg.read_text().startswith("<svg")
