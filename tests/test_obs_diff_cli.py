"""Differential profiling through the CLI: ``repro diff``.

These drive what a user runs — trace pairs from ``repro profile
--trace`` and from the end-to-end benchmark's traced mode,
collapsed-stack pairs with ``--flamegraph``, JSON purity on stdout, and
exit 2 with one stderr line naming the file for every unusable input.
"""

import json
import time
import xml.etree.ElementTree as ET

import pytest

from repro.cli import main
from repro.obs import metrics as obs_metrics
from repro.obs import sampler as obs_sampler


@pytest.fixture(autouse=True)
def _fresh_metrics():
    obs_metrics.reset()
    yield
    obs_metrics.reset()


# ---------------------------------------------------------------------------
# repro diff
# ---------------------------------------------------------------------------


def _one_error_line(capsys, *needles):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    for needle in needles:
        assert needle in captured.err
    return captured.err


def test_diff_selector_and_file_errors_exit_2(tmp_path, capsys, monkeypatch):
    """Every side is a file, ``-2`` and ``-1`` included; a side that is
    missing, malformed or of no known kind exits 2 with one stderr line
    naming it."""
    monkeypatch.chdir(tmp_path)
    assert main(["diff", "-2", "-1"]) == 2
    err = _one_error_line(capsys, "diff: -2: no such file")
    assert "ledger" not in err

    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"nope": 1}')
    assert main(["diff", str(bogus), str(bogus)]) == 2
    _one_error_line(capsys, "unrecognized", str(bogus))

    bad = tmp_path / "bad.txt"
    bad.write_text("main;hot count\n")
    assert main(["diff", str(bad), str(bad)]) == 2
    _one_error_line(capsys, f"diff: {bad}: ",
                    "invalid literal for int() with base 10: 'count'")

    good = tmp_path / "a.txt"
    good.write_text("main;hot 3\n")
    assert main(["diff", str(good), str(tmp_path / "nope.json")]) == 2
    _one_error_line(capsys, f"diff: {tmp_path / 'nope.json'}: no such file")


def test_diff_collapsed_pair_with_flamegraph(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("main;price;scalar 90\nmain;setup 10\n")
    b.write_text("main;price;vector 30\nmain;setup 12\n")
    svg_path = tmp_path / "d.svg"
    assert main(["diff", str(a), str(b), "--flamegraph", str(svg_path),
                 "--json"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)  # flamegraph notice must not pollute stdout
    frames = {f["frame"]: f for f in doc["frames"]}
    assert frames["scalar"]["self_b"] == 0 and frames["vector"]["self_a"] == 0
    ET.parse(svg_path)  # well-formed XML
    assert "differential flamegraph" in captured.err


def test_profile_pair_differential_flamegraph(tmp_path, monkeypatch, capsys):
    """Fig. 10 profiled twice over one fresh cache dir: the first run
    searches and writes every sweep, the second reads them back, so the
    collapsed-stack pair is known to differ."""
    from repro.gpu.autotune import clear_cache
    from repro.perf.cache import CACHE_DIR_ENV

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    cold, warm = tmp_path / "stacks_cold.txt", tmp_path / "stacks_warm.txt"
    flame, diff_flame = tmp_path / "flame.svg", tmp_path / "diff_flame.svg"
    clear_cache()
    assert main(["profile", "fig10", "--profile-sample", "2",
                 "--stacks", str(cold), "--flamegraph", str(flame)]) == 0
    clear_cache()  # the in-process memo only: the second run reads the disk
    assert main(["profile", "fig10", "--profile-sample", "2",
                 "--stacks", str(warm)]) == 0
    capsys.readouterr()
    assert main(["diff", str(cold), str(warm), "--flamegraph",
                 str(diff_flame), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 2
    assert doc["frames"], "frame deltas empty: both samples identical?"
    ET.parse(flame)
    ET.parse(diff_flame)


def test_diff_flamegraph_requires_stacks_on_both_sides(tmp_path, capsys):
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps({"traceEvents": [
        {"name": "s", "ph": "X", "dur": 5.0, "args": {}}]}))
    assert main(["diff", str(trace), str(trace),
                 "--flamegraph", str(tmp_path / "d.svg")]) == 2
    err = capsys.readouterr().err
    assert "stacks" in err.lower()
    assert not (tmp_path / "d.svg").exists()


def test_diff_ranks_an_injected_slowdown_first(tmp_path, monkeypatch, capsys):
    """Two traced ``profile fig13`` runs; the second sleeps 0.25 s inside
    the figure's span.  The diff must rank that span's path first, grown."""
    import repro.figures as figures

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["profile", "fig13", "--trace", str(a)]) == 0
    original = figures.model_space_report

    def slow(*args, **kwargs):
        time.sleep(0.25)
        return original(*args, **kwargs)

    monkeypatch.setattr(figures, "model_space_report", slow)
    assert main(["profile", "fig13", "--trace", str(b)]) == 0
    capsys.readouterr()
    assert main(["diff", str(a), str(b), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    top = doc["spans"][0]
    assert top["path"] == "profile;figure.fig13_space_overhead"
    assert top["d_self_us"] >= 0.2e6 and top["count_a"] == top["count_b"] == 1


def _e2e_trace(path, gpu_us):
    """A trace in the layout of ``benchmarks/e2e/run.py --trace 1``: one
    trace process per benchmark process (0 is ``run.py`` itself), string
    span ids ``<process>.<seq>`` in ``args``, and each worker's root span
    parented on the ``run.py`` span of the process that ran it."""
    def span(name, pid, sid, parent, dur):
        return {"name": name, "cat": "bench", "ph": "X", "ts": 0.0,
                "dur": dur, "pid": pid, "tid": 1,
                "args": {"span_id": sid, "parent_id": parent, "round": 0,
                         "self_us": 0.0}}

    events = [{"name": "process_name", "ph": "M", "pid": pid,
               "args": {"name": label}}
              for pid, label in ((0, "run.py"), (2, "kernels"),
                                 (3, "kernels"))]
    events += [
        span("workload", 0, "0.0", None, 20000.0 + gpu_us),
        span("iteration", 0, "0.1", "0.0", 9000.0 + gpu_us),
        span("process", 0, "0.2", "0.1", 8000.0 + gpu_us),
        span("round", 2, "2.0", "0.2", 5000.0 + gpu_us),
        span("execute_arm_conv", 2, "2.1", "2.0", 3000.0),
        span("conv2d_implicit_gemm", 2, "2.2", "2.0", 1000.0 + gpu_us),
        span("iteration", 0, "0.3", "0.0", 9000.0),
        span("process", 0, "0.4", "0.3", 8000.0),
        span("round", 3, "3.0", "0.4", 5000.0),
        span("execute_arm_conv", 3, "3.1", "3.0", 3000.0),
        span("conv2d_implicit_gemm", 3, "3.2", "3.0", 1000.0),
    ]
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
    return path


def test_diff_reads_e2e_traces_across_processes(tmp_path, capsys):
    a = _e2e_trace(tmp_path / "a.json", gpu_us=0.0)
    b = _e2e_trace(tmp_path / "b.json", gpu_us=5000.0)
    assert main(["diff", str(a), str(b), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a"]["kind"] == doc["b"]["kind"] == "trace"
    # a worker's spans hang under run.py's across processes, and the
    # two iterations' processes align into one path
    gemm = "workload;iteration;process;round;conv2d_implicit_gemm"
    top = doc["spans"][0]
    assert top["path"] == gemm and top["d_self_us"] == 5000.0
    assert top["count_a"] == top["count_b"] == 2
    assert all(d["path"].startswith("workload") for d in doc["spans"])
    assert all(d["d_self_us"] == 0.0 for d in doc["spans"][1:])


# ---------------------------------------------------------------------------
# stack export plumbing behind profile --stacks
# ---------------------------------------------------------------------------


def test_write_collapsed_round_trips(tmp_path):
    counts = {"main;hot": 7, "main;cold": 2}
    path = obs_sampler.write_collapsed(counts, tmp_path / "sub" / "s.txt")
    assert obs_sampler.parse_collapsed(path.read_text()) == counts


# ---------------------------------------------------------------------------
# dashboard: the differential flamegraph card
# ---------------------------------------------------------------------------


def test_html_report_renders_differential_flamegraph_card():
    from repro.obs.htmlreport import render_report

    html = render_report(
        model="resnet50", backends=("ref",),
        diff_sample=({"m;hot": 9, "m;idle": 1}, {"m;hot": 2, "m;idle": 8}))
    assert "Differential flamegraph" in html
    assert "http://" not in html and "https://" not in html
    assert "Differential flamegraph" not in render_report(
        model="resnet50", backends=("ref",))
