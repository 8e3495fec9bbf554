"""Differential profiling through the CLI: ``repro diff`` and
``repro regress --attribute/--json``.

These drive the same paths CI gates on — selector resolution against a
real on-disk ledger, collapsed-stack pairs with ``--flamegraph``, JSON
purity on stdout, and the exit-code contract (0 clean / 1 regression /
2 unusable input) with attribution riding along on failure.
"""

import json
import xml.etree.ElementTree as ET

import pytest

from repro.cli import main
from repro.obs import metrics as obs_metrics
from repro.obs import sampler as obs_sampler
from repro.obs.history import BenchLedger


@pytest.fixture(autouse=True)
def _fresh_metrics():
    obs_metrics.reset()
    yield
    obs_metrics.reset()


def _entry(run_id, *, cold=0.030, sha=None, counters=None):
    return {
        "schema": 3, "run_id": run_id, "git_sha": sha or f"{run_id}00cafe",
        "fingerprint": "fp0", "kind": "smoke", "model": "resnet50",
        "batch": 1, "jobs": 1, "backends": ["gpu"],
        "model_cycles": {"gpu_4bit": 1000},
        "figures": {"fig10": {"ours 8-bit": [1.0, 2.0]}},
        "wall_seconds": {"gpu_serial": 0.100, "gpu_cold": cold,
                         "gpu_warm": 0.001},
        "metrics": {"schema": 1, "counters": counters or {},
                    "gauges": {}, "histograms": {}},
    }


def _ledger(tmp_path, entries):
    led = BenchLedger(tmp_path / "hist")
    for e in entries:
        led.append(e)
    return tmp_path / "hist"


# ---------------------------------------------------------------------------
# repro diff
# ---------------------------------------------------------------------------


def test_diff_ledger_pair_text_and_json(tmp_path, capsys):
    hist = _ledger(tmp_path, [
        _entry("r0", counters={"pricing.vector": 5}),
        _entry("r1", cold=0.013, counters={"pricing.vector": 40}),
    ])
    assert main(["diff", "-2", "-1", "--history-dir", str(hist)]) == 0
    out = capsys.readouterr().out
    assert "r0" in out and "r1" in out and "gpu_cold" in out

    assert main(["diff", "-2", "-1", "--history-dir", str(hist),
                 "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)  # stdout is pure JSON
    assert doc["schema"] == 1
    assert doc["phases"][0]["phase"] == "gpu_cold"
    assert any(c["key"] == "pricing.vector" for c in doc["counters"])


def test_diff_selector_and_file_errors_exit_2(tmp_path, capsys):
    hist = _ledger(tmp_path, [_entry("r0")])
    assert main(["diff", "-2", "-1", "--history-dir", str(hist)]) == 2
    err = capsys.readouterr().err
    assert "only 1 entries" in err and "Traceback" not in err

    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"nope": 1}')
    assert main(["diff", str(bogus), str(bogus)]) == 2
    assert "unrecognized" in capsys.readouterr().err


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
    assert doc["schema"] == 1
    assert doc["frames"], "frame deltas empty: both samples identical?"
    ET.parse(flame)
    ET.parse(diff_flame)


def test_diff_flamegraph_requires_stacks_on_both_sides(tmp_path, capsys):
    hist = _ledger(tmp_path, [_entry("r0"), _entry("r1")])
    assert main(["diff", "-2", "-1", "--history-dir", str(hist),
                 "--flamegraph", str(tmp_path / "d.svg")]) == 2
    err = capsys.readouterr().err
    assert "stacks" in err.lower()


# ---------------------------------------------------------------------------
# repro regress --json / --attribute
# ---------------------------------------------------------------------------


def test_regress_json_clean_run(tmp_path, capsys):
    hist = _ledger(tmp_path, [_entry(f"r{i}") for i in range(4)])
    rc = main(["regress", "--history-dir", str(hist), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["exit_code"] == 0
    assert doc["exit_codes"]["1"] == "regression"
    assert not doc["regressed"]


def test_regress_json_exit_2_on_unusable_ledger(tmp_path, capsys):
    rc = main(["regress", "--history-dir", str(tmp_path / "none"), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2 and doc["exit_code"] == 2 and doc["error"]


def test_regress_attribute_on_regression(tmp_path, capsys):
    entries = [_entry(f"r{i}", counters={"x": 10}) for i in range(5)]
    entries.append(_entry("slow", cold=0.090, counters={"x": 40}))
    hist = _ledger(tmp_path, entries)
    rc = main(["regress", "--history-dir", str(hist),
               "--attribute", "--no-collect", "--json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert rc == 1 and doc["exit_code"] == 1 and doc["regressed"]
    attrib = doc["attribution"]
    assert attrib["phases"][0]["phase"] == "gpu_cold"
    assert attrib["phases"][0]["ratio"] == 3.0
    assert attrib["changepoints"][0]["run_id"] == "slow"
    assert any(c["key"] == "x" for c in attrib["counters"])
    # --no-collect keeps attribution deterministic: byte-identical rerun
    main(["regress", "--history-dir", str(hist),
          "--attribute", "--no-collect", "--json"])
    assert capsys.readouterr().out == out


def test_regress_attribute_text_table(tmp_path, capsys):
    entries = [_entry(f"r{i}") for i in range(5)]
    entries.append(_entry("slow", cold=0.090))
    hist = _ledger(tmp_path, entries)
    rc = main(["regress", "--history-dir", str(hist),
               "--attribute", "--no-collect"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "attribution" in out and "gpu_cold" in out
    assert "changepoint" in out and "slow" in out


# ---------------------------------------------------------------------------
# stack export plumbing shared by bench/profile --stacks
# ---------------------------------------------------------------------------


def test_write_collapsed_round_trips(tmp_path):
    counts = {"main;hot": 7, "main;cold": 2}
    path = obs_sampler.write_collapsed(counts, tmp_path / "sub" / "s.txt")
    assert obs_sampler.parse_collapsed(path.read_text()) == counts


# ---------------------------------------------------------------------------
# dashboard: attribution card from the ledger + diff flamegraph
# ---------------------------------------------------------------------------


def test_html_report_renders_attribution_card(tmp_path):
    from repro.obs.htmlreport import render_report

    hist = _ledger(tmp_path, [
        _entry("r0"), _entry("r1", cold=0.013)])
    html = render_report(
        model="resnet50", backends=("ref",), history_dir=hist,
        diff_sample=({"m;hot": 9, "m;idle": 1}, {"m;hot": 2, "m;idle": 8}))
    assert "Attribution" in html
    assert "gpu_cold" in html
    assert "Differential flamegraph" in html
    assert "http://" not in html and "https://" not in html
