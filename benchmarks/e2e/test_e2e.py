"""Self-test of the end-to-end benchmark, at ``--smoke`` size.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import run as bench

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: benchmarks/out/ file of each pinned artifact
TRACKED = {
    "fig7": "fig7_resnet50", "fig8": "fig8", "fig9": "fig9", "fig10": "fig10_resnet50_b1",
    "fig11": "fig11_b1", "fig12": "fig12_b1", "fig13": "fig13", "fig14": "fig7_densenet121",
    "fig15": "fig7_scr-resnet50", "fig16": "fig10_scr-resnet50_b1",
    "fig17": "fig10_densenet121_b1", "fig10-b16": "fig10_resnet50_b16", "tab1": "tab1",
}


def smoke(tmp: pathlib.Path, *argv: str):
    """One ``run.py --smoke --workload all`` run: (exit code, last line, results)."""
    out = tmp / "results.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1",
         "--out", str(out), *argv],
        capture_output=True, text=True, timeout=170, check=False)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1]), json.loads(out.read_text())


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    code, line, results = smoke(tmp, "--trace", "1", "--trace-dir", str(tmp))
    return tmp, code, line, results


def test_benchmark_json_names_what_run_py_emits(benchmark_json):
    e2e = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert e2e == bench.END_TO_END
    assert layers == bench.PER_LAYER
    assert [w["name"] for w in benchmark_json["workloads"]] == list(bench.WORKLOADS)
    assert len(layers) <= 128
    assert all(NAME.match(n) for n in [*e2e, *layers, *bench.WORKLOADS])
    assert max(m["bound"] for m in benchmark_json["end_to_end"]) == next(
        m["bound"] for m in benchmark_json["end_to_end"] if m["name"] == "setup_s")


def test_every_metric_is_emitted_with_its_unit(traced):
    _, code, line, results = traced
    assert code == 0 and line["correct"] and line["failed"] == 0
    for wl in bench.WORKLOADS:
        doc = results["workloads"][wl]
        assert doc["failed_frac"] == 0.0
        assert set(doc["end_to_end"]) == set(bench.END_TO_END)
        assert set(doc["per_layer"]) == set(bench.PER_LAYER)
        assert all(v > 0 for v in doc["end_to_end"].values()), doc["end_to_end"]
        for name, unit in bench.PER_LAYER.items():
            assert line["metrics"][f"{wl}.{name}"]["unit"] == unit
    assert results["units"] == {"end_to_end": bench.END_TO_END, "per_layer": bench.PER_LAYER}


def test_trace_parents_resolve_and_self_time_fits(traced):
    tmp = traced[0]
    for wl in bench.WORKLOADS:
        trace_dir = tmp / f"trace-{wl}-seed0"
        events = [e for e in json.loads((trace_dir / "trace.json").read_text())["traceEvents"]
                  if e["ph"] == "X"]
        ids = {e["args"]["span_id"] for e in events}
        assert events and ids
        assert all(e["args"]["parent_id"] in ids for e in events
                   if e["args"]["parent_id"] is not None)
        assert all(0 <= e["args"]["self_us"] <= e["dur"] for e in events)
        layers = json.loads((trace_dir / "layer_metrics.json").read_text())
        assert layers["unresolved_parents"] == 0
        assert all(row["self_s"] <= row["total_s"] + 1e-9 for row in layers["spans"].values())


def test_corrupted_pins_count_as_failed_ops(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    expected["figures"]["fig9"] = "0" * 64
    expected["serve"]["steady/2000/seed0"] = "0" * 64
    corrupt = tmp_path / "expected.json"
    corrupt.write_text(json.dumps(expected))
    code, line, results = smoke(tmp_path, "--expected", str(corrupt))
    assert code == 1 and not line["correct"]
    assert set(line["metrics"]) == {f"{wl}.{m}" for wl in bench.WORKLOADS
                                    for m in bench.END_TO_END}
    docs = results["workloads"]
    assert docs["reproduce"]["failed_frac"] > 0 and docs["serve"]["failed_frac"] > 0
    assert docs["price_sweep"]["failed"] == 0 and docs["kernels"]["failed"] == 0


def test_pinned_figures_are_the_tracked_tables():
    expected = json.loads((HERE / "expected.json").read_text())["figures"]
    assert set(expected) == set(TRACKED) == set(bench.ARTIFACTS)
    for name, stem in TRACKED.items():
        path = ROOT / "benchmarks" / "out" / f"{stem}.txt"
        if path.is_file():
            assert hashlib.sha256(path.read_bytes()).hexdigest() == expected[name], name


def test_fails_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and this benchmark exits
    non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
