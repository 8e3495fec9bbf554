"""The perf-regression sentinel over the bench ledger.

The acceptance contract: ``run_regress`` exits 0 when back-to-back
entries are identical, non-zero when the deterministic cycle block
drifts, and treats wall-clock noise through the median threshold rather
than bit-wise.
"""

import json

import pytest

from repro.obs.history import BenchLedger
from repro.obs.regress import compare_entries, run_regress


def _entry(run_id, *, cycles=1000, wall=1.0, fingerprint="fp0",
           series=(1.0, 2.0, 3.0)):
    return {
        "schema": 3,
        "run_id": run_id,
        "timestamp": run_id,
        "git_sha": "deadbeef",
        "fingerprint": fingerprint,
        "kind": "smoke",
        "model": "resnet50",
        "batch": 1,
        "jobs": 2,
        "backends": ["gpu"],
        "model_cycles": {"gpu_8bit": cycles, "gpu_4bit": cycles // 2},
        "figures": {"fig10": {"ours 8-bit": list(series)}},
        "wall_seconds": {"gpu_cold": wall, "gpu_warm": wall / 10},
        "metrics": {},
    }


def _write(tmp_path, entries):
    ledger = BenchLedger(tmp_path)
    for e in entries:
        ledger.append(e)
    return ledger


def test_identical_runs_exit_zero(tmp_path, capsys):
    _write(tmp_path, [_entry("r1"), _entry("r2")])
    assert run_regress(history_dir=tmp_path, echo=lambda s: None) == 0


def test_perturbed_cycles_exit_nonzero(tmp_path):
    _write(tmp_path, [_entry("r1"), _entry("r2", cycles=1001)])
    lines = []
    assert run_regress(history_dir=tmp_path, echo=lines.append) == 1
    text = "\n".join(lines)
    assert "MISMATCH" in text and "REGRESSION" in text
    assert "gpu_8bit" in text  # names the first diverging key


def test_perturbed_series_exit_nonzero(tmp_path):
    _write(tmp_path, [_entry("r1"), _entry("r2", series=(1.0, 2.0, 3.5))])
    assert run_regress(history_dir=tmp_path, echo=lambda s: None) == 1


def test_wall_overrun_fails_and_no_wall_demotes(tmp_path):
    entries = [_entry(f"r{i}") for i in range(4)]
    entries.append(_entry("slow", wall=10.0))  # 10x the median
    _write(tmp_path, entries)
    assert run_regress(history_dir=tmp_path, echo=lambda s: None) == 1
    lines = []
    assert run_regress(history_dir=tmp_path, check_wall=False,
                       echo=lines.append) == 0
    assert any("wall gpu_cold" in ln and "WARN" in ln for ln in lines)


def test_wall_threshold_widens_with_observed_spread(tmp_path):
    """A noisy phase earns a wider band: +67% over the median passes when
    the prior runs themselves swing that much (IQR spread 75% > the flat
    50% tolerance), though it would fail the flat band."""
    walls = (1.0, 2.0, 1.1, 2.1, 1.2)
    entries = [_entry(f"r{i}", wall=w) for i, w in enumerate(walls)]
    entries.append(_entry("cand", wall=2.0))
    _write(tmp_path, entries)
    assert run_regress(history_dir=tmp_path, echo=lambda s: None) == 0


def test_wall_floor_ignores_millisecond_jitter(tmp_path):
    """A 1 ms phase that doubles is inside the 5 ms floor; a 100 ms phase
    that doubles is still a regression."""
    fast = tmp_path / "fast"
    _write(fast, [_entry(f"r{i}", wall=0.001) for i in range(4)]
           + [_entry("cand", wall=0.002)])
    assert run_regress(history_dir=fast, echo=lambda s: None) == 0
    slow = tmp_path / "slow"
    _write(slow, [_entry(f"r{i}", wall=0.1) for i in range(4)]
           + [_entry("cand", wall=0.2)])
    assert run_regress(history_dir=slow, echo=lambda s: None) == 1


def test_short_ledger_is_unusable(tmp_path):
    _write(tmp_path, [_entry("only")])
    assert run_regress(history_dir=tmp_path, echo=lambda s: None) == 2


def test_no_comparable_baseline_is_unusable(tmp_path):
    other = _entry("r1")
    other["model"] = "densenet121"
    _write(tmp_path, [other, _entry("r2")])
    assert run_regress(history_dir=tmp_path, echo=lambda s: None) == 2


def test_baseline_selector_by_run_id_and_sha(tmp_path):
    a = _entry("2026-01-01T00:00:00-aaa")
    a["git_sha"] = "aaa111"
    b = _entry("2026-01-02T00:00:00-bbb", cycles=2000)
    b["git_sha"] = "bbb222"
    cand = _entry("2026-01-03T00:00:00-ccc", cycles=2000)
    _write(tmp_path, [a, b, cand])
    # vs b (same cycles): clean; vs a (different cycles): regression
    assert run_regress(history_dir=tmp_path, baseline="bbb222",
                       echo=lambda s: None) == 0
    assert run_regress(history_dir=tmp_path, baseline="2026-01-01",
                       echo=lambda s: None) == 1
    assert run_regress(history_dir=tmp_path, baseline="zzz",
                       echo=lambda s: None) == 2


def test_default_baseline_prefers_same_fingerprint(tmp_path):
    """Cross-machine entries must not become the comparison point when a
    same-fingerprint run exists."""
    other_machine = _entry("r1", cycles=9999, fingerprint="fpX")
    same_machine = _entry("r2")
    cand = _entry("r3")
    _write(tmp_path, [other_machine, same_machine, cand])
    assert run_regress(history_dir=tmp_path, echo=lambda s: None) == 0


def test_fingerprint_change_is_warning_not_regression():
    base = _entry("r1")
    cand = _entry("r2", fingerprint="fp-new")
    report = compare_entries(base, cand)
    prov = [v for v in report.verdicts if v.kind == "provenance"]
    assert len(prov) == 1 and not prov[0].ok and not prov[0].regression
    assert not report.regressed


def test_corrupt_ledger_lines_are_skipped(tmp_path):
    ledger = _write(tmp_path, [_entry("r1")])
    with open(ledger.path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
        fh.write(json.dumps(_entry("r2")) + "\n")
    assert len(ledger.entries()) == 2
    assert run_regress(history_dir=tmp_path, echo=lambda s: None) == 0
