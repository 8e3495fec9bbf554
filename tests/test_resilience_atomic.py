"""Crash-safe persistence primitives and the quarantine."""

import json

import pytest

from repro.resilience.atomic import (
    atomic_write_json,
    atomic_write_text,
    quarantine_dir_for,
    quarantine_file,
)
from repro.resilience.faults import InjectedFault, fault_plan, install_plan


@pytest.fixture(autouse=True)
def _no_plan():
    install_plan(None)
    yield
    install_plan(None)


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


def test_atomic_write_publishes_and_cleans_up(tmp_path):
    path = tmp_path / "out.json"
    atomic_write_json(path, {"v": 1}, indent=2)
    assert json.loads(path.read_text()) == {"v": 1}
    assert list(tmp_path.iterdir()) == [path]  # no stranded temp files


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "long old content " * 100)
    atomic_write_text(path, "short")
    assert path.read_text() == "short"


def test_crash_before_write_leaves_old_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "old", site="w")
    with fault_plan("w:raise"):
        with pytest.raises(InjectedFault):
            atomic_write_text(path, "new", site="w")
    assert path.read_text() == "old"
    assert list(tmp_path.iterdir()) == [path]


def test_crash_in_tmp_window_leaves_old_file_no_temp(tmp_path):
    """The kill -9 window between temp-write and rename: destination
    untouched, temp file cleaned up."""
    path = tmp_path / "out.txt"
    atomic_write_text(path, "old", site="w")
    with fault_plan("w.tmp:raise"):
        with pytest.raises(InjectedFault):
            atomic_write_text(path, "new", site="w")
    assert path.read_text() == "old"
    assert list(tmp_path.iterdir()) == [path]


def test_corrupt_rule_corrupts_the_published_payload(tmp_path):
    path = tmp_path / "out.json"
    with fault_plan("w:corrupt:1:1:6", seed=9):
        atomic_write_json(path, {"value": [1, 2, 3]}, site="w")
    with pytest.raises(ValueError):
        json.loads(path.read_text())  # reader-side recovery's problem


# ---------------------------------------------------------------------------
# Quarantine moves
# ---------------------------------------------------------------------------


def test_quarantine_file_moves_and_never_raises(tmp_path):
    victim = tmp_path / "bad.json"
    victim.write_text("{")
    target = quarantine_file(victim, reason="test")
    assert target is not None and target.read_text() == "{"
    assert not victim.exists()
    # quarantining a missing file degrades to None, no exception
    assert quarantine_file(tmp_path / "ghost.json", reason="test") is None


def test_quarantine_collision_gets_serial_suffix(tmp_path):
    for content in ("one", "two"):
        victim = tmp_path / "same.json"
        victim.write_text(content)
        quarantine_file(victim, reason="test")
    qdir = quarantine_dir_for(tmp_path / "same.json")
    assert sorted(p.name for p in qdir.iterdir()) == [
        "same.json", "same.json.1"]
