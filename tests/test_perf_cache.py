"""stable_hash and the persistent JSON-on-disk result cache.

The contract under test: keys are canonical (insertion order, hashability
and object identity never matter), the store is content-addressed under
``REPRO_CACHE_DIR``, and *nothing* that goes wrong on disk is allowed to
surface as anything worse than a cache miss.
"""

import dataclasses
import json

import pytest

from repro.gpu.tiling import TilingParams
from repro.perf.cache import (
    CACHE_DIR_ENV,
    NO_CACHE_ENV,
    PersistentCache,
    code_fingerprint,
    default_cache_root,
    stable_hash,
)
from repro.resilience.faults import fault_plan


@pytest.fixture(autouse=True)
def _no_faults():
    """These tests assert *exact* store mechanics (hand-made corruption,
    error counts, specimen files), so an env fault plan — e.g. CI's chaos
    job exporting REPRO_FAULTS over the whole suite — must be masked."""
    with fault_plan(None):
        yield


# ---------------------------------------------------------------------------
# stable_hash
# ---------------------------------------------------------------------------


def test_dict_insertion_order_is_invisible():
    a = {"tensor_core": True, "split_k": 2, "base_efficiency": 0.55}
    b = {"base_efficiency": 0.55, "tensor_core": True, "split_k": 2}
    assert stable_hash(a) == stable_hash(b)


def test_keys_tied_as_text_still_hash_order_free():
    # 1 and "1" both canonicalize to the key "1": their values break the tie
    a = {1: "int key", "1": ["str", "key"], "z": 0.5}
    b = {"z": 0.5, "1": ["str", "key"], 1: "int key"}
    assert stable_hash(a) == stable_hash(b)


def test_unhashable_and_none_values_are_fine():
    # the exact kwargs shapes that broke tuple(sorted(kwargs.items()))
    a = {"round_steps": None, "shape": [8, 8, 16], "flags": {"x", "y"}}
    b = {"flags": {"y", "x"}, "shape": [8, 8, 16], "round_steps": None}
    assert stable_hash(a) == stable_hash(b)
    assert stable_hash(a) != stable_hash({**a, "round_steps": 0})


def test_values_change_the_digest():
    assert stable_hash({"k": 1}) != stable_hash({"k": 2})
    assert stable_hash(1) != stable_hash(1.0)  # int and float are distinct
    assert stable_hash(0.1) != stable_hash(0.1 + 2e-17)  # exact, not rounded
    assert stable_hash(float("nan")) == stable_hash(float("nan"))


def test_dataclasses_hash_by_field_values():
    t1 = TilingParams(128, 128, 32, 16, 2, 2)
    t2 = TilingParams(128, 128, 32, 16, 2, 2)
    t3 = TilingParams(128, 64, 32, 16, 2, 2)
    assert stable_hash(t1) == stable_hash(t2)
    assert stable_hash(t1) != stable_hash(t3)


def test_nested_structures_round_trip():
    key = {"gemm": [3136, 576, 64], "kwargs": {"out_elem_bytes": 0.5},
           "code": "abc123"}
    assert stable_hash(key) == stable_hash(json.loads(json.dumps(key)))


def test_code_fingerprint_distinguishes_modules():
    from repro.perf import bench as bench_mod
    from repro.perf import cache as cache_mod

    fp = code_fingerprint([cache_mod])
    assert len(fp) == 16 and int(fp, 16) >= 0
    assert fp == code_fingerprint([cache_mod])
    assert fp != code_fingerprint([bench_mod])
    assert fp != code_fingerprint([cache_mod, bench_mod])


# ---------------------------------------------------------------------------
# PersistentCache
# ---------------------------------------------------------------------------


@pytest.fixture()
def store(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    return PersistentCache("test-ns")


def test_cache_root_follows_env(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    assert default_cache_root() == tmp_path
    store = PersistentCache("ns")
    assert store.directory() == tmp_path / "ns"
    # re-read per access: repointing the env moves the store
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "other"))
    assert store.directory() == tmp_path / "other" / "ns"


def test_put_get_roundtrip_and_stats(store):
    digest = stable_hash({"k": 1})
    assert store.get(digest) is None
    assert store.stats.misses == 1
    assert store.put(digest, {"value": [1.5, None, "x"]})
    assert store.get(digest) == {"value": [1.5, None, "x"]}
    assert store.stats.hits == 1 and store.stats.puts == 1
    assert len(store) == 1
    assert store.path_for(digest).is_file()


def test_cache_dir_isolation(tmp_path, monkeypatch):
    digest = stable_hash("shared-key")
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "a"))
    PersistentCache("ns").put(digest, {"v": 1})
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "b"))
    assert PersistentCache("ns").get(digest) is None  # other root: a miss


def test_truncated_json_is_a_miss_not_a_crash(store):
    digest = stable_hash("x")
    store.put(digest, {"v": 1})
    full = store.path_for(digest).read_text(encoding="utf-8")
    store.path_for(digest).write_text(full[: len(full) // 2], encoding="utf-8")
    assert store.get(digest) is None
    assert store.stats.errors == 1


def test_corruption_is_counted_and_warned_not_silent(store, caplog):
    """Degrading to a miss is fine; degrading *silently* is not: a corrupt
    entry must bump the ``cache_corrupt`` counter and emit a structured
    warning through the ``repro`` logging tree."""
    from repro.obs import metrics as obs_metrics

    obs_metrics.reset()
    digest = stable_hash("rotten")
    store.put(digest, {"v": 1})
    store.path_for(digest).write_text("{not json", encoding="utf-8")
    with caplog.at_level("WARNING", logger="repro.perf.cache"):
        assert store.get(digest) is None
    events = [r.getMessage() for r in caplog.records
              if r.name == "repro.perf.cache"]
    assert any(m.startswith("cache_corrupt")
               and "namespace=test-ns" in m for m in events)
    snap = obs_metrics.snapshot()
    assert snap["counters"]["cache_corrupt{namespace=test-ns}"] == 1
    assert snap["counters"][
        "cache_lookups{namespace=test-ns,outcome=miss}"] == 1
    obs_metrics.reset()


def test_corrupt_entry_quarantined_then_clean_miss(store):
    """Regression: a corrupt entry must be *moved* to ``.quarantine/``,
    not left in place — the second lookup is a plain FileNotFoundError
    miss (no re-parse, no second corruption warning) and the specimen
    survives for debugging."""
    from repro.resilience.atomic import quarantine_dir_for

    digest = stable_hash("quarantine-me")
    store.put(digest, {"v": 1})
    path = store.path_for(digest)
    path.write_text("{torn mid-write", encoding="utf-8")

    assert store.get(digest) is None
    assert not path.exists(), "corrupt entry must leave the namespace"
    qdir = quarantine_dir_for(path)
    specimens = list(qdir.iterdir())
    assert len(specimens) == 1
    assert specimens[0].read_text(encoding="utf-8") == "{torn mid-write"

    errors_after_first = store.stats.errors
    assert store.get(digest) is None  # clean miss now
    assert store.stats.errors == errors_after_first

    # repeated corruption of the same entry keeps every specimen
    path.write_text("{torn again", encoding="utf-8")
    assert store.get(digest) is None
    assert len(list(qdir.iterdir())) == 2

    # quarantined files are invisible to len()/clear() (namespace *.json)
    store.put(digest, {"v": 2})
    assert store.get(digest) == {"v": 2}


def test_non_dict_entry_is_a_miss(store):
    digest = stable_hash("y")
    store.path_for(digest).parent.mkdir(parents=True, exist_ok=True)
    store.path_for(digest).write_text("[1, 2, 3]", encoding="utf-8")
    assert store.get(digest) is None
    assert store.stats.errors == 1


def test_binary_garbage_entry_is_a_miss(store):
    digest = stable_hash("z")
    store.path_for(digest).parent.mkdir(parents=True, exist_ok=True)
    store.path_for(digest).write_bytes(b"\xff\xfe\x00garbage")
    assert store.get(digest) is None


def test_unwritable_root_degrades_to_disabled(tmp_path, monkeypatch):
    # point the root at a regular *file*: every mkdir/open fails with
    # OSError, which must surface as miss/False, never an exception
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied", encoding="utf-8")
    monkeypatch.setenv(CACHE_DIR_ENV, str(blocker))
    store = PersistentCache("ns")
    assert store.put("d" * 8, {"v": 1}) is False
    assert store.get("d" * 8) is None
    assert store.stats.errors >= 1
    assert len(store) == 0 and store.clear() == 0


def test_unserializable_value_fails_softly(store):
    assert store.put(stable_hash("obj"), {"v": object()}) is False
    assert store.stats.errors == 1


def test_no_cache_env_disables_everything(store, monkeypatch):
    monkeypatch.setenv(NO_CACHE_ENV, "1")
    digest = stable_hash("kill-switch")
    assert not store.enabled
    assert store.put(digest, {"v": 1}) is False
    assert store.get(digest) is None
    assert store.stats.lookups == 0  # disabled traffic isn't accounted


def test_clear_removes_entries(store):
    for i in range(3):
        store.put(stable_hash(i), {"v": i})
    assert len(store) == 3
    assert store.clear() == 3
    assert len(store) == 0


def test_namespace_validation():
    with pytest.raises(ValueError):
        PersistentCache("")
    with pytest.raises(ValueError):
        PersistentCache("a/b")


def test_namespaces_do_not_collide(store, tmp_path):
    other = PersistentCache("other-ns")
    digest = stable_hash("k")
    store.put(digest, {"v": "mine"})
    assert other.get(digest) is None
    other.put(digest, {"v": "theirs"})
    assert store.get(digest) == {"v": "mine"}


# ---------------------------------------------------------------------------
# ARM static-schedule memoization through the store
# ---------------------------------------------------------------------------


def test_arm_schedule_persistent_roundtrip(tmp_path, monkeypatch):
    from repro.arm.cost_model import (
        _schedule_cycles,
        clear_schedule_cache,
        schedule_store,
    )

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    clear_schedule_cache()
    sched = schedule_store()
    sched.reset_stats()
    try:
        cold = _schedule_cycles("smlal", 4, 64, True, None)
        assert sched.stats.puts >= 1

        clear_schedule_cache()  # drops the lru memo, keeps the disk store
        sched.reset_stats()
        warm = _schedule_cycles("smlal", 4, 64, True, None)
        assert warm == cold
        assert sched.stats.hits >= 1 and sched.stats.puts == 0
    finally:
        clear_schedule_cache()
        sched.reset_stats()
