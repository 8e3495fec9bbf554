"""stable_hash and the persistent segment store.

The contract under test: keys are canonical (insertion order, hashability
and object identity never matter), the store is content-addressed under
``REPRO_CACHE_DIR`` with one JSONL segment file per batch, and *nothing*
that goes wrong on disk is allowed to surface as anything worse than a
cache miss.
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
    cache_mod, atomic_mod = "repro.perf.cache", "repro.resilience.atomic"

    fp = code_fingerprint([cache_mod])
    assert len(fp) == 16 and int(fp, 16) >= 0
    assert fp == code_fingerprint([cache_mod])
    assert fp != code_fingerprint([atomic_mod])
    assert fp != code_fingerprint([cache_mod, atomic_mod])


def test_code_fingerprint_hashes_what_getsource_returns():
    """Read from the files, without importing, the hashed text is what
    ``inspect.getsource`` returns for each module, packages included, so
    the fingerprints and the cache keys built on them stay put; a name
    outside the package contributes the name."""
    import hashlib
    import importlib
    import inspect

    names = ["repro.arm.kernels", "repro.gpu.tiling", "repro", "repro.util"]
    h = hashlib.sha256()
    for name in names:
        h.update(inspect.getsource(importlib.import_module(name)).encode())
        h.update(b"\0")
    assert code_fingerprint(names) == h.hexdigest()[:16]
    for name in ("json", "repro.no_such_module"):
        expected = hashlib.sha256(name.encode() + b"\0").hexdigest()[:16]
        assert code_fingerprint([name]) == expected


# ---------------------------------------------------------------------------
# PersistentCache
# ---------------------------------------------------------------------------


@pytest.fixture()
def store(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    return PersistentCache("test-ns")


def _segments(store):
    return sorted(store.directory().glob("seg-*.jsonl"))


def _write_segment(store, data: bytes):
    """A hand-made segment, as a crashed or buggy writer might leave it."""
    store.directory().mkdir(parents=True, exist_ok=True)
    path = store.directory() / "seg-handmade.jsonl"
    path.write_bytes(data)
    return path


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
    assert len(_segments(store)) == 1
    assert PersistentCache("test-ns").get(digest) == {"value": [1.5, None, "x"]}


def test_cache_dir_isolation(tmp_path, monkeypatch):
    digest = stable_hash("shared-key")
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "a"))
    PersistentCache("ns").put(digest, {"v": 1})
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "b"))
    assert PersistentCache("ns").get(digest) is None  # other root: a miss


def test_truncated_json_is_a_miss_not_a_crash(store):
    digest = stable_hash("x")
    store.put(digest, {"v": 1})
    [path] = _segments(store)
    full = path.read_text(encoding="utf-8")
    path.write_text(full[: len(full) // 2], encoding="utf-8")
    reader = PersistentCache("test-ns")  # a new process: reads the disk
    assert reader.get(digest) is None
    assert reader.stats.errors == 1


def test_corruption_is_counted_and_warned_not_silent(store, caplog):
    """Degrading to a miss is fine; degrading *silently* is not: a corrupt
    entry must bump the ``cache_corrupt`` counter and emit a structured
    warning through the ``repro`` logging tree."""
    from repro.obs import metrics as obs_metrics

    obs_metrics.reset()
    digest = stable_hash("rotten")
    store.put(digest, {"v": 1})
    [path] = _segments(store)
    path.write_text("{not json", encoding="utf-8")
    with caplog.at_level("WARNING", logger="repro.perf.cache"):
        assert PersistentCache("test-ns").get(digest) is None
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
    """Regression: a corrupt segment must be *moved* to ``.quarantine/``,
    not left in place — the second lookup is a plain miss (no re-parse,
    no second corruption warning) and the specimen survives for
    debugging."""
    from repro.resilience.atomic import quarantine_dir_for

    digest = stable_hash("quarantine-me")
    store.put(digest, {"v": 1})
    [path] = _segments(store)
    path.write_text("{torn mid-write", encoding="utf-8")

    reader = PersistentCache("test-ns")
    assert reader.get(digest) is None
    assert not path.exists(), "corrupt segment must leave the namespace"
    qdir = quarantine_dir_for(path)
    specimens = list(qdir.iterdir())
    assert len(specimens) == 1
    assert specimens[0].read_text(encoding="utf-8") == "{torn mid-write"

    errors_after_first = reader.stats.errors
    assert reader.get(digest) is None  # clean miss now
    assert reader.stats.errors == errors_after_first

    # repeated corruption of the same segment keeps every specimen
    path.write_text("{torn again", encoding="utf-8")
    assert reader.get(digest) is None
    assert len(list(qdir.iterdir())) == 2

    # quarantined files are invisible to len()/clear() (namespace seg-*)
    store.put(digest, {"v": 2})
    assert store.get(digest) == {"v": 2}
    fresh = PersistentCache("test-ns")
    assert fresh.get(digest) == {"v": 2} and len(fresh) == 1
    assert fresh.clear() == 1 and len(list(qdir.iterdir())) == 2


def test_non_dict_entry_is_a_miss(store):
    digest = stable_hash("y")
    _write_segment(store, f'["{digest}", [1, 2, 3]]\n'.encode())
    assert store.get(digest) is None
    assert store.stats.errors == 1


def test_binary_garbage_entry_is_a_miss(store):
    digest = stable_hash("z")
    _write_segment(store, b"\xff\xfe\x00garbage")
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


def test_clear_also_removes_old_layout_entries(store):
    from repro.resilience.atomic import quarantine_dir_for

    store.put(stable_hash("new"), {"v": 1})
    # an entry file of the one-file-per-entry layout, and a specimen
    (store.directory() / f"{stable_hash('old')}.json").write_text("{}")
    qdir = quarantine_dir_for(_segments(store)[0])
    qdir.mkdir()
    (qdir / "seg-specimen.jsonl").write_text("{torn")
    assert store.clear() == 2
    assert list(store.directory().iterdir()) == [qdir]
    assert len(list(qdir.iterdir())) == 1


def test_put_many_writes_one_segment_a_fresh_instance_reads(store):
    items = [(stable_hash(i), {"v": i, "sq": [i * i]}) for i in range(5)]
    assert store.put_many(items)
    assert store.stats.puts == 5
    [path] = list(store.directory().iterdir())
    assert path.name.startswith("seg-") and path.suffix == ".jsonl"
    reader = PersistentCache("test-ns")
    assert [reader.get(digest) for digest, _ in items] == [v for _, v in items]
    assert reader.stats.hits == 5 and len(reader) == 5
    # the same batch from another writer publishes the same file
    assert PersistentCache("test-ns").put_many(items)
    assert list(store.directory().iterdir()) == [path]


def test_segment_written_after_first_lookup_is_found_on_next_miss(store):
    first, later = stable_hash("first"), stable_hash("later")
    store.put(first, {"v": 1})
    reader = PersistentCache("test-ns")
    assert reader.get(first) == {"v": 1}  # the index is loaded here
    assert reader.get(later) is None
    # another process publishes a batch
    store.put_many([(later, {"v": 2}), (stable_hash("also"), {"v": 3})])
    assert reader.get(later) == {"v": 2}


@pytest.mark.parametrize("kind", ["raise", "garbage"])
def test_injected_read_fault_is_a_miss_that_moves_nothing(store, kind):
    from repro.obs import metrics as obs_metrics
    from repro.resilience.atomic import quarantine_dir_for

    digest = stable_hash("healthy")
    store.put(digest, {"v": 1})
    [path] = _segments(store)
    misses = obs_metrics.counter(
        "cache_lookups", namespace="test-ns", outcome="miss")
    before = misses.value
    with fault_plan(f"cache.get:{kind}:1:1"):
        assert store.get(digest) is None
        assert store.stats.errors == 1 and store.stats.misses == 1
        assert misses.value == before + 1
        assert path.exists() and not quarantine_dir_for(path).exists()
        assert store.get(digest) == {"v": 1}  # still indexed
    assert PersistentCache("test-ns").get(digest) == {"v": 1}


@pytest.mark.parametrize("kind", ["raise", "garbage"])
def test_get_many_counts_what_it_returns_under_faults(store, kind):
    """One call's ``stats`` and ``cache_lookups`` deltas are the hits,
    misses and errors of what it returned, whichever lookups fault."""
    from repro.obs import metrics as obs_metrics
    from repro.resilience.faults import FaultPlan

    stored = [(stable_hash(i), {"v": i}) for i in range(12)]
    store.put_many(stored)
    digests = [d for d, _ in stored] + [stable_hash(f"absent{i}") for i in range(6)]
    lookups = {outcome: obs_metrics.counter(
        "cache_lookups", namespace="test-ns", outcome=outcome)
        for outcome in ("hit", "miss")}
    before = {outcome: c.value for outcome, c in lookups.items()}
    plan = FaultPlan.from_spec(f"cache.get:{kind}:0.5:1", seed=7)
    store.reset_stats()
    with fault_plan(plan):
        values = store.get_many(digests)
    hits = sum(v is not None for v in values)
    lost = len(stored) - sum(v is not None for v in values[:len(stored)])
    # a raised lookup of an absent digest is an error too
    errors = (sum(plan.selects("cache.get", d) for d in digests)
              if kind == "raise" else lost)
    assert 0 < hits < len(stored) and errors >= lost > 0
    assert (store.stats.hits, store.stats.misses, store.stats.errors) == (
        hits, len(digests) - hits, errors)
    assert {outcome: c.value - before[outcome]
            for outcome, c in lookups.items()} == {
        "hit": hits, "miss": len(digests) - hits}


def test_get_many_resolves_the_fault_plan_once(store, monkeypatch):
    """A lookup batch asks for the active plan once, whatever its size,
    and the plan's faults still fire per digest."""
    from repro.resilience import faults as res_faults

    stored = [(stable_hash(i), {"v": i}) for i in range(12)]
    store.put_many(stored)
    calls = []
    active_plan = res_faults.active_plan
    monkeypatch.setattr(res_faults, "active_plan",
                        lambda: calls.append(1) or active_plan())
    digests = [d for d, _ in stored] + [stable_hash(f"absent{i}") for i in range(6)]
    reader = PersistentCache("test-ns")  # misses the index: lists once
    with fault_plan("cache.get:garbage:0.5:1", seed=7) as plan:
        values = reader.get_many(digests)
        assert len(calls) == 1
        store.get_many(digests[:3])  # answered from the index
        assert len(calls) == 2
    assert plan.total_injected() == sum(v is None for v in values[:len(stored)]) > 0


def test_put_many_writes_what_json_dumps_wrote(store):
    """A segment's bytes, and so its name, are the per-entry
    ``json.dumps(..., separators=(",", ":"))`` lines they always were."""
    import hashlib

    items = [(stable_hash(i), {"cycles": i / 7, "tiling": [16, 32, i],
                               "name": "caf\u00e9", "nested": {"ok": True, "none": None},
                               "big": 2.0**60 + i, "tiny": 1e-300 * i})
             for i in range(5)]
    assert store.put_many(items)
    [segment] = _segments(store)
    text = "".join(json.dumps([d, v], separators=(",", ":")) + "\n" for d, v in items)
    assert segment.read_bytes() == text.encode()
    assert segment.name == f"seg-{hashlib.sha256(text.encode()).hexdigest()}.jsonl"


def test_get_many_lists_the_directory_once(store, monkeypatch):
    items = [(stable_hash(i), {"v": i}) for i in range(3)]
    store.put_many(items)
    reader = PersistentCache("test-ns")
    listings = []
    refresh = PersistentCache._refresh
    monkeypatch.setattr(PersistentCache, "_refresh",
                        lambda self: listings.append(1) or refresh(self))
    absent = [stable_hash(f"absent{i}") for i in range(4)]
    digests = [absent[0], items[0][0], absent[1], items[2][0], *absent[2:]]
    assert reader.get_many(digests) == [None, {"v": 0}, None, {"v": 2},
                                        None, None]
    assert len(listings) == 1  # at the first miss, not at each of four
    assert reader.stats.hits == 2 and reader.stats.misses == 4
    assert reader.get(absent[0]) is None and len(listings) == 2


def test_unreadable_segment_is_counted_once_and_kept(store, monkeypatch):
    import errno

    from repro.resilience import atomic
    from repro.resilience.atomic import quarantine_dir_for

    digest = stable_hash("healthy")
    store.put(digest, {"v": 1})
    [path] = _segments(store)
    read_jsonl = atomic.read_jsonl

    def failing(path, accept=None):
        raise OSError(errno.EIO, "injected read error")

    monkeypatch.setattr(atomic, "read_jsonl", failing)
    reader = PersistentCache("test-ns")
    assert reader.get(digest) is None
    assert reader.get(stable_hash("other")) is None
    assert reader.stats.errors == 1 and reader.stats.misses == 2
    assert path.exists() and not quarantine_dir_for(path).exists()
    monkeypatch.setattr(atomic, "read_jsonl", read_jsonl)
    assert PersistentCache("test-ns").get(digest) == {"v": 1}


def test_corrupt_segment_that_cannot_move_is_counted_once(store, monkeypatch):
    from repro.resilience import atomic

    monkeypatch.setattr(atomic, "quarantine_file", lambda path, reason: None)
    path = _write_segment(store, b"{torn")
    assert store.get(stable_hash("a")) is None
    assert store.get(stable_hash("b")) is None
    assert store.stats.errors == 1 and store.stats.misses == 2
    assert path.exists()


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

        clear_schedule_cache()  # drops the memo and index, keeps the disk
        sched.reset_stats()
        warm = _schedule_cycles("smlal", 4, 64, True, None)
        assert warm == cold
        assert sched.stats.hits >= 1 and sched.stats.puts == 0
    finally:
        clear_schedule_cache()
        sched.reset_stats()


def _imported_modules(module):
    """The ``repro`` modules ``module`` imports at its top level."""
    import ast
    import importlib.util
    import inspect

    def is_module(name):
        try:
            return importlib.util.find_spec(name) is not None
        except ModuleNotFoundError:  # an attribute of a module, not a submodule
            return False

    package = module.__name__ if hasattr(module, "__path__") else module.__package__
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
            for alias in node.names:
                name = f"{base}.{alias.name}"
                yield name if is_module(name) else base
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def test_schedule_fingerprint_covers_what_a_schedule_depends_on():
    """Editing any module the generators, the drain ratios or the scheduler
    import (errors and the obs/perf plumbing aside), or the cost model's
    own ``_generate``, must invalidate the stored ARM schedules."""
    import importlib

    from repro.arm import cost_model

    todo = ["repro.arm.kernels.smlal_scheme", "repro.arm.kernels.mla_scheme",
            "repro.arm.kernels.ncnn_like", "repro.arm.kernels.sdot_scheme",
            "repro.arm.kernels.popcount_scheme", "repro.arm.ratios", "repro.arm.pipeline"]
    needed = {"repro.arm.cost_model"}
    while todo:
        name = todo.pop()
        if (name in needed or not name.startswith("repro.") or name == "repro.errors"
                or name.startswith(("repro.obs", "repro.perf"))):
            continue
        needed.add(name)
        todo.extend(_imported_modules(importlib.import_module(name)))
    assert {"repro.arm.ratios", "repro.quant.ranges", "repro.arm.loops"} <= needed
    assert needed <= set(cost_model._fingerprinted())


def test_autotune_fingerprint_covers_what_a_result_depends_on():
    """Editing any module the GPU cost model or the search space imports
    (errors and the obs/perf plumbing aside), or the search itself, must
    invalidate the stored autotune results."""
    import importlib

    autotune = importlib.import_module("repro.gpu.autotune")
    todo = ["repro.gpu.pipelinemodel", "repro.gpu.tiling"]
    needed = {"repro.gpu.autotune"}
    while todo:
        name = todo.pop()
        if (name in needed or not name.startswith("repro.") or name == "repro.errors"
                or name.startswith(("repro.obs", "repro.perf"))):
            continue
        needed.add(name)
        todo.extend(_imported_modules(importlib.import_module(name)))
    assert {"repro.types", "repro.gpu.device", "repro.gpu.mma"} <= needed
    assert needed <= set(autotune._fingerprinted())
