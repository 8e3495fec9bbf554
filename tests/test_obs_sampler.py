"""The wall-clock stack sampler: grid accounting, collapse format, SVG.

The contract under test: the sampler catches a busy workload without
touching its code, never silently skips grid ticks, exports the standard
collapsed-stack text format round-trippably, and renders to an SVG
flamegraph with deterministic layout.
"""

import time

import pytest

from repro.obs import diff, sampler


def _busy_beacon(done) -> int:
    """A distinctive frame for the sampler to catch: spins until
    ``done()``."""
    acc = 0
    while not done():
        acc += 1
    return acc


def test_sampler_catches_a_busy_function():
    """The beacon spins until the sampler has taken 10 samples, however
    long a loaded host makes that take, up to a 5 s deadline."""
    deadline = time.perf_counter() + 5.0
    with sampler.sampling(interval_s=0.002) as s:
        _busy_beacon(lambda: s.sample_count >= 10
                     or time.perf_counter() > deadline)
    counts = s.collapsed()
    assert s.sample_count >= 10, f"{s.sample_count} samples in 5 s"
    assert counts, "expected at least one collapsed stack"
    hits = [k for k in counts if "_busy_beacon" in k]
    assert hits, f"beacon frame not sampled; got {sorted(counts)[:5]}"
    # stacks are root-first: the beacon is the leaf, not the root
    assert all(not k.startswith("test_obs_sampler.py:_busy_beacon")
               for k in hits if ";" in k)


def test_interval_must_be_positive():
    for interval_s in (0, -0.001, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            sampler.StackSampler(interval_s=interval_s)


def test_double_start_rejected_and_stop_idempotent():
    s = sampler.StackSampler(interval_s=0.01).start()
    try:
        with pytest.raises(RuntimeError):
            s.start()
    finally:
        s.stop()
    s.stop()  # second stop is a no-op


def test_missed_ticks_are_counted_not_hidden():
    """Grid determinism: elapsed ticks = sampled + missed, never dropped
    silently.  A 1 µs interval is unmeetable, so misses must show up."""
    with sampler.sampling(interval_s=1e-6) as s:
        time.sleep(0.02)
    assert s.sample_count >= 1
    assert s.missed_ticks > 0


def test_summary_top_cap_is_reported():
    s = sampler.StackSampler(interval_s=0.01)
    s._counts = {f"root;f{i}": i + 1 for i in range(10)}
    s.sample_count = sum(s._counts.values())
    out = s.summary(top=3)
    assert out["distinct_stacks"] == 10
    assert out["stacks_exported"] == 3
    assert list(out["stacks"]) == ["root;f9", "root;f8", "root;f7"]
    assert out["interval_ms"] == 10.0


def test_collapsed_text_round_trips():
    counts = {"a;b;c": 5, "a;b": 2, "a;d e": 7}  # frame labels may hold spaces
    text = sampler.collapsed_text(counts)
    assert text.splitlines()[0] == "a;d e 7"  # heaviest first
    assert sampler.parse_collapsed(text) == counts


def test_parse_collapsed_merges_duplicates_and_rejects_garbage():
    assert sampler.parse_collapsed("a;b 1\na;b 2\n\n") == {"a;b": 3}
    with pytest.raises(ValueError):
        sampler.parse_collapsed("justoneword\n")


def test_flamegraph_svg_structure():
    counts = {"main;work;inner": 6, "main;work;other": 2, "main;idle": 2}
    svg = diff.flamegraph_svg(counts, width=800)
    assert svg.startswith("<svg")
    assert svg.count("<rect") >= 5  # main, work, idle, inner, other
    assert "main — 10 samples (100.0%)" in svg
    assert "inner — 6 samples (60.0%)" in svg
    # deterministic: same input, same bytes
    assert svg == diff.flamegraph_svg(counts, width=800)


def test_flamegraph_svg_empty():
    assert "no samples" in diff.flamegraph_svg({})
