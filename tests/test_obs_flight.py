"""The flight recorder: trace contexts, the bounded ring, telemetry.

The contract under test: contexts derive parent-linked children; the
ring is bounded, thread-safe and exports a Perfetto-loadable Chrome
trace; every recorded span tree resolves — no orphan parents — and a
real instrumented run (the ARM prewarm) exports OpenMetrics histograms
with span-id exemplars.
"""

import json
import threading

import pytest

from repro.obs import flight, trace


# ---------------------------------------------------------------------------
# Trace contexts
# ---------------------------------------------------------------------------


def test_new_trace_and_child_linkage():
    root = flight.new_trace()
    assert root.parent_id is None
    child = root.child()
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert child.span_id != root.span_id


def test_derive_without_parent_starts_fresh_trace():
    a = flight.derive(None)
    b = flight.derive(None)
    assert a.parent_id is None and b.parent_id is None
    assert a.trace_id != b.trace_id


def test_context_is_picklable():
    import pickle

    ctx = flight.new_trace().child()
    assert pickle.loads(pickle.dumps(ctx)) == ctx


def test_ids_are_unique_across_threads():
    ids, lock = set(), threading.Lock()

    def mint():
        local = [flight.new_trace().span_id for _ in range(200)]
        with lock:
            ids.update(local)

    threads = [threading.Thread(target=mint) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(ids) == 4 * 200


# ---------------------------------------------------------------------------
# The ring buffer
# ---------------------------------------------------------------------------


def _mk_event(name="e", kind="span", ts=0.0, dur=1.0, ctx=None):
    ctx = ctx or flight.new_trace()
    return flight.FlightEvent(
        kind=kind, name=name, cat="test", ts_us=ts, dur_us=dur,
        tid=threading.get_ident(), trace_id=ctx.trace_id,
        span_id=ctx.span_id, parent_id=ctx.parent_id)


def test_ring_bounds_and_drop_accounting():
    rec = flight.FlightRecorder(capacity=4)
    for i in range(10):
        rec.record(_mk_event(name=f"e{i}"))
    assert len(rec) == 4
    assert rec.total_recorded == 10
    assert rec.dropped == 6
    assert [e.name for e in rec.events()] == ["e6", "e7", "e8", "e9"]


def test_ring_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        flight.FlightRecorder(capacity=0)
    with pytest.raises(ValueError):
        flight.FlightRecorder(capacity=8).resize(-1)


def test_resize_keeps_newest():
    rec = flight.FlightRecorder(capacity=8)
    for i in range(6):
        rec.record(_mk_event(name=f"e{i}"))
    rec.resize(2)
    assert [e.name for e in rec.events()] == ["e4", "e5"]


def test_events_last_s_window():
    rec = flight.FlightRecorder(capacity=16)
    now = flight.monotonic_us()
    rec.record(_mk_event(name="old", ts=now - 60e6, dur=1.0))
    rec.record(_mk_event(name="new", ts=now - 0.01e6, dur=1.0))
    names = [e.name for e in rec.events(last_s=1.0)]
    assert names == ["new"]
    assert len(rec.events()) == 2  # the full ring is untouched


def test_concurrent_records_are_not_lost():
    rec = flight.FlightRecorder(capacity=10_000)

    def worker():
        for _ in range(500):
            rec.record(_mk_event())

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert rec.total_recorded == 2000
    assert len(rec) == 2000


# ---------------------------------------------------------------------------
# Enablement and capture
# ---------------------------------------------------------------------------


def test_enabled_by_default_and_suspended_restores():
    assert flight.enabled()
    with flight.suspended():
        assert not flight.enabled()
        flight.instant("ignored")  # must not raise, must not record
    assert flight.enabled()


def test_capture_clears_ring_and_restores_state():
    with flight.capture() as rec:
        assert flight.enabled()
        assert len(rec) == 0
        flight.instant("inside")
        assert len(rec) == 1
    assert flight.enabled()  # default state restored


def test_record_span_noop_while_disabled():
    with flight.capture() as rec:
        with flight.suspended():
            flight.record_span("s", "test", {}, 0.0, 1.0, flight.new_trace())
        assert len(rec) == 0


# ---------------------------------------------------------------------------
# Span capture via the trace layer
# ---------------------------------------------------------------------------


def test_nested_spans_form_a_resolvable_tree():
    with flight.capture() as rec:
        with trace.span("root", cat="test"):
            with trace.span("child", cat="test"):
                pass
            with trace.span("sibling", cat="test"):
                pass
    spans = flight.span_events(rec.events())
    by_name = {s.name: s for s in spans}
    assert set(by_name) == {"root", "child", "sibling"}
    root = by_name["root"]
    assert root.parent_id is None
    for name in ("child", "sibling"):
        assert by_name[name].trace_id == root.trace_id
        assert by_name[name].parent_id == root.span_id
    # children land before their parent (spans record at exit) and the
    # validator still resolves every link
    assert spans.index(by_name["child"]) < spans.index(root)
    assert flight.unresolved_parents(rec.events()) == []
    assert flight.trace_ids(rec.events()) == {root.trace_id}


def test_instants_attach_to_the_active_span():
    with flight.capture() as rec:
        with trace.span("op", cat="test"):
            flight.instant("marker", cat="test", k=1)
    events = rec.events()
    instant = next(e for e in events if e.kind == "instant")
    op = next(e for e in events if e.kind == "span")
    assert instant.trace_id == op.trace_id
    assert instant.parent_id == op.span_id
    assert instant.args == {"k": 1}
    assert flight.unresolved_parents(events) == []


def test_unresolved_parents_flags_evicted_parent():
    ctx = flight.new_trace()
    orphan = ctx.child()
    rec = flight.FlightRecorder(capacity=4)
    rec.record(_mk_event(name="child", ctx=orphan))
    assert [e.name for e in flight.unresolved_parents(rec.events())] == [
        "child"]


# ---------------------------------------------------------------------------
# A real instrumented run: the ARM prewarm under every telemetry sink
# ---------------------------------------------------------------------------


def test_arm_prewarm_telemetry(tmp_path, monkeypatch):
    """A serial ARM prewarm on an empty schedule cache, under the flight
    recorder, the tracer and the stack sampler: one parent-linked trace,
    a loadable dump, stack samples, and histograms with exemplars.  The
    tracer is needed: the scheduler records its histograms only while
    one is active."""
    from repro.arm.cost_model import clear_schedule_cache
    from repro.backends import get_backend
    from repro.models import get_model_layers
    from repro.obs import export, metrics, sampler

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_schedule_cache()
    metrics.reset()
    work = [(spec, bits, None)
            for spec in get_model_layers("resnet50")[:6]
            for bits in (2, 4, 8)]
    try:
        with flight.capture() as rec, trace.capture(), \
                sampler.sampling(interval_s=0.002) as s:
            get_backend("arm").prewarm(work)
        events = rec.events()
        spans = flight.span_events(events)
        prewarms = [e for e in spans if e.name == "backend.prewarm"]
        schedules = [e for e in spans if e.name == "arm.schedule"]
        assert prewarms and schedules
        assert flight.trace_ids(prewarms + schedules) == {prewarms[0].trace_id}
        assert flight.unresolved_parents(events) == []

        doc = json.loads(rec.write(tmp_path / "flight.json").read_text())
        assert doc["otherData"]["trace_epoch_wall_us"] > 0
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert s.sample_count > 0

        families = export.validate(export.render())
        assert any(f.type == "histogram" for f in families.values())
        assert export.exemplar_count(families) >= 1
    finally:
        clear_schedule_cache()
        metrics.reset()


# ---------------------------------------------------------------------------
# Chrome export
# ---------------------------------------------------------------------------


def test_chrome_trace_schema_and_write(tmp_path):
    with flight.capture() as rec:
        with trace.span("outer", cat="test", bits=4, obj=object()):
            flight.instant("ping", cat="test")
    doc = rec.chrome_trace(process_name="unit-test")
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["trace_epoch_wall_us"] > 0
    events = doc["traceEvents"]
    assert {e["ph"] for e in events} <= {"M", "X", "i"}
    meta = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "process_name"
               and e["args"]["name"] == "unit-test" for e in meta)
    span_ev = next(e for e in events if e["ph"] == "X")
    assert span_ev["args"]["bits"] == 4
    assert isinstance(span_ev["args"]["obj"], str)  # non-JSON args stringify
    assert span_ev["args"]["trace_id"] and span_ev["args"]["span_id"]
    inst = next(e for e in events if e["ph"] == "i")
    assert inst["s"] == "t"
    assert inst["args"]["parent_id"] == span_ev["args"]["span_id"]

    out = rec.write(tmp_path / "deep" / "flight.json")
    assert out.is_file()
    assert json.loads(out.read_text())["traceEvents"]


def test_fault_injection_emits_instant():
    from repro.resilience import faults

    with flight.capture() as rec:
        with faults.fault_plan("unit.site:raise:1.0:1", seed=7):
            with pytest.raises(faults.InjectedFault):
                faults.inject("unit.site", key="k0")
    instants = [e for e in rec.events() if e.kind == "instant"]
    assert [e.name for e in instants] == ["fault_injected"]
    assert instants[0].cat == "fault"
    assert instants[0].args["site"] == "unit.site"
    assert instants[0].args["kind"] == "raise"
