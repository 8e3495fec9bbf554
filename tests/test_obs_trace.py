"""Span recording: capture-only, nesting, threads, Chrome export.

The contract under test: outside ``capture()`` nothing is recorded and
every instrumented path is a no-op (cheap enough to leave compiled in);
under ``capture()`` spans nest, record their thread, and export as a
Perfetto-loadable Chrome ``trace_event`` JSON object, and the markers
and the serving simulator's hand-built spans reach it too.
"""

import json
import threading
import time

import pytest

from repro.obs import trace

from .trace_tree import unresolved_parents


def test_disabled_by_default():
    assert trace.active() is False
    # the null span is shared and stateless — the zero-cost path
    s1 = trace.span("anything", bits=4)
    s2 = trace.span("else")
    assert s1 is s2
    with s1:
        pass  # records nowhere, raises nothing
    trace.instant("marker")  # also a no-op


def _small_graph():
    from repro.runtime.graph import conv_pipeline
    from repro.types import ConvSpec

    spec = ConvSpec("t", in_channels=8, out_channels=8, height=8, width=8,
                    kernel=(3, 3), padding=(1, 1))
    return conv_pipeline(spec, 4)


def test_default_process_records_nothing(monkeypatch):
    """With no capture open, a chaos serve replay, a graph estimate and
    an injected fault reach no recorder at all."""
    from repro.resilience import faults
    from repro.runtime.executor import estimate_graph_cycles
    from repro.serve import ServeConfig, run_harness

    calls = []
    monkeypatch.setattr(trace.Recorder, "record",
                        lambda self, event: calls.append(event.name))
    assert not trace.active()
    run_harness(ServeConfig(qps=2000, requests=1000, seed=7), chaos=True)
    assert calls == [], f"serve replay recorded {len(calls)} events"
    estimate_graph_cycles(_small_graph(), "ref")
    assert calls == [], f"graph estimate recorded {calls}"
    with faults.fault_plan("unit.site:raise:1.0:1", seed=7):
        with pytest.raises(faults.InjectedFault):
            faults.inject("unit.site", key="k0")
    assert calls == [], f"fault injection recorded {calls}"


def test_instrumented_paths_add_no_spans_when_disabled():
    from repro.runtime.executor import estimate_graph_cycles

    graph = _small_graph()
    assert not trace.active()
    report = estimate_graph_cycles(graph, "ref")
    assert report.total_cycles > 0
    assert not trace.active()  # nothing got installed behind our back
    # the same call under a capture *does* produce spans
    with trace.capture() as rec:
        estimate_graph_cycles(graph, "ref")
    assert any(r.name == "executor.prewarm" for r in rec.spans())


def test_capture_records_nested_spans():
    with trace.capture() as rec:
        with trace.span("outer", cat="test", layer="conv1"):
            with trace.span("inner", cat="test"):
                time.sleep(0.001)
    assert trace.active() is False  # restored on exit
    by_name = {r.name: r for r in rec.spans()}
    assert set(by_name) == {"outer", "inner"}
    outer, inner = by_name["outer"], by_name["inner"]
    assert outer.args == {"layer": "conv1"}
    # nesting is time containment on one thread
    assert outer.tid == inner.tid
    assert outer.ts_us <= inner.ts_us
    assert outer.ts_us + outer.dur_us >= inner.ts_us + inner.dur_us
    assert inner.dur_us >= 500  # the sleep is visible


def test_capture_restores_previous_tracer():
    with trace.capture() as t_outer:
        with trace.span("a"):
            pass
        with trace.capture() as t_inner:
            with trace.span("b"):
                pass
        assert trace.active()  # the outer capture is back
        with trace.span("c"):
            pass
    assert not trace.active()
    assert [r.name for r in t_outer.spans()] == ["a", "c"]
    assert [r.name for r in t_inner.spans()] == ["b"]


def test_spans_record_thread_ids():
    # CPython reuses the ident of a thread that has exited: the barrier
    # keeps all three alive at once, so each has its own tid
    alive = threading.Barrier(3, timeout=10)
    with trace.capture() as rec:
        def work(i):
            with trace.span("worker", idx=i):
                alive.wait()
                time.sleep(0.001)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    spans = rec.spans()
    assert len(spans) == 3
    assert len({r.tid for r in spans}) == 3  # one track per thread


def test_chrome_trace_schema(tmp_path):
    with trace.capture() as rec:
        with trace.span("autotune", cat="gpu", bits=4, obj=object()):
            pass
        trace.instant("mark", note="hi")
    doc = rec.chrome_trace(process_name="unit-test")
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["ph"] for e in events} == {"M", "X", "i"}
    assert any(e["name"] == "process_name"
               and e["args"]["name"] == "unit-test" for e in meta)
    assert any(e["name"] == "thread_name" for e in meta)
    (span_ev,) = complete
    assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(span_ev)
    assert span_ev["name"] == "autotune" and span_ev["cat"] == "gpu"
    assert span_ev["args"]["bits"] == 4
    assert isinstance(span_ev["args"]["obj"], str)  # non-JSON args stringify
    # the marker exports as one thread-scoped instant
    (mark,) = [e for e in events if e["ph"] == "i"]
    assert mark["name"] == "mark" and mark["s"] == "t" and "dur" not in mark
    assert mark["args"]["note"] == "hi" and mark["args"]["span_id"]

    out = rec.write(tmp_path / "nested" / "dir" / "t.json",
                    process_name="unit-test")
    assert out.is_file()
    assert json.loads(out.read_text()) == json.loads(
        json.dumps(doc))  # round-trips


def test_chrome_trace_round_trip_reconstructs_span_tree(tmp_path):
    """Export -> reload -> rebuild: nesting (time containment per thread)
    and the cross-thread layout must survive the Chrome trace_event file."""
    with trace.capture() as rec:
        with trace.span("root", cat="test"):
            with trace.span("child_a", cat="test"):
                with trace.span("grandchild", cat="test"):
                    time.sleep(0.001)
            with trace.span("child_b", cat="test"):
                time.sleep(0.001)

        # distinct idents: the barrier keeps both workers alive at once
        alive = threading.Barrier(2, timeout=10)

        def work(i):
            with trace.span("thread_root", idx=i):
                with trace.span("thread_child", idx=i):
                    alive.wait()
                    time.sleep(0.001)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    path = rec.write(tmp_path / "trace.json", process_name="round-trip")
    events = [e for e in json.loads(path.read_text())["traceEvents"]
              if e["ph"] == "X"]

    # rebuild parent links: a span's parent is the innermost same-thread
    # span whose [ts, ts+dur] interval contains it
    def parent_of(ev):
        best = None
        for other in events:
            if other is ev or other["tid"] != ev["tid"]:
                continue
            if (other["ts"] <= ev["ts"]
                    and other["ts"] + other["dur"] >= ev["ts"] + ev["dur"]):
                if best is None or other["dur"] < best["dur"]:
                    best = other
        return best

    tree = {}
    for ev in events:
        p = parent_of(ev)
        tree.setdefault(ev["name"], set()).add(p["name"] if p else None)

    assert tree["root"] == {None}
    assert tree["child_a"] == tree["child_b"] == {"root"}
    assert tree["grandchild"] == {"child_a"}
    # the worker trees live on their own threads, re-rooted there
    assert tree["thread_root"] == {None}
    assert tree["thread_child"] == {"thread_root"}
    tids = {e["tid"] for e in events if e["name"] == "thread_root"}
    assert len(tids) == 2 and all(
        e["tid"] not in tids for e in events if e["name"] == "root")


def _best_per_call_s(batches: int = 10, calls: int = 2_000) -> float:
    """Per-call cost of an empty ``trace.span`` in the fastest of several
    timed batches.  Outside load only ever slows a batch down, so the
    best batch tracks the code's own cost while a real per-call
    regression slows every batch alike."""
    best = float("inf")
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            with trace.span("hot", k=1):
                pass
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def test_disabled_span_overhead_is_negligible():
    """Instrumentation compiled into hot paths must be near-free outside
    a capture, where every span is the shared null span.  Bound the
    per-call cost very loosely (CI machines vary wildly) — the point is
    catching an accidental heavyweight allocation or lock convoy, which
    costs 100x this bound."""
    assert not trace.active()
    per_call = _best_per_call_s()
    assert per_call < 20e-6, f"disabled span costs {per_call * 1e6:.2f} us"


def test_markers_and_serve_spans_reach_a_capture():
    """A capture receives serve's hand-built virtual-time spans and the
    fault and breaker markers, as one resolvable tree; recording does
    not change the served result."""
    from repro.serve import ServeConfig, run_harness, summary_digest

    cfg = ServeConfig(qps=2000, requests=1000, seed=7)
    quiet = run_harness(cfg, chaos=True)
    with trace.capture() as rec:
        recorded = run_harness(cfg, chaos=True)
    assert summary_digest(recorded) == summary_digest(quiet)

    events = rec.events()
    spans = rec.spans()
    (run,) = [e for e in spans if e.name == "serve.run"]
    batches = [e for e in spans if e.name.startswith("serve.batch.")]
    requests = [e for e in spans if e.name == "serve.request"]
    assert batches and requests
    assert all(e.parent_id == run.span_id for e in batches)
    batch_ids = {e.span_id for e in batches}
    assert all(e.parent_id in batch_ids for e in requests)
    markers = {e.name for e in events if e.kind == "instant"}
    assert {"fault_injected", "breaker_transition"} <= markers
    assert unresolved_parents(events) == []
