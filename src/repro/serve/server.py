"""The serving simulator: admission control, dynamic batching, breakers.

One single-threaded discrete-event loop on a :class:`~.clock.VirtualClock`
drives the whole serving stack — which is what makes 50k-request chaos
replays fast (no real sleeping) and bit-reproducible (no scheduler in
the loop).  The moving parts, and where each decision's numbers come
from:

**Admission control** (reject-on-arrival).  Every arrival is priced
against the *active* cost table — the primary backend's while its
breaker is closed, the fallback's while it is open (brownout pricing:
during degradation the front door must tell the truth about degraded
service times).  The admission estimate is

    ``est_finish = now + (busy + queued_work) / lanes + service(1)``

where ``busy`` sums the remaining busy time of all lanes and
``queued_work`` prices the queue at the table's best amortized rate.  A
request whose estimate misses its deadline — or that finds the bounded
queue full — is shed *now*, costing microseconds, instead of timing out
in the queue, costing its full SLO.

**Dynamic batching.**  An idle lane batches up to the size the priced
batch-efficiency curve says amortizes best (:meth:`CostTable.best_batch`,
the simulated Fig. 10 curve), clamped to what the queue head's deadline
can still afford (``now + service(b) <= head deadline``).  A short queue
holds for ``hold_us`` after the head arrived hoping to fill the batch,
but never past the point where waiting would cost the head its SLO.

**Circuit breaking and brownout.**  Primary dispatch runs under
:func:`call_with_policy` — retries, ``backoff_ms`` backoff and the batch
deadline all on the *lane's* forked clock, so a retried batch pays its
detection and backoff time in virtual microseconds.  A permanently-failed
batch counts toward the per-backend :class:`CircuitBreaker`'s trip and is
served late on the fallback (brownout: admitted requests are never
dropped).  While open, all traffic browns out to the fallback table;
``breaker_open_ms`` after the trip one probe batch re-tries the primary
and either closes the breaker or re-opens it.

**Chaos.**  Fault injection fires at site ``serve.backend.<primary>``
keyed by batch sequence number, so a fault plan targets primary
dispatches without touching the fallback path; a scripted kill window
(``kill_start_us..kill_end_us``) makes every primary attempt fail, which
is what forces the breaker open in the CI scenario.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..obs import trace as obs_trace
from ..resilience import faults
from ..resilience.breaker import CLOSED, CircuitBreaker
from ..resilience.policy import ExecPolicy, PermanentFailure, call_with_policy
from .clock import VirtualClock
from .cost import CostTable
from .workload import Request, generate_trace

SUMMARY_SCHEMA = "repro.serve.summary/v1"


class BackendDown(ReproError):
    """The scripted kill window: the primary backend is hard-down."""


@dataclass(frozen=True)
class ServeConfig:
    """Every knob of one serving run (echoed into the summary)."""

    model: str = "resnet50"
    bits: int = 4
    backend: str = "gpu"
    fallback: str = "ref"
    qps: float = 2000.0
    requests: int = 10_000
    seed: int = 0
    shape: str = "steady"
    slo_ms: float = 50.0
    lanes: int = 2
    max_batch: int = 16
    queue_cap: int = 256
    hold_us: float = 500.0
    dispatch_overhead_us: float = 5.0
    retries: int = 2
    backoff_ms: float = 1.0
    fault_detect_us: float = 200.0
    breaker_threshold: int = 3
    breaker_open_ms: float = 200.0
    #: scripted primary-kill window on the virtual timeline (None = no kill)
    kill_start_us: Optional[float] = None
    kill_end_us: Optional[float] = None

    @property
    def slo_us(self) -> float:
        return self.slo_ms * 1e3

    def echo(self) -> Dict[str, object]:
        """JSON-stable config echo for the summary."""
        return {
            "model": self.model, "bits": self.bits,
            "backend": self.backend, "fallback": self.fallback,
            "qps": self.qps, "requests": self.requests, "seed": self.seed,
            "shape": self.shape, "slo_ms": self.slo_ms,
            "lanes": self.lanes, "max_batch": self.max_batch,
            "queue_cap": self.queue_cap, "hold_us": self.hold_us,
            "dispatch_overhead_us": self.dispatch_overhead_us,
            "retries": self.retries, "backoff_ms": self.backoff_ms,
            "fault_detect_us": self.fault_detect_us,
            "breaker_threshold": self.breaker_threshold,
            "breaker_open_ms": self.breaker_open_ms,
            "kill_start_us": self.kill_start_us,
            "kill_end_us": self.kill_end_us,
        }


@dataclass
class _Lane:
    lane_id: int
    busy_until_us: float = 0.0
    busy: bool = False


@dataclass
class _Stats:
    offered: int = 0
    admitted: int = 0
    shed_deadline: int = 0
    shed_queue_full: int = 0
    completed: int = 0
    expired: int = 0
    slo_met: int = 0
    slo_missed: int = 0
    batches: int = 0
    brownout_batches: int = 0
    probe_batches: int = 0
    queue_peak: int = 0
    batch_hist: Dict[int, int] = field(default_factory=dict)
    latencies_us: List[float] = field(default_factory=list)


def _percentile(sorted_vals: List[float], q: float) -> float:
    """Exact nearest-rank percentile of a pre-sorted list."""
    if not sorted_vals:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[rank - 1]


class ServeSim:
    """One serving run.  Build, :meth:`run`, read the summary."""

    def __init__(
        self,
        config: ServeConfig,
        *,
        primary_table: CostTable,
        fallback_table: CostTable,
        trace: "List[Request] | None" = None,
    ) -> None:
        for role, table in (("primary", primary_table),
                            ("fallback", fallback_table)):
            if table.max_batch < config.max_batch:
                raise ReproError(
                    f"{role} cost table ({table.backend}) prices batches "
                    f"1..{table.max_batch}, but max_batch is "
                    f"{config.max_batch}")
        self.cfg = config
        self.primary = primary_table
        self.fallback = fallback_table
        self.trace = trace if trace is not None else generate_trace(
            config.qps, config.requests, seed=config.seed,
            slo_us=config.slo_us, shape=config.shape)
        self.clock = VirtualClock()
        self.breaker = CircuitBreaker(
            config.backend,
            failure_threshold=config.breaker_threshold,
            open_s=config.breaker_open_ms / 1e3,
            now=self.clock.now_s)
        self.queue: Deque[Request] = deque()
        self.lanes = [_Lane(i) for i in range(max(1, config.lanes))]
        self.stats = _Stats()
        self._events: List[Tuple[float, int, int, object]] = []
        self._seq = 0
        self._batch_seq = 0
        self._hold_token = 0
        self._hold_pending = False
        self._policy = ExecPolicy(
            retries=max(0, config.retries),
            backoff_s=max(0.0, config.backoff_ms) / 1e3)
        self._root_ctx = obs_trace.new_trace()

    # -- event plumbing ------------------------------------------------------

    _ARRIVE, _FREE, _HOLD = 0, 1, 2

    def _push(self, t_us: float, kind: int, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._events, (t_us, self._seq, kind, payload))

    # -- pricing views -------------------------------------------------------

    def _active_table(self) -> CostTable:
        """The table admission and batching price against.

        Fallback pricing applies not only while the breaker is open but
        also while it is *suspect* (failures accumulating toward the
        trip): requests admitted in that window at healthy-primary
        prices are exactly the ones that expire in the queue when the
        trip lands, so the front door turns pessimistic first.
        """
        healthy = (self.breaker.state() == CLOSED
                   and not self.breaker.suspect())
        return self.primary if healthy else self.fallback

    def _busy_us(self, now: float) -> float:
        return sum(max(0.0, ln.busy_until_us - now)
                   for ln in self.lanes if ln.busy)

    def _estimate_finish_us(self, now: float, table: CostTable) -> float:
        queued_work = (len(self.queue)
                       * table.best_per_image(self.cfg.max_batch))
        backlog = (self._busy_us(now) + queued_work) / len(self.lanes)
        return now + backlog + table.service(1)

    # -- admission -----------------------------------------------------------

    def _admit(self, req: Request, now: float) -> None:
        self.stats.offered += 1
        if len(self.queue) >= self.cfg.queue_cap:
            self._shed(req, "queue_full")
            return
        table = self._active_table()
        if self._estimate_finish_us(now, table) > req.deadline_us:
            self._shed(req, "deadline")
            return
        self.stats.admitted += 1
        self.queue.append(req)
        self.stats.queue_peak = max(self.stats.queue_peak, len(self.queue))
        self._plan(now)

    def _shed(self, req: Request, reason: str) -> None:
        if reason == "deadline":
            self.stats.shed_deadline += 1
        else:
            self.stats.shed_queue_full += 1

    # -- batching ------------------------------------------------------------

    def _feasible_batch(self, now: float, table: CostTable,
                        cap: int) -> int:
        """Largest batch <= cap whose service still makes the head's
        deadline (arrivals are sorted and SLOs uniform, so the head's
        deadline is the batch's earliest).  0 when even batch 1 misses.

        That is the largest b with ``now + service(b') <= deadline`` for
        every b' <= b.  Float addition is monotone, so this holds exactly
        when ``now + prefix_max(b) <= deadline``, which is monotone in b:
        a bisect over the prefix maximum finds it, on any service curve.
        The sum is compared as written; ``deadline - now`` rounds
        differently.
        """
        hi = min(cap, len(self.queue))
        if hi < 1:
            return 0  # bisect reads hi=-1 as the whole table
        return bisect_right(table.prefix_max_us, self.queue[0].deadline_us,
                            0, hi, key=lambda s: now + s)

    def _plan(self, now: float) -> None:
        """Dispatch work onto idle lanes, or arm the hold timer."""
        while self.queue:
            lane = next((ln for ln in self.lanes if not ln.busy), None)
            if lane is None:
                return
            # requests whose deadline passed while queued are hopeless;
            # complete them as 'expired' rather than wasting a dispatch
            while self.queue and self.queue[0].deadline_us <= now:
                self.queue.popleft()
                self.stats.expired += 1
            if not self.queue:
                return
            table = self._active_table()
            target = table.best_batch(self.cfg.max_batch)
            feasible = self._feasible_batch(now, table, self.cfg.max_batch)
            head = self.queue[0]
            if len(self.queue) >= target:
                self._dispatch(lane, max(1, min(feasible or 1, target)), now)
                continue
            # queue is short of the optimal batch: hold for stragglers,
            # but never past the instant waiting costs the head its SLO
            t_close = min(
                head.arrival_us + self.cfg.hold_us,
                head.deadline_us - table.service(1))
            if now >= t_close:
                self._dispatch(
                    lane, max(1, min(feasible or 1, target, len(self.queue))),
                    now)
                continue
            if not self._hold_pending:
                self._hold_pending = True
                self._hold_token += 1
                self._push(t_close, self._HOLD, self._hold_token)
            return

    def _on_hold(self, now: float, token: int) -> None:
        if token != self._hold_token:
            return  # a dispatch already consumed this hold
        self._hold_pending = False
        self._plan(now)

    # -- dispatch / execution ------------------------------------------------

    def _kill_active(self, at_us: float) -> bool:
        return (self.cfg.kill_start_us is not None
                and self.cfg.kill_end_us is not None
                and self.cfg.kill_start_us <= at_us < self.cfg.kill_end_us)

    def _dispatch(self, lane: _Lane, batch_size: int, now: float) -> None:
        batch = [self.queue.popleft() for _ in range(batch_size)]
        self._batch_seq += 1
        self._hold_token += 1  # invalidate any pending hold for the old head
        self._hold_pending = False
        end_us, served_on, kind = self._execute(batch, now)
        lane.busy = True
        lane.busy_until_us = end_us
        self._push(end_us, self._FREE,
                   (lane.lane_id, tuple(batch), now, served_on, kind))

    def _execute(self, batch: List[Request],
                 now: float) -> Tuple[float, str, str]:
        """Run one batch on a forked lane clock; returns
        ``(end_us, served_backend, kind)`` with kind in
        ``normal|brownout|probe|probe_failed``."""
        cfg = self.cfg
        lane_clock = self.clock.fork()
        b = len(batch)
        state = self.breaker.acquire(lane_clock.now_s())
        batch_key = f"b{self._batch_seq}"
        self.stats.batches += 1
        self.stats.batch_hist[b] = self.stats.batch_hist.get(b, 0) + 1

        if state == "open":
            # brownout: the breaker says the primary is down, serve on
            # the fallback at its (honest, slower) price
            lane_clock.sleep_s(self.fallback.service(b) / 1e6)
            self.stats.brownout_batches += 1
            return lane_clock.now_us, self.fallback.backend, "brownout"

        if state == "probe":
            self.stats.probe_batches += 1

        site = f"serve.backend.{cfg.backend}"
        deadline_s = min(r.deadline_us for r in batch) / 1e6

        def attempt() -> None:
            try:
                faults.inject(site, key=batch_key)
                if self._kill_active(lane_clock.now_us):
                    raise BackendDown(
                        f"{cfg.backend} killed "
                        f"[{cfg.kill_start_us:.0f}..{cfg.kill_end_us:.0f}]us")
            except ReproError:
                # failure is not free: the dispatcher burns detection
                # time before it can retry
                lane_clock.sleep_s(cfg.fault_detect_us / 1e6)
                raise
            lane_clock.sleep_s(self.primary.service(b) / 1e6)

        try:
            call_with_policy(
                attempt, site=site, key=batch_key, policy=self._policy,
                deadline=deadline_s,
                now=lane_clock.now_s, sleep=lane_clock.sleep_s)
        except PermanentFailure:
            self.breaker.record_failure(lane_clock.now_s())
            # graceful degradation: an admitted request is never dropped —
            # the failed batch reruns on the fallback, late but served
            lane_clock.sleep_s(self.fallback.service(b) / 1e6)
            self.stats.brownout_batches += 1
            kind = "probe_failed" if state == "probe" else "brownout"
            return lane_clock.now_us, self.fallback.backend, kind
        self.breaker.record_success(lane_clock.now_s())
        return (lane_clock.now_us, cfg.backend,
                "probe" if state == "probe" else "normal")

    def _on_free(self, now: float, payload: object) -> None:
        lane_id, batch, start_us, served_on, kind = payload  # type: ignore
        lane = self.lanes[lane_id]
        lane.busy = False
        recording = obs_trace.active()
        if recording:
            ctx = self._root_ctx.child()
            obs_trace.record_span(
                f"serve.batch.{kind}", "serve",
                {"batch": len(batch), "backend": served_on},
                start_us, now, ctx, tid=lane_id)
        for req in batch:
            latency = now - req.arrival_us
            self.stats.completed += 1
            self.stats.latencies_us.append(latency)
            met = now <= req.deadline_us
            if met:
                self.stats.slo_met += 1
            else:
                self.stats.slo_missed += 1
            if recording:
                obs_trace.record_span(
                    "serve.request", "serve",
                    {"rid": req.rid, "slo_met": met,
                     "latency_us": round(latency, 3)},
                    req.arrival_us, now, ctx.child(), tid=lane_id)
        self._plan(now)

    # -- the loop ------------------------------------------------------------

    def run(self) -> Dict[str, object]:
        fault_counts_before = faults.active_plan().counts()
        for req in self.trace:
            self._push(req.arrival_us, self._ARRIVE, req)
        while self._events:
            t_us, _, kind, payload = heapq.heappop(self._events)
            self.clock.advance_to_us(t_us)
            if kind == self._ARRIVE:
                self._admit(payload, t_us)  # type: ignore[arg-type]
            elif kind == self._FREE:
                self._on_free(t_us, payload)
            else:
                self._on_hold(t_us, payload)  # type: ignore[arg-type]
        # anything still queued when the trace drains can only be hopeless
        # heads the final plan pass expired; the loop above always leaves
        # an idle lane for a non-empty queue, so this is belt-and-braces
        while self.queue:
            req = self.queue.popleft()
            self.stats.expired += 1
        if obs_trace.active():
            # the root span every batch span parents to — recorded last
            # (its end is the run's end) so a recorder holds no orphans
            obs_trace.record_span(
                "serve.run", "serve",
                {"offered": self.stats.offered,
                 "admitted": self.stats.admitted},
                0.0, self.clock.now_us, self._root_ctx)
        fault_counts_after = faults.active_plan().counts()
        injected = {
            k: v - fault_counts_before.get(k, 0)
            for k, v in sorted(fault_counts_after.items())
            if k.startswith("serve.") and v - fault_counts_before.get(k, 0) > 0
        }
        return self._summary(injected)

    # -- reporting -----------------------------------------------------------

    def _summary(self, injected: Dict[str, int]) -> Dict[str, object]:
        s = self.stats
        lats = sorted(s.latencies_us)
        shed = s.shed_deadline + s.shed_queue_full
        goodput = s.slo_met / s.offered if s.offered else 0.0
        conservation = (s.offered == s.admitted + shed
                        and s.admitted == s.completed + s.expired)
        return {
            "schema": SUMMARY_SCHEMA,
            "config": self.cfg.echo(),
            "workload": {
                "trace_requests": len(self.trace),
                "horizon_us": round(self.trace[-1].arrival_us, 3)
                if self.trace else 0.0,
            },
            "counts": {
                "offered": s.offered,
                "admitted": s.admitted,
                "shed": {"deadline": s.shed_deadline,
                         "queue_full": s.shed_queue_full,
                         "total": shed},
                "completed": s.completed,
                "expired": s.expired,
                "slo_met": s.slo_met,
                "slo_missed": s.slo_missed,
                "batches": s.batches,
                "brownout_batches": s.brownout_batches,
                "probe_batches": s.probe_batches,
            },
            "goodput": round(goodput, 6),
            "slo_attainment": round(
                s.slo_met / s.admitted, 6) if s.admitted else 1.0,
            "latency_us": {
                "p50": round(_percentile(lats, 0.50), 3),
                "p90": round(_percentile(lats, 0.90), 3),
                "p99": round(_percentile(lats, 0.99), 3),
                "p999": round(_percentile(lats, 0.999), 3),
                "max": round(lats[-1], 3) if lats else 0.0,
            },
            "queue_peak": s.queue_peak,
            "batch_hist": {str(k): v for k, v in sorted(s.batch_hist.items())},
            "breaker": {
                "opens": self.breaker.opens,
                "closes": self.breaker.closes,
                "probe_failures": self.breaker.probe_failures,
                "transitions": [
                    [round(t, 6), state]
                    for t, state in self.breaker.transitions],
            },
            "faults_injected": injected,
            "invariants": {
                "conservation": conservation,
                "clock_end_us": round(self.clock.now_us, 3),
            },
        }


def run_serve(
    config: ServeConfig,
    *,
    primary_table: CostTable,
    fallback_table: CostTable,
    trace: "List[Request] | None" = None,
) -> Dict[str, object]:
    """Build and run one :class:`ServeSim`; returns the summary dict."""
    sim = ServeSim(
        config, primary_table=primary_table,
        fallback_table=fallback_table, trace=trace)
    return sim.run()
