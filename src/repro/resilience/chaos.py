"""Scripted chaos scenarios behind ``python -m repro chaos``.

Four scenarios exercise the resilience layer end to end, each with its
own pass/fail verdict (the CLI exits non-zero when any check fails);
``python -m repro chaos <name>`` runs a subset, ``--list`` enumerates:

* **autotune-invariance** — a seeded fault plan makes ~30% of profile
  runs fail transiently (twice per selected candidate); with the retry
  budget covering the transient ``times``, the sweep must finish with
  the *bit-identical* winning tiling and cycle count of the fault-free
  sweep, zero candidates skipped.  This is the acceptance invariant of
  the whole hardened-autotune design.
* **executor-degradation** — every ``executor.price_conv`` call faults
  once; the graph report must still complete (each conv re-priced on
  the ``ref`` backend) and the ``resilience_fallbacks`` counter must
  show the degradation was not silent.
* **persistence-crash-safety** — injected crashes at the persistence
  sites (``cache.put`` before any bytes move, ``cache.put.tmp`` inside
  the write/rename window) plus a hand-torn segment must leave *zero*
  torn files: every successful cache put reads back in a fresh
  instance, no stranded temp files, and a segment with a corrupt line
  lands in ``.quarantine/`` and re-misses cleanly.
* **serve-slo** — a short :mod:`repro.serve` replay under the serving
  chaos plan (transient dispatch faults + a scripted primary kill): the
  breaker must open and re-close through a half-open probe, admitted
  requests must keep >=99% SLO attainment (overload is shed at
  admission, not timed out in queue), request accounting must conserve,
  and two identical replays must produce byte-identical summaries.

The scenarios run against throwaway temp directories and scoped
:func:`repro.resilience.faults.fault_plan` installs, so they never
disturb the user's real cache or environment-driven plan.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass, field

from ..obs import metrics as obs_metrics
from ..types import ConvSpec, GemmShape
from . import atomic as res_atomic
from .faults import FaultPlan, fault_plan

#: the canned plan the CI chaos job exports as ``REPRO_FAULTS`` when it
#: re-runs the tier-1 suite under fault injection (≥10% of autotune
#: candidates fail transiently; cache reads/writes misbehave at low rate)
CANNED_SPEC = (
    "autotune.profile:raise:0.3:2;"
    "cache.get:garbage:0.15:1;"
    "cache.put:raise:0.1:1"
)
#: seed fixed so a failing chaos run replays exactly
CANNED_SEED = 20200806


@dataclass
class ScenarioResult:
    """Verdict of one chaos scenario."""

    name: str
    passed: bool
    checks: list[str] = field(default_factory=list)  #: "ok: ..." / "FAIL: ..."

    def check(self, ok: bool, label: str) -> bool:
        self.checks.append(f"{'ok' if ok else 'FAIL'}: {label}")
        if not ok:
            self.passed = False
        return ok


@contextlib.contextmanager
def _env(**overrides: str):
    """Scoped environment overrides (restored on exit)."""
    old = {k: os.environ.get(k) for k in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for k, v in old.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


# ---------------------------------------------------------------------------
# Scenario A: autotune winner is invariant under transient faults
# ---------------------------------------------------------------------------

#: a mid-sized GEMM (conv-ish shape) — big enough that the sweep visits
#: many candidates, small enough that the chaos run stays a smoke test
_GEMM = GemmShape(m=128, k=576, n=196)
_BITS = 4


def scenario_autotune_invariance() -> ScenarioResult:
    """Transient profile-run faults must not change the sweep's answer."""
    from ..gpu.autotune import autotune, clear_cache

    res = ScenarioResult("autotune-invariance", passed=True)

    clear_cache()
    with _env(REPRO_NO_CACHE="1"), fault_plan(None):
        base = autotune(_GEMM, _BITS)

    clear_cache()
    plan = FaultPlan.from_spec(
        "autotune.profile:raise:0.3:2", seed=CANNED_SEED)
    # retries (3) > times (2): every transient fault is absorbed
    with _env(REPRO_NO_CACHE="1", REPRO_RETRY="3"), fault_plan(plan):
        chaotic = autotune(_GEMM, _BITS)
    clear_cache()

    injected = plan.total_injected()
    # rate 0.3 × times 2 ≈ 0.6 injections per evaluated candidate; demand
    # at least the acceptance floor of 10% of candidates faulting
    floor = max(1, chaotic.evaluated // 10)
    res.check(injected >= floor,
              f"faults actually fired ({injected} injections over "
              f"{chaotic.evaluated} profiled candidates, floor {floor})")
    res.check(chaotic.best == base.best,
              f"winning tiling identical ({chaotic.best} == {base.best})")
    res.check(chaotic.best_cycles == base.best_cycles,
              f"winning cycles bit-identical ({chaotic.best_cycles!r})")
    res.check(chaotic.skipped == 0,
              f"no candidate lost to quarantine (skipped={chaotic.skipped})")
    res.check(chaotic.evaluated == base.evaluated,
              f"same candidates profiled ({chaotic.evaluated} == "
              f"{base.evaluated})")
    return res


# ---------------------------------------------------------------------------
# Scenario B: executor degrades to the ref backend instead of crashing
# ---------------------------------------------------------------------------

_SPEC = ConvSpec("chaos_conv", in_channels=64, out_channels=64,
                 height=16, width=16, kernel=(3, 3), padding=(1, 1))


def scenario_executor_degradation() -> ScenarioResult:
    """A failing backend price must fall back to ``ref``, loudly."""
    from ..runtime.executor import estimate_graph_cycles
    from ..runtime.graph import conv_pipeline

    res = ScenarioResult("executor-degradation", passed=True)
    graph = conv_pipeline(_SPEC, _BITS)
    fallbacks = obs_metrics.counter(
        "resilience_fallbacks", backend="gpu", op="conv")
    before = fallbacks.value

    with fault_plan("executor.price_conv:raise:1.0:1", seed=CANNED_SEED):
        report = estimate_graph_cycles(graph, "gpu")

    res.check(report.total_cycles > 0,
              f"graph report completed ({report.total_cycles:,.0f} cycles)")
    res.check(len(report.op_cycles) == len(graph),
              f"every op priced ({len(report.op_cycles)}/{len(graph)})")
    res.check(fallbacks.value > before,
              f"fallback counted (resilience_fallbacks "
              f"{before} -> {fallbacks.value})")
    return res


# ---------------------------------------------------------------------------
# Scenario C: no injected crash leaves a torn persistent artifact
# ---------------------------------------------------------------------------


def _torn_artifacts(root: pathlib.Path) -> list[pathlib.Path]:
    """Every stranded temp file or unparseable JSON artifact under
    ``root`` (quarantine dirs excluded — that is where evidence lives)."""
    torn: list[pathlib.Path] = []
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        if res_atomic.QUARANTINE_DIR in path.parts:
            continue
        if path.suffix == ".tmp":
            torn.append(path)
        elif path.suffix == ".json":
            try:
                json.loads(path.read_text(encoding="utf-8"))
            except (ValueError, UnicodeDecodeError, OSError):
                torn.append(path)
        elif path.suffix == ".jsonl" and res_atomic.read_jsonl(path)[1]:
            torn.append(path)
    return torn


def scenario_persistence_crash_safety() -> ScenarioResult:
    """Crashes at every persistence site leave old-or-new, never torn."""
    from ..perf.cache import PersistentCache

    res = ScenarioResult("persistence-crash-safety", passed=True)
    # force-enable disk traffic: callers (tests) may have REPRO_NO_CACHE
    # set globally, but this scenario owns an isolated temp root
    with _env(REPRO_NO_CACHE=""), \
            tempfile.TemporaryDirectory(prefix="repro-chaos-") as td:
        root = pathlib.Path(td)

        # -- cache puts under crash injection at both windows ---------------
        cache = PersistentCache("chaos", root=root)
        spec = ("cache.put:raise:0.2:0;"        # crash before bytes move
                "cache.put.tmp:raise:0.3:0")    # crash inside the window
        with fault_plan(spec, seed=CANNED_SEED):
            put_ok = [cache.put(f"{i:064x}", {"i": i}) for i in range(32)]
        stored = sum(put_ok)
        res.check(0 < stored < 32,
                  f"put mix of successes and injected crashes "
                  f"({stored}/32 stored)")
        fresh = PersistentCache("chaos", root=root)
        with fault_plan(None):  # read back without the env plan's faults
            readable = [fresh.get(f"{i:064x}") == {"i": i} for i in range(32)]
        res.check(readable == put_ok,
                  f"every successful put is readable by a fresh instance "
                  f"({sum(readable)})")

        # -- corrupt segment line: quarantined on read, then a clean miss ---
        digest = "f" * 64
        torn = cache.directory() / "seg-torn.jsonl"
        torn.write_text(json.dumps([digest, {"ok": True}])[:-4],
                        encoding="utf-8")
        qdir = res_atomic.quarantine_dir_for(torn)
        with fault_plan(None):
            first = fresh.get(digest)
            errors = fresh.stats.errors
            second = fresh.get(digest)
        res.check(first is None and errors == 1,
                  "corrupt segment line degrades to a counted miss")
        res.check(not torn.exists() and qdir.is_dir() and any(qdir.iterdir()),
                  "corrupt segment moved into .quarantine/")
        res.check(second is None and fresh.stats.errors == errors,
                  "second lookup is a clean miss")

        # -- the global claim: nothing anywhere is torn ---------------------
        torn = _torn_artifacts(root)
        res.check(not torn,
                  "zero torn/partial artifacts on disk"
                  + (f" (found: {[str(p) for p in torn]})" if torn else ""))
    return res


# ---------------------------------------------------------------------------
# Scenario D: the serving layer holds its SLO under chaos
# ---------------------------------------------------------------------------


def scenario_serve_slo() -> ScenarioResult:
    """A chaos serving replay keeps its SLO, breaks and heals the
    breaker, sheds at admission, and replays byte-identically."""
    from ..serve import CostTable, ServeConfig, run_serve, summary_digest
    from ..serve.harness import KILL_WINDOW, chaos_spec

    res = ScenarioResult("serve-slo", passed=True)
    horizon_us = 5000 / 2000 * 1e6
    cfg = ServeConfig(
        qps=2000, requests=5000, seed=7,
        kill_start_us=KILL_WINDOW[0] * horizon_us,
        kill_end_us=KILL_WINDOW[1] * horizon_us)
    primary = CostTable.build(
        cfg.backend, cfg.model, bits=cfg.bits, max_batch=cfg.max_batch,
        overhead_us=cfg.dispatch_overhead_us)
    fallback = CostTable.build(
        cfg.fallback, cfg.model, bits=cfg.bits, max_batch=cfg.max_batch,
        overhead_us=cfg.dispatch_overhead_us)
    summaries = []
    for _ in range(2):
        # a fresh plan per run: the firing ledger is stateful by design
        with fault_plan(chaos_spec(cfg.backend), seed=cfg.seed):
            summaries.append(run_serve(
                cfg, primary_table=primary, fallback_table=fallback))
    s = summaries[0]
    counts = s["counts"]
    shed = counts["shed"]["total"]
    res.check(bool(s["invariants"]["conservation"]),
              "request accounting conserves "
              f"(offered {counts['offered']} = admitted {counts['admitted']}"
              f" + shed {shed}; completed {counts['completed']}"
              f" + expired {counts['expired']})")
    res.check(sum(s["faults_injected"].values()) > 0,
              f"transient faults actually fired ({s['faults_injected']})")
    res.check(s["slo_attainment"] >= 0.99,
              f"SLO attainment over admitted >= 99% "
              f"({s['slo_attainment']:.4f})")
    res.check(shed > 0 and counts["expired"] <= counts["admitted"] * 1e-3,
              f"overload shed at admission, not in queue "
              f"(shed {shed}, queue expiries {counts['expired']})")
    brk = s["breaker"]
    res.check(brk["opens"] >= 1 and brk["closes"] >= 1,
              f"breaker opened and re-closed via probe (opens {brk['opens']},"
              f" closes {brk['closes']}, "
              f"probe_failures {brk['probe_failures']})")
    res.check(summary_digest(summaries[0]) == summary_digest(summaries[1]),
              "two identical replays are byte-identical "
              f"(sha256 {summary_digest(summaries[0])[:12]})")
    return res


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

SCENARIOS = {
    "autotune-invariance": scenario_autotune_invariance,
    "executor-degradation": scenario_executor_degradation,
    "persistence-crash-safety": scenario_persistence_crash_safety,
    "serve-slo": scenario_serve_slo,
}


def scenario_names() -> tuple[str, ...]:
    return tuple(SCENARIOS)


def run_chaos(echo=print, names=None) -> int:
    """Run the named scenarios (all by default); 0 iff every check passes.

    Unknown names are the caller's bug: :class:`KeyError` — the CLI
    validates first and exits 2 with the valid choices.
    """
    selected = tuple(names) if names else scenario_names()
    results = []
    for name in selected:
        result = SCENARIOS[name]()
        results.append(result)
        echo(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}")
        for line in result.checks:
            echo(f"    {line}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        echo(f"chaos FAILED: {', '.join(failed)}")
        return 1
    echo(f"chaos OK: {len(results)} scenarios, "
         f"{sum(len(r.checks) for r in results)} checks")
    return 0
