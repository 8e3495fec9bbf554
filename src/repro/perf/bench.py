"""Wall-clock benchmark harness: ``python -m repro bench``.

Times the Fig. 10/11 autotune sweep (the dominant cost of the GPU figure
reproductions) in two phases over an isolated cache directory:

* ``cold`` — the search engine with an *empty* persistent cache:
  branch-and-bound pruning + batched vectorized candidate pricing;
* ``warm`` — the engine again with the persistent cache the cold phase
  just wrote: every sweep is a content-addressed disk hit.

Each phase regenerates the actual figure data, so besides wall-clock the
harness asserts the cache changes **nothing**: identical best tilings,
identical ``best_cycles`` and identical figure series in both phases.
Results (wall-clock, the warm speedup, cache hit rates, candidates
pruned, equivalence verdicts) are written to ``BENCH_*.json``;
``--smoke`` runs a three-layer sweep for CI.  An ``arm`` section times
the Fig. 7 reproduction cold vs warm through the persistent
static-schedule cache; it needs the full run.  The engine's speedup over
the exhaustive reference sweep is checked by
``benchmarks/test_autotune_engine_speedup.py``, where that oracle lives.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import tempfile
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import ReproError
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..perf.cache import CACHE_DIR_ENV
from ..resilience import atomic as res_atomic

#: bump when the BENCH_*.json layout changes
#: v2: added the ``metrics`` block (repro.obs registry snapshot)
#: v3: added provenance (``git_sha``, ``fingerprint``) and ``--save``
#:     ledger integration (repro.obs.history, schema shared with it)
SCHEMA_VERSION = 3

DEFAULT_OUT_DIR = pathlib.Path("benchmarks") / "out"


# ---------------------------------------------------------------------------
# Phase plumbing
# ---------------------------------------------------------------------------


@dataclass
class PhaseReport:
    """Everything measured while reproducing the sweep once."""

    name: str
    seconds: float
    cache: dict = field(default_factory=dict)
    candidates: int = 0
    evaluated: int = 0
    pruned: int = 0
    #: per "<layer>/<bits>b": [tiling description, best_cycles]
    best: dict[str, list] = field(default_factory=dict)
    #: per figure name: {series name: [values...]}
    series: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    @property
    def candidates_per_sec(self) -> float | None:
        """Candidate-pricing throughput of the phase (trended by the
        ledger/HTML report); ``None`` when nothing was timed."""
        if not self.candidates or not self.seconds:
            return None
        return self.candidates / self.seconds

    def as_dict(self) -> dict:
        cps = self.candidates_per_sec
        return {
            "seconds": round(self.seconds, 6),
            "cache": self.cache,
            "candidates": self.candidates,
            "evaluated": self.evaluated,
            "pruned": self.pruned,
            "pruned_fraction": (
                round(self.pruned / self.candidates, 4) if self.candidates else 0.0
            ),
            "candidates_per_sec": round(cps, 1) if cps is not None else None,
        }


@contextmanager
def _isolated_cache_dir(cache_dir: str | os.PathLike | None):
    """Point ``REPRO_CACHE_DIR`` at ``cache_dir`` (or a fresh temp dir)."""
    prev = os.environ.get(CACHE_DIR_ENV)

    def _set(value: str | None) -> None:
        if value is None:
            os.environ.pop(CACHE_DIR_ENV, None)
        else:
            os.environ[CACHE_DIR_ENV] = value

    if cache_dir is not None:
        try:
            pathlib.Path(cache_dir).mkdir(parents=True, exist_ok=True)
        except OSError:
            pass  # unusable dir degrades to cache misses, never a crash
        _set(str(cache_dir))
        try:
            yield pathlib.Path(cache_dir)
        finally:
            _set(prev)
        return
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        _set(tmp)
        try:
            yield pathlib.Path(tmp)
        finally:
            _set(prev)


def _figure_series(data) -> dict[str, list[float]]:
    out = {s.name: list(s.values) for s in data.series}
    out[data.baseline_label] = list(data.baseline_times)
    return out


def _gpu_sweep_items(model: str, batch: int, smoke: bool):
    from ..figures import GPU_BITS
    from ..models import get_model_layers

    layers = get_model_layers(model, batch=batch)
    if smoke:
        layers = layers[:3]
    return [(spec, bits) for spec in layers for bits in GPU_BITS]


def _run_gpu_phase(
    name: str, *, model: str, batch: int, smoke: bool
) -> PhaseReport:
    from ..figures import fig10_gpu_speedups, fig11_gpu_autotune
    from ..gpu.autotune import autotune_conv, cache_store, clear_cache

    clear_cache()  # in-process memo only; the disk store is the subject
    store = cache_store()
    store.reset_stats()
    items = _gpu_sweep_items(model, batch, smoke)

    report = PhaseReport(name=name, seconds=0.0)
    t0 = time.perf_counter()
    if smoke:
        for spec, bits in items:
            autotune_conv(spec, bits)
    else:
        report.series[f"fig10[{model},b{batch}]"] = _figure_series(
            fig10_gpu_speedups(model, batch=batch))
        report.series[f"fig11[{model},b{batch}]"] = _figure_series(
            fig11_gpu_autotune(model, batch=batch))
    report.seconds = time.perf_counter() - t0

    # collected after the clock stops: every call below is a memo hit
    for spec, bits in items:
        res = autotune_conv(spec, bits)
        report.best[f"{spec.name}/{bits}b"] = [
            res.best.describe(), res.best_cycles
        ]
        report.candidates += res.candidates
        report.evaluated += res.evaluated
        report.pruned += res.pruned
    report.cache = store.stats.as_dict()
    return report


def _run_arm_phase(name: str, *, model: str) -> PhaseReport:
    from ..arm.cost_model import clear_schedule_cache, schedule_store
    from ..figures import fig7_arm_speedups

    clear_schedule_cache()
    store = schedule_store()
    store.reset_stats()
    report = PhaseReport(name=name, seconds=0.0)
    t0 = time.perf_counter()
    data = fig7_arm_speedups(model)
    report.seconds = time.perf_counter() - t0
    report.series[f"fig7[{model}]"] = _figure_series(data)
    report.cache = store.stats.as_dict()
    return report


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------


def _equal_series(a: dict, b: dict) -> bool:
    return a == b  # exact float equality is the point: bit-for-bit series


def run_bench(
    *,
    model: str = "resnet50",
    batch: int = 1,
    smoke: bool = False,
    out_dir: str | os.PathLike = DEFAULT_OUT_DIR,
    cache_dir: str | os.PathLike | None = None,
    backends: Sequence[str] = ("gpu", "arm"),
    trace_path: str | os.PathLike | None = None,
    metrics_path: str | os.PathLike | None = None,
    sample_interval_ms: float | None = None,
    flamegraph_path: str | os.PathLike | None = None,
    stacks_path: str | os.PathLike | None = None,
    save: bool = False,
    history_dir: str | os.PathLike | None = None,
    echo: Callable[[str], None] = print,
) -> pathlib.Path:
    """Run the cold/warm bench and write ``BENCH_*.json``; returns the
    report path.  ``cache_dir=None`` uses a throwaway temp dir so the run
    is hermetic; pass a directory to keep the warm cache around.

    ``backends`` selects the sections to run; names are validated against
    the :mod:`repro.backends` registry (``gpu`` times the autotune cache,
    ``arm`` the static-schedule cache; other registered backends have no
    sweep to bench and are rejected).  A selection that would measure
    nothing — ``smoke`` without ``gpu``, since the smoke run skips the
    ARM section — raises :class:`~repro.errors.ReproError` before any
    work or output.

    The report always carries a ``metrics`` block (the
    :mod:`repro.obs.metrics` snapshot covering the whole run).
    ``trace_path`` additionally installs a tracer for the run and writes
    the Chrome trace there — timings then include tracing overhead, so
    leave it off for regression comparisons.  ``metrics_path`` writes the
    same metrics snapshot standalone.

    ``sample_interval_ms`` runs the :mod:`repro.obs.sampler` wall-clock
    stack sampler over the whole bench (``--profile-sample``); the report
    gains a ``sampler`` block with collapsed stacks,
    ``flamegraph_path`` additionally renders them as a standalone SVG
    flamegraph, and ``stacks_path`` exports them as collapsed-stack text
    (the ``repro diff A.txt B.txt`` interchange format).  Like tracing,
    sampling perturbs the timings slightly — leave it off for regression
    comparisons.

    ``save=True`` appends a schema-v3 entry (git sha, machine
    fingerprint, deterministic per-figure cycles/series, wall-clock,
    metrics) to the :mod:`repro.obs.history` ledger under ``history_dir``
    (default ``REPRO_BENCH_DIR`` or ``benchmarks/history/``) so
    ``python -m repro regress`` can compare runs.
    """
    from ..backends import get_backend

    backends = tuple(get_backend(b).name for b in backends)
    unbenchable = [b for b in backends if b not in ("gpu", "arm")]
    if unbenchable:
        raise AssertionError(
            f"no bench section for backend(s) {', '.join(unbenchable)}; "
            f"benchable: gpu, arm"
        )
    if smoke and "gpu" not in backends:
        raise ReproError(
            "bench --smoke measures only the gpu section; "
            "drop --smoke to time the arm section"
        )
    t_start = time.time()
    obs_metrics.reset()  # the metrics block describes this run only
    with ExitStack() as stack:
        tracer = (stack.enter_context(obs_trace.capture())
                  if trace_path is not None else None)
        sampler = None
        if sample_interval_ms is not None:
            from ..obs import sampler as obs_sampler

            sampler = stack.enter_context(
                obs_sampler.sampling(interval_s=sample_interval_ms / 1e3))
        stack.enter_context(_isolated_cache_dir(cache_dir))
        cold = warm = None
        if "gpu" in backends:
            cold = _run_gpu_phase(
                "cold", model=model, batch=batch, smoke=smoke)
            warm = _run_gpu_phase(
                "warm", model=model, batch=batch, smoke=smoke)
        arm_section = None
        if "arm" in backends and not smoke:
            arm_cold = _run_arm_phase("arm-cold", model=model)
            arm_warm = _run_arm_phase("arm-warm", model=model)
            arm_section = {
                "cold": arm_cold.as_dict(),
                "warm": arm_warm.as_dict(),
                "speedup_warm": round(arm_cold.seconds / arm_warm.seconds, 3)
                if arm_warm.seconds else None,
                "identical_series": _equal_series(arm_cold.series, arm_warm.series),
            }

    gpu_section = None
    identical_best = identical_series = True
    if cold is not None:
        identical_best = cold.best == warm.best
        identical_series = _equal_series(cold.series, warm.series)
        speedup_warm = cold.seconds / warm.seconds if warm.seconds else None
        gpu_section = {
            "cold": cold.as_dict(),
            "warm": warm.as_dict(),
            "speedup_warm": round(speedup_warm, 3) if speedup_warm else None,
            "identical_best": identical_best,
            "identical_series": identical_series,
        }

    from ..obs.history import git_sha, machine_fingerprint

    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "smoke" if smoke else "full",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(t_start)),
        "git_sha": git_sha(),
        "fingerprint": machine_fingerprint(),
        "host": {"python": platform.python_version(),
                 "platform": platform.platform(),
                 "cpus": os.cpu_count()},
        "model": model,
        "batch": batch,
        "backends": list(backends),
        "gpu_autotune": gpu_section,
        "arm_schedule": arm_section,
        "metrics": obs_metrics.snapshot(),
    }
    if sampler is not None:
        # additive block (no schema bump): collapsed wall-clock stacks
        # from the deterministic-interval sampler, heaviest first
        payload["sampler"] = sampler.summary(top=50)

    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "smoke" if smoke else f"{model}_b{batch}"
    path = out_dir / f"BENCH_autotune_{suffix}.json"
    # atomic + fsynced: a crash mid-write leaves the previous report (or
    # nothing), never a torn BENCH_*.json for CI to choke on
    res_atomic.atomic_write_json(
        path, payload, site="bench.write", key=path.name, indent=2)

    echo(f"== bench: {model} batch {batch}"
         f"{' (smoke)' if smoke else ''} ==")
    if gpu_section is not None:
        cold_cps = gpu_section["cold"]["candidates_per_sec"]
        echo(f"engine cold     : {cold.seconds:8.3f} s  "
             f"(pruned {cold.pruned}/{cold.candidates} candidates, "
             f"{cold_cps if cold_cps is not None else '—'} candidates/s)")
        echo(f"engine warm     : {warm.seconds:8.3f} s  "
             f"speedup {gpu_section['speedup_warm']}x  "
             f"(cache hit rate {warm.cache.get('hit_rate', 0.0):.0%})")
        echo(f"identical best tilings: {identical_best}   "
             f"identical figure series: {identical_series}")
    if arm_section:
        echo(f"arm fig7 cold/warm: {arm_section['cold']['seconds']:.3f} s / "
             f"{arm_section['warm']['seconds']:.3f} s "
             f"(speedup {arm_section['speedup_warm']}x)")
    echo(f"wrote {path}")
    if tracer is not None:
        tpath = tracer.write(trace_path, process_name=f"repro bench {suffix}")
        echo(f"wrote trace {tpath}")
    if metrics_path is not None:
        mpath = pathlib.Path(metrics_path)
        # sort_keys keeps the file byte-stable and diffable across runs
        res_atomic.atomic_write_json(
            mpath, payload["metrics"],
            site="bench.metrics", key=mpath.name, indent=2, sort_keys=True,
        )
        echo(f"wrote metrics {mpath}")
    if sampler is not None:
        echo(f"sampler: {sampler.sample_count} samples @ "
             f"{sample_interval_ms:g} ms "
             f"({sampler.missed_ticks} missed ticks, "
             f"{payload['sampler']['distinct_stacks']} stacks)")
        if flamegraph_path is not None:
            from ..obs import htmlreport as obs_htmlreport

            fpath = pathlib.Path(flamegraph_path)
            fpath.parent.mkdir(parents=True, exist_ok=True)
            fpath.write_text(
                obs_htmlreport.flamegraph_svg(sampler.collapsed()),
                encoding="utf-8")
            echo(f"wrote flamegraph {fpath}")
        if stacks_path is not None:
            from ..obs import sampler as obs_sampler

            spath = obs_sampler.write_collapsed(
                sampler.collapsed(), stacks_path)
            echo(f"wrote collapsed stacks {spath}")
    if not (identical_best and identical_series):
        raise AssertionError(
            "bench equivalence check failed: the warm (cached) results "
            f"differ from the cold search (see {path})"
        )
    if save:
        # only verified runs enter the ledger: the equivalence gate above
        # has already vouched that the cache changed nothing
        from ..obs.history import BenchLedger, build_entry

        figures: dict[str, dict[str, list[float]]] = {}
        model_cycles: dict[str, list] = {}
        wall: dict[str, float] = {}
        throughput: dict[str, float] = {}
        if cold is not None:
            model_cycles = dict(warm.best)
            wall.update({"gpu_cold": cold.seconds,
                         "gpu_warm": warm.seconds})
            for phase in (cold, warm):
                figures.update(phase.series)
                cps = phase.candidates_per_sec
                if cps is not None:
                    throughput[f"gpu_{phase.name}"] = cps
        if arm_section is not None:
            wall.update({"arm_cold": arm_cold.seconds,
                         "arm_warm": arm_warm.seconds})
            figures.update(arm_cold.series)
        entry = build_entry(
            kind=payload["kind"],
            model=model,
            batch=batch,
            backends=list(backends),
            timestamp=payload["timestamp"],
            model_cycles=model_cycles,
            figures=figures,
            wall_seconds=wall,
            metrics_snapshot=payload["metrics"],
            throughput=throughput or None,
        )
        try:
            ledger_path = BenchLedger(history_dir).append(entry)
        except (OSError, ReproError) as exc:
            # the bench run itself succeeded and its report is on disk;
            # losing one history line degrades, it does not fail the run
            obs_metrics.counter("ledger_entries", outcome="failed").inc()
            obs_log.warning(
                "ledger_append_failed", logger="repro.perf.bench",
                error=type(exc).__name__,
            )
            echo(f"WARNING: ledger append failed ({type(exc).__name__}); "
                 f"run not recorded in history")
        else:
            echo(f"appended ledger entry {entry['run_id']} -> {ledger_path}")
    return path
