"""``python -m repro profile`` — run one artifact under full observability.

Runs a figure (``fig7``..``fig17``, ``tab1``) or a whole model
(``resnet50`` | ``scr-resnet50`` | ``densenet121``, priced end-to-end on
every registered backend — or one, with ``--backend``) inside a fresh
capture + metrics window, then reports:

* a text summary — wall time, span totals by name, cache hit/miss rates,
  autotune evaluated/pruned tallies, the hottest per-layer cycle entries;
* for a model target, the tables that explain its numbers
  (:mod:`repro.obs.roofline`): each backend's roofline over every
  (layer, bits) point with its ASCII plot, the Fig. 1 CAL/LD ratio of
  every layer ending in its geomean, and the Sec. 3.3 chain overhead;
* ``--trace out.json`` — the Chrome ``trace_event`` file (open in
  ``chrome://tracing`` or https://ui.perfetto.dev);
* ``--metrics out.json`` — the full metrics snapshot, the registry's one
  view (``repro diff`` reads it);
* ``--flamegraph out.svg`` / ``--stacks out.txt`` — what the wall-clock
  stack sampler saw, as an SVG flamegraph or as collapsed stacks (either
  starts the sampler; ``--profile-sample MS`` sets its interval).

The metrics window is process-global, so the command resets the registry
up front: the emitted numbers describe this run only.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
from collections import defaultdict
from typing import Callable, Sequence

from . import metrics as obs_metrics
from . import sampler as obs_sampler
from . import trace as obs_trace

MODELS = ("resnet50", "scr-resnet50", "densenet121")


def resolve_target(
    target: str, model: str, batch: int, backend: str | None = None
) -> Callable[[], object]:
    """A zero-argument callable reproducing ``target`` (or raise KeyError),
    which :func:`run_profile` runs under a capture and a fresh metrics
    window."""
    if target in MODELS:
        def run_model():
            from ..backends import available_backends
            from ..models import get_model_layers
            from ..runtime.network import estimate_model_cycles

            names = (backend,) if backend else available_backends()
            layers = get_model_layers(target, batch=batch)
            return {
                name: estimate_model_cycles(layers, 8, name)
                for name in names
            }

        return run_model
    if target == "tab1":
        from ..figures import tab1_configurations

        return tab1_configurations
    from ..figures import figure_registry

    registry = figure_registry()
    if target not in registry:
        raise KeyError(target)
    fn = registry[target]
    return lambda: fn(model=model, batch=batch)


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def _span_summary(spans: list[obs_trace.Event], limit: int = 12) -> list[str]:
    groups: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        groups[s.name].append(s.dur_us)
    if not groups:
        return ["  (no spans recorded)"]
    rows = sorted(
        ((sum(durs), len(durs), max(durs), name)
         for name, durs in groups.items()),
        reverse=True,
    )
    lines = [f"  {'span':<28} {'count':>6} {'total ms':>10} {'max ms':>9}"]
    for total, count, peak, name in rows[:limit]:
        lines.append(
            f"  {name:<28} {count:>6} {total / 1e3:>10.3f} {peak / 1e3:>9.3f}"
        )
    if len(rows) > limit:
        lines.append(f"  ... {len(rows) - limit} more span names")
    return lines


def _counter_summary(counters: dict[str, float]) -> list[str]:
    if not counters:
        return ["  (no counters recorded)"]
    return [f"  {key:<52} {value}" for key, value in counters.items()]


def _histogram_summary(histograms: dict[str, dict]) -> list[str]:
    lines = []
    for key, h in histograms.items():
        lines.append(
            f"  {key:<40} n={h['count']} mean={h['mean']:.4g} "
            f"min={h['min']:.4g} max={h['max']:.4g}"
        )
    return lines or ["  (no histograms recorded)"]


def _gauge_summary(gauges: dict[str, float], limit: int = 10) -> list[str]:
    """Per-layer cycle gauges grouped by metric name, largest first."""
    by_name: dict[str, list[tuple[float, str]]] = defaultdict(list)
    for key, value in gauges.items():
        name = key.split("{", 1)[0]
        by_name[name].append((value, key))
    lines = []
    for name in sorted(by_name):
        entries = sorted(by_name[name], reverse=True)
        lines.append(f"  {name}: {len(entries)} series")
        for value, key in entries[:limit]:
            label = key[len(name):].strip("{}")
            lines.append(f"    {label:<46} {value:.6g}")
        if len(entries) > limit:
            lines.append(f"    ... {len(entries) - limit} more")
    return lines or ["  (no gauges recorded)"]


#: the gauge families :func:`_model_tables` prints in full
_TABLED_GAUGES = frozenset({
    "roofline_intensity", "roofline_pct_of_roof", "gemm_cal_ld",
    "gemm_cal_ld_improvement", "chain_overhead_fraction"})


def _model_tables(model: str, backends: Sequence[str], batch: int) -> list[str]:
    """Each backend's roofline table and plot, then the CAL/LD and
    chain-overhead tables; their gauges land in the run's metrics."""
    from ..errors import ReproError
    from . import roofline as obs_roofline

    lines: list[str] = []
    for name in backends:
        try:
            points = obs_roofline.model_roofline(model, name, batch=batch)
        except ReproError:  # a backend without roofline hooks
            continue
        lines.append(f"roofline [{name}]:")
        lines += obs_roofline.roofline_table(points)
        lines += obs_roofline.ascii_roofline(points)
    lines.append("CAL/LD ratio (Fig. 1):")
    lines += obs_roofline.cal_ld_lines(
        obs_roofline.model_cal_ld(model, batch=batch))
    lines.append("accumulation-chain overhead (Sec. 3.3):")
    lines += obs_roofline.chain_overhead_lines(
        obs_roofline.chain_overhead_table())
    return lines


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_profile(
    target: str,
    *,
    model: str = "resnet50",
    batch: int = 1,
    backend: str | None = None,
    trace_path: str | os.PathLike | None = None,
    metrics_path: str | os.PathLike | None = None,
    sample_interval_ms: float | None = None,
    flamegraph_path: str | os.PathLike | None = None,
    stacks_path: str | os.PathLike | None = None,
    echo: Callable[[str], None] = print,
) -> int:
    """Profile one artifact; returns a process exit code.

    ``backend`` restricts model targets to one registered backend
    (default: price on every registered backend); figure targets carry
    their backend by construction and ignore it.  The wall-clock stack
    sampler runs over the run when any of ``sample_interval_ms`` (its
    tick interval, ``--profile-sample``), ``flamegraph_path`` or
    ``stacks_path`` is given, and the summary lists the hottest
    collapsed stacks; ``flamegraph_path`` writes them as an SVG
    flamegraph and ``stacks_path`` as collapsed-stack text — two
    ``--stacks`` exports are exactly what ``repro diff A.txt B.txt
    --flamegraph`` consumes.  An unknown target or backend, or an
    interval that is not a finite number above 0, prints one stderr
    line and returns 2 before anything runs.
    """
    if backend is not None:
        from ..backends import get_backend
        from ..errors import ReproError

        try:
            get_backend(backend)
        except ReproError as exc:
            print(exc, file=sys.stderr)
            return 2
    try:
        runner = resolve_target(target, model, batch, backend)
    except KeyError:
        print(f"unknown profile target {target!r}; use fig7..fig17, tab1, "
              f"or one of {', '.join(MODELS)}", file=sys.stderr)
        return 2

    sampler = None
    if (sample_interval_ms is not None or flamegraph_path is not None
            or stacks_path is not None):
        if sample_interval_ms is None:
            sample_interval_ms = obs_sampler.DEFAULT_INTERVAL_S * 1e3
        try:
            sampler = obs_sampler.StackSampler(
                interval_s=sample_interval_ms / 1e3)
        except ValueError:
            print(f"--profile-sample must be a finite number of ms above "
                  f"0, got {sample_interval_ms:g}", file=sys.stderr)
            return 2
    obs_metrics.reset()
    t0 = time.perf_counter()
    try:
        if sampler is not None:
            sampler.start()
        with obs_trace.capture() as rec:
            with obs_trace.span("profile", target=target, model=model,
                                batch=batch):
                result = runner()
    except BaseException:
        # a failing figure must not leak this run's half-filled metrics
        # window into later callers/tests (capture() already restores the
        # previous capture on its own finally path)
        obs_metrics.reset()
        raise
    finally:
        if sampler is not None:
            sampler.stop()
    seconds = time.perf_counter() - t0

    model_lines: list[str] = []
    if target in MODELS:
        model_lines = _model_tables(
            target, (backend,) if backend else tuple(result), batch)
    snap = obs_metrics.snapshot()

    echo(f"== profile {target} (model {model}, batch {batch}) ==")
    spans = rec.spans()
    echo(f"wall time: {seconds:.3f} s   spans: {len(spans)}")
    echo("spans by total time:")
    for line in _span_summary(spans):
        echo(line)
    echo("counters:")
    for line in _counter_summary(snap["counters"]):
        echo(line)
    echo("histograms:")
    for line in _histogram_summary(snap["histograms"]):
        echo(line)
    echo("per-layer cycles (gauges):")
    gauges = snap["gauges"]
    if model_lines:  # the tables below print these families in full
        gauges = {key: value for key, value in gauges.items()
                  if key.split("{", 1)[0] not in _TABLED_GAUGES}
    for line in _gauge_summary(gauges):
        echo(line)
    for line in model_lines:
        echo(line)
    if sampler is not None:
        counts = sampler.collapsed()
        echo(f"sampler: {sampler.sample_count} samples @ "
             f"{sample_interval_ms:g} ms "
             f"({sampler.missed_ticks} missed ticks, "
             f"{len(counts)} stacks)")
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for stack, n in ordered[:8]:
            leaf = stack.rsplit(";", 2)[-2:]
            echo(f"  {n:>5}  {';'.join(leaf)}")

    if trace_path is not None:
        path = rec.write(trace_path, process_name=f"repro profile {target}")
        echo(f"wrote trace    {path}  (open in chrome://tracing or Perfetto)")
    if metrics_path is not None:
        payload = {
            "target": target,
            "model": model,
            "batch": batch,
            "wall_seconds": round(seconds, 6),
            **snap,
        }
        path = pathlib.Path(metrics_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # sort_keys keeps the file byte-stable and diffable across runs
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        echo(f"wrote metrics  {path}")
    if flamegraph_path is not None:
        from . import diff as obs_diff

        fpath = pathlib.Path(flamegraph_path)
        fpath.parent.mkdir(parents=True, exist_ok=True)
        fpath.write_text(obs_diff.flamegraph_svg(sampler.collapsed()),
                         encoding="utf-8")
        echo(f"wrote flamegraph {fpath}")
    if stacks_path is not None:
        spath = obs_sampler.write_collapsed(sampler.collapsed(), stacks_path)
        echo(f"wrote collapsed stacks {spath}")
    return 0
