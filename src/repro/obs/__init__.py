"""Observability layer: tracing, metrics and structured logging.

Everything the paper claims rests on measurement — instruction mixes
(Fig. 1/3), profile runs (Sec. 4.5), per-layer speedups (Fig. 7-9) — so
the reproduction carries its own instrumentation:

* :mod:`repro.obs.trace` — a span-based tracer (``trace.span("autotune",
  bits=4)`` context managers, nestable, thread-safe) exporting Chrome
  ``trace_event`` JSON viewable in ``chrome://tracing`` / Perfetto.
  Without a tracer installed (``trace.capture()``, ``python -m repro
  profile``) spans are not collected per-run, but they still land in the
  flight recorder below; with *both* off, ``span()`` returns a shared
  null context manager and hot paths pay two global reads;
* :mod:`repro.obs.flight` — the always-on bounded ring-buffer **flight
  recorder** (``REPRO_FLIGHT=0`` to disable): every span and structured
  instant event from any thread or worker lands in one process-wide ring
  carrying ``TraceContext`` ids, so ``python -m repro flight --dump``
  can export the last N seconds as a parent-linked Chrome trace *after*
  something interesting happened;
* :mod:`repro.obs.sampler` — a deterministic-interval wall-clock stack
  sampler (``bench/profile --profile-sample``) producing collapsed
  stacks and flamegraph SVGs for the time spans don't cover;
* :mod:`repro.obs.export` — OpenMetrics/Prometheus text exposition of
  the metrics registry with span-id exemplars (``python -m repro
  metrics-export [--serve PORT]``) plus the ``python -m repro top``
  live terminal view, validated by a strict in-repo parser;
* :mod:`repro.obs.metrics` — a process-wide registry of labeled counters,
  gauges and histograms.  Coarse, always-on events (cache hits/misses,
  autotune candidates evaluated/pruned, per-layer cycle gauges) cost one
  dict update each; per-candidate detail (bound gaps, schedule stalls) is
  gated on :func:`trace.active` so the disabled path stays free;
* :mod:`repro.obs.log` — an env-gated structured logger
  (``REPRO_LOG=debug|info|warning``) that turns the library's silent
  degradation paths (corrupt cache entries, stale persisted results,
  executor fallbacks) into key=value events on stderr.  Without the env
  var set, records still propagate to :mod:`logging` (so tests and host
  applications can capture them) but nothing is printed.

Derived analytics build on those primitives:

* :mod:`repro.obs.roofline` — per-layer arithmetic intensity and
  %-of-roof from the backend cost models, the Fig. 1 CAL/LD ratio and
  the Sec. 3.3 accumulation-chain overhead as live gauges;
* :mod:`repro.obs.history` — the append-only JSONL ledger ``bench
  --save`` writes (schema v3: git sha, machine fingerprint, per-figure
  cycles, wall clock, metrics);
* :mod:`repro.obs.regress` — ``python -m repro regress``, the CI
  perf-regression sentinel over that ledger (cycles bit-identical, wall
  clock within a noise-aware median threshold; ``--attribute`` explains
  failures via the diff engine below);
* :mod:`repro.obs.diff` — differential profiling (``python -m repro
  diff A B``): ranked attribution between two runs — tree-aligned span
  deltas, wall-clock phase deltas, counter/histogram deltas, ledger
  changepoint detection, and the red/blue differential flamegraph;
* :mod:`repro.obs.htmlreport` — the self-contained ``python -m repro
  report --html`` dashboard (roofline scatter, chain-overhead bars,
  ledger trends, attribution card; no external assets).

The text reporting surface is ``python -m repro profile <figure|model>``
(:mod:`repro.obs.report`), which runs one artifact under a fresh tracer +
metrics window and emits a text summary plus ``--trace``/``--metrics``
JSON files.
"""

from __future__ import annotations

from . import export, flight, log, metrics, sampler, trace
from .trace import Tracer, active, capture, span

__all__ = [
    "trace",
    "metrics",
    "log",
    "flight",
    "sampler",
    "export",
    "Tracer",
    "active",
    "capture",
    "span",
]
