"""Observability layer: tracing, metrics and structured logging.

Everything the paper claims rests on measurement — instruction mixes
(Fig. 1/3), profile runs (Sec. 4.5), per-layer speedups (Fig. 7-9) — so
the reproduction carries its own instrumentation:

* :mod:`repro.obs.trace` — spans (``trace.span("autotune", bits=4)``
  context managers, nestable, thread-safe) and structured markers
  (``trace.instant``), each carrying ``TraceContext`` ids and recorded
  into :class:`~repro.obs.trace.Recorder` buffers that export Chrome
  ``trace_event`` JSON for ``chrome://tracing`` / Perfetto.  The
  always-on bounded **ring** (``REPRO_FLIGHT=0`` to disable) lets
  ``python -m repro flight --dump`` export the last N seconds *after*
  something interesting happened; ``trace.capture()`` (``python -m repro
  profile``) adds an unbounded recorder for one block.  With no recorder
  on, ``span()`` returns a shared null context manager and hot paths pay
  one global read;
* :mod:`repro.obs.sampler` — a deterministic-interval wall-clock stack
  sampler (``profile --profile-sample``) producing collapsed stacks and
  flamegraph SVGs for the time spans don't cover;
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
* :mod:`repro.obs.diff` — differential profiling (``python -m repro
  diff A B``): ranked attribution between two traces, collapsed-stack
  files or metrics snapshots — tree-aligned span deltas,
  counter/histogram deltas and the red/blue differential flamegraph;
* :mod:`repro.obs.htmlreport` — the self-contained ``python -m repro
  report --html`` dashboard (roofline scatter, chain-overhead bars,
  optional flamegraph, differential-flamegraph and serving cards; no
  external assets).

Wall-clock performance is measured by the end-to-end benchmark,
``benchmarks/e2e/run.py``, not by anything in this package.

The text reporting surface is ``python -m repro profile <figure|model>``
(:mod:`repro.obs.report`), which runs one artifact under a fresh capture +
metrics window and emits a text summary plus ``--trace``/``--metrics``
JSON files.
"""

from __future__ import annotations

from . import export, log, metrics, sampler, trace
from .trace import Recorder, active, capture, span

__all__ = [
    "trace",
    "metrics",
    "log",
    "sampler",
    "export",
    "Recorder",
    "active",
    "capture",
    "span",
]
