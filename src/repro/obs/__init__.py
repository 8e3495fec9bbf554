"""Observability layer: tracing, metrics and structured logging.

Everything the paper claims rests on measurement — instruction mixes
(Fig. 1/3), profile runs (Sec. 4.5), per-layer speedups (Fig. 7-9) — so
the reproduction carries its own instrumentation:

* :mod:`repro.obs.trace` — spans (``trace.span("autotune", bits=4)``
  context managers, nestable, thread-safe) and structured markers
  (``trace.instant``), each carrying ``TraceContext`` ids.  They are
  recorded only under ``trace.capture()`` (``python -m repro profile``),
  into a :class:`~repro.obs.trace.Recorder` that exports Chrome
  ``trace_event`` JSON for ``chrome://tracing`` / Perfetto.  Outside a
  capture ``span()`` returns a shared null context manager and hot
  paths pay one global read;
* :mod:`repro.obs.sampler` — a deterministic-interval wall-clock stack
  sampler (``profile --flamegraph`` / ``--stacks``) producing collapsed
  stacks for the time spans don't cover;
* :mod:`repro.obs.metrics` — a process-wide registry of labeled counters,
  gauges and histograms, read through one view: the JSON snapshot
  ``profile --metrics`` writes.  Coarse, always-on events (cache
  hits/misses, autotune candidates evaluated/pruned, per-layer cycle
  gauges) cost one dict update each; per-candidate detail (bound gaps,
  schedule stalls) is gated on :func:`trace.active` so the disabled path
  stays free;
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
  counter/histogram deltas — and the standalone SVG flamegraphs, the
  sampled one (``profile --flamegraph``) and the red/blue differential
  one (``diff --flamegraph``).

Wall-clock performance is measured by the end-to-end benchmark,
``benchmarks/e2e/run.py``, not by anything in this package.

The one report of a run is ``python -m repro profile <figure|model>``
(:mod:`repro.obs.report`), which runs one artifact under a fresh capture +
metrics window and emits a text summary (for a model, also the
roofline, CAL/LD and chain-overhead tables) plus ``--trace``/``--metrics``
JSON files and the sampler's ``--flamegraph``/``--stacks``.
"""

from __future__ import annotations

from . import log, metrics, sampler, trace
from .trace import Recorder, active, capture, span

__all__ = [
    "trace",
    "metrics",
    "log",
    "sampler",
    "Recorder",
    "active",
    "capture",
    "span",
]
