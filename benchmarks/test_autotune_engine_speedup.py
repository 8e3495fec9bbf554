"""The GPU autotune engine against the reference sweep: same answer, >=10x.

Figs. 10 and 11 on ResNet-50 are regenerated twice in one process:

* through :func:`~repro.gpu.autotune.autotune_reference`, the exhaustive
  serial sweep, with every ``autotune_many`` call routed to it and each
  distinct sweep memoized in-process (``tests/autotune_oracle.py``);
* through the production engine (pruned, batched, vectorized) on an empty
  persistent cache directory.

The figure series, and the best tiling and cycles of every (layer, bits),
must be identical, and the engine must be at least 10x faster.  Without
the memo the reference would sweep repeated shapes again and inflate the
ratio.  Run from the repository root
(``PYTHONPATH=src python -m pytest benchmarks/test_autotune_engine_speedup.py``).
"""

import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from repro.figures import GPU_BITS, fig10_gpu_speedups, fig11_gpu_autotune  # noqa: E402
from repro.gpu.autotune import autotune_conv, clear_cache  # noqa: E402
from repro.models import get_model_layers  # noqa: E402
from tests.autotune_oracle import route_to_reference  # noqa: E402

MODEL = "resnet50"
MIN_SPEEDUP = 10.0


def _regenerate():
    """(seconds, figure series, best tiling and cycles per layer/bits)."""
    clear_cache()
    t0 = time.perf_counter()
    series = {}
    for fig in (fig10_gpu_speedups(MODEL), fig11_gpu_autotune(MODEL)):
        series[fig.figure] = (
            {s.name: list(s.values) for s in fig.series},
            list(fig.baseline_times),
        )
    seconds = time.perf_counter() - t0
    best = {}
    for spec in get_model_layers(MODEL):
        for bits in GPU_BITS:
            res = autotune_conv(spec, bits)
            best[spec.name, bits] = (res.best, res.best_cycles)
    return seconds, series, best


def test_engine_matches_reference_at_least_10x_faster(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    try:
        with monkeypatch.context() as m:
            route_to_reference(m)
            ref_s, ref_series, ref_best = _regenerate()
        engine_s, engine_series, engine_best = _regenerate()
    finally:
        clear_cache()
    assert engine_series == ref_series
    assert engine_best == ref_best
    speedup = ref_s / engine_s
    print(f"\nreference {ref_s:.3f} s, engine {engine_s:.3f} s: {speedup:.1f}x")
    assert speedup >= MIN_SPEEDUP, f"engine only {speedup:.1f}x faster"
