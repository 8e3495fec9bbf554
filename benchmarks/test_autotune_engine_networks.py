"""The GPU autotune engine against the reference sweep on every network.

``test_autotune_engine_speedup.py`` checks ResNet-50's Fig. 10/11 shapes.
This test takes every unique conv of ResNet-50, SCR-ResNet-50 and
DenseNet-121 at batch 1 and 16 and at 4 and 8 bits, and searches each
distinct sweep twice in one process: through ``autotune_reference`` in
``tests/autotune_oracle.py`` (the exhaustive serial sweep, reached with
``route_to_reference``), then through the production engine (pruned,
batched, bounded once per block tile) on an empty persistent cache
directory.  Each sweep's winner and ``best_perf`` must be the
reference's.  The same sweeps, in the engine's passes, must also give
equal results, tallies included, through one search pass of the engine
and through ``search_by_lanes`` in ``tests/autotune_oracle.py`` (the
pass a lane object per sweep).  Run from the repository root
(``PYTHONPATH=src python -m pytest benchmarks/test_autotune_engine_networks.py``).
"""

import importlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from repro.gpu.device import TU102  # noqa: E402
from repro.gpu.pipelinemodel import conv_gemm_shape  # noqa: E402
from repro.models import get_model_layers  # noqa: E402
from tests.autotune_oracle import route_to_reference, search_by_lanes  # noqa: E402

# the module, not the package's ``autotune`` function of the same name
autotune_mod = importlib.import_module("repro.gpu.autotune")

MODELS = ("resnet50", "scr-resnet50", "densenet121")


def _sweeps():
    return [(gemm, bits, {}) for gemm, bits in dict.fromkeys(
        (conv_gemm_shape(spec.with_batch(batch)), bits)
        for model in MODELS for bits in (4, 8) for batch in (1, 16)
        for spec in get_model_layers(model))]


def test_engine_matches_reference_on_every_network(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    sweeps = _sweeps()
    assert len(sweeps) == 212  # of 216 (conv, batch, bits) points
    autotune_mod.clear_cache()
    try:
        with monkeypatch.context() as m:
            route_to_reference(m)
            reference = autotune_mod.autotune_many(sweeps)
        engine = autotune_mod.autotune_many(sweeps)
    finally:
        autotune_mod.clear_cache()
    for (gemm, bits, _), ref, res in zip(sweeps, reference, engine, strict=True):
        assert res.best == ref.best, (gemm, bits)
        assert res.best_perf == ref.best_perf, (gemm, bits)
        assert res.candidates == ref.candidates == res.evaluated + res.pruned


def test_pass_matches_the_lane_search_on_every_network():
    sweeps = _sweeps()
    autotune_mod.clear_cache()
    try:
        for bits in (4, 8):
            gemms = [gemm for gemm, b, _ in sweeps if b == bits]
            space = autotune_mod._legal_candidates(bits, TU102)
            for start in range(0, len(gemms), autotune_mod._PASS_SWEEPS):
                part = gemms[start:start + autotune_mod._PASS_SWEEPS]
                engine = autotune_mod._search(part, bits, *space, TU102, {})
                assert engine == search_by_lanes(part, bits, *space, TU102, {})
    finally:
        autotune_mod.clear_cache()
