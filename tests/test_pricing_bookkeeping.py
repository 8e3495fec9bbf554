"""What pricing costs around the search: the in-process memo and imports.

A memo hit hashes nothing: the memo is keyed by the sweep context's
digest, the shape and the bits with their type, so the sha256 of a
sweep's store key runs only for sweeps that miss it, and equal values of
other types stay separate entries.  Cache keys fingerprint the cost-model
sources by module name, read from their files, so a pricing process
imports no ARM functional simulator.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro.gpu.autotune import autotune_many, clear_cache
from repro.obs import metrics as obs_metrics
from repro.perf.cache import CACHE_DIR_ENV
from repro.resilience.faults import fault_plan
from repro.types import GemmShape

# the module, not the package's ``autotune`` function of the same name
autotune_mod = importlib.import_module("repro.gpu.autotune")


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    clear_cache()
    with fault_plan(None):
        yield
    clear_cache()


def test_memo_hits_hash_nothing(monkeypatch):
    """Pricing items a prewarm already searched, repeats included, calls
    neither ``_digest`` nor ``hashlib.sha256``: the memo is keyed by the
    context digest, the shape and the bits."""
    import hashlib

    from repro.backends.gpu import GpuBackend
    from repro.models import get_model_layers

    work = [(spec, bits, epilogue) for spec in get_model_layers("resnet50")[:4]
            for bits in (4, 8) for epilogue in (None, "requant", "dequant")]
    work += work[::3]
    gpu = GpuBackend()
    gpu.prewarm(work)
    calls = []
    digest, sha256 = autotune_mod._digest, hashlib.sha256
    monkeypatch.setattr(autotune_mod, "_digest",
                        lambda *a: calls.append("digest") or digest(*a))
    monkeypatch.setattr(hashlib, "sha256",
                        lambda *a: calls.append("sha256") or sha256(*a))
    for spec, bits, epilogue in work:
        gpu.price_conv(spec, bits, epilogue)
    assert calls == []
    gpu.price_conv(get_model_layers("resnet50")[5], 4)  # a miss hashes
    assert "digest" in calls and "sha256" in calls




def test_memo_keeps_value_types_apart(monkeypatch):
    """Bits ``4`` and ``4.0``, and kwarg values ``1``, ``1.0`` and
    ``True``, are separate memo entries, as they are separate store keys:
    each is searched once, then answered from its own entry."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    gemm = GemmShape(3136, 576, 64)
    sweeps = [(gemm, 4, {}), (gemm, 4.0, {})] + [
        (gemm, 8, {"out_elem_bytes": v}) for v in (1, 1.0, True)]
    counted = obs_metrics.counter("autotune_sweeps", engine="pruned")
    before = counted.value
    results = autotune_many(sweeps)
    assert counted.value - before == len(autotune_mod._MEM_CACHE) == 5
    for sweep, result in zip(sweeps, results):
        assert autotune_many([sweep])[0] is result
    assert counted.value - before == 5
    assert len({autotune_mod._sweep_digest(g, b, autotune_mod.TU102, kw)
                for g, b, kw in sweeps}) == 5




def test_pricing_imports_no_functional_simulator(tmp_path):
    """Pricing ResNet-50 on ``arm`` and ``gpu`` fingerprints its cache
    keys by module name: a cold process imports neither the ARM compiler,
    the assembler nor the SDOT generator, and a warm one nothing under
    ``repro.arm.kernels``."""
    code = ("import sys\n"
            "from repro.backends import get_backend\n"
            "from repro.models import get_model_layers\n"
            "layers = get_model_layers('resnet50')\n"
            "for name in ('arm', 'gpu'):\n"
            "    backend = get_backend(name)\n"
            "    work = [(spec, bits, None) for spec in layers for bits in (4, 8)]\n"
            "    backend.prewarm(work)\n"
            "    for spec, bits, epilogue in work:\n"
            "        backend.price_conv(spec, bits, epilogue)\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro.arm'))))\n")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    loaded = []
    for _ in ("cold", "warm"):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        loaded.append(set(proc.stdout.split()))
    cold, warm = loaded
    assert "repro.arm.cost_model" in cold and "repro.arm.kernels.smlal_scheme" in cold
    assert not cold & {"repro.arm.compiled", "repro.arm.assembler",
                       "repro.arm.kernels.sdot_scheme"}
    assert "repro.arm.cost_model" in warm
    assert not {m for m in warm if m.startswith("repro.arm.kernels")}
    assert not warm & {"repro.arm.compiled", "repro.arm.assembler"}
