"""The end-to-end benchmark's hooks still resolve against the program.

A traced run of ``benchmarks/e2e/run.py`` replaces program attributes by
name (``Backend.prewarm``, ``autotune_conv``, ``MicroKernel.execute``, ...)
and reads counters by label, so a renamed attribute or label crashes it
before any metric is taken.  This test installs the same instrumentation
in a fresh process, then reads one autotune sweep, one
``execute_arm_conv`` and one ``conv2d_implicit_gemm`` back through the
same counters and spans.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

_SCRIPT = """
import json
import numpy as np
import tracing
import worker

rec = tracing.Recorder()
worker.instrument(rec)
from repro.arm.conv_runner import execute_arm_conv
from repro.gpu.autotune import autotune_conv
from repro.gpu.implicit_gemm import conv2d_implicit_gemm
from repro.models import get_model_layers
from repro.types import ConvSpec

autotune_conv(get_model_layers("resnet50")[0], 4)
spec = ConvSpec("hook", in_channels=5, out_channels=9, height=6, width=7,
                kernel=(3, 3), stride=(1, 1), padding=(1, 1))
rng = np.random.default_rng(0)
x = rng.integers(-8, 8, spec.input_shape()).astype(np.int8)
w = rng.integers(-8, 8, spec.weight_shape()).astype(np.int8)
execute_arm_conv(spec, x, w, 4, check_overflow=True)
conv2d_implicit_gemm(spec, np.ascontiguousarray(x.transpose(0, 2, 3, 1)), w, bits=4)
print(json.dumps({"counters": worker._counters(), "tiles": rec.tiles,
                  "spans": sorted({s["name"] for s in rec.spans})}))
"""


def test_benchmark_instrumentation_resolves(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")])
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # read benchmarks/e2e, write nothing there
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["counters"]["autotune_sweeps"] == 1
    # the ARM functional path: one counted MicroKernel.execute call over
    # all tiles, and the stage spans the per-layer metrics are built from
    calls, seconds, instructions = out["tiles"]["MicroKernel.execute"]
    assert calls > 0 and seconds > 0 and instructions > 0
    for name in ("generate_kernel", "im2col", "pack_gemm_operands", "output_from_gemm"):
        assert name in out["spans"], name
    # the GPU functional path builds its offset buffer through the module
    # global that the benchmark wraps
    assert "build_offsets" in out["spans"]
