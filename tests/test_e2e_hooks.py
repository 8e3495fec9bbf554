"""The end-to-end benchmark's hooks still resolve against the program.

A traced run of ``benchmarks/e2e/run.py`` replaces program attributes by
name (``Backend.prewarm``, ``autotune_conv``, ``MicroKernel.execute``, ...)
and reads counters by label, so a renamed attribute or label crashes it
before any metric is taken.  This test installs the same instrumentation
in a fresh process and reads one sweep back through the same counters.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

_SCRIPT = """
import json
import tracing
import worker

worker.instrument(tracing.Recorder())
from repro.gpu.autotune import autotune_conv
from repro.models import get_model_layers

autotune_conv(get_model_layers("resnet50")[0], 4)
print(json.dumps(worker._counters()))
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
    counters = json.loads(proc.stdout.splitlines()[-1])
    assert counters["autotune_sweeps"] == 1
