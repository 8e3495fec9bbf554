"""The ARM pipeline scheduler against its per-instruction oracle, at scale.

:meth:`repro.arm.pipeline.PipelineModel.schedule` fast-forwards the
periodic part of a stream; the cycle counts behind Figs. 7, 8, 9, 14 and
15 are only as good as that shortcut.  Two sets of streams must give the
oracle's :class:`~repro.arm.pipeline.PipelineResult` field for field:

* every stream the figures schedule on an empty cache (112 streams);
* every unique GEMM reduction length K of ResNet-50, SCR-ResNet-50 and
  DenseNet-121 up to 4,608, for each scheme and width, with and without
  the load interleaving.

The oracle lives in ``tests/pipeline_oracle.py``; run from the repository
root (``PYTHONPATH=src python -m pytest benchmarks/test_arm_schedule_equivalence.py``).
"""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from repro.arm import cost_model  # noqa: E402
from repro.arm.kernels import (  # noqa: E402
    generate_mla_kernel,
    generate_ncnn_kernel,
    generate_popcount_kernel,
    generate_sdot_kernel,
    generate_smlal_kernel,
)
from repro.arm.pipeline import PipelineModel  # noqa: E402
from repro.figures import figure_registry  # noqa: E402
from repro.models import get_model_layers  # noqa: E402
from tests.pipeline_oracle import schedule_reference  # noqa: E402

NETWORK_KS = sorted({
    spec.gemm_k
    for model in ("resnet50", "scr-resnet50", "densenet121")
    for spec in get_model_layers(model)
    if spec.gemm_k <= 4608
})

SCHEMES = {
    **{f"smlal{b}": (lambda k, il, b=b: generate_smlal_kernel(b, k, interleave=il))
       for b in (4, 5, 6, 7, 8)},
    **{f"mla{b}": (lambda k, il, b=b: generate_mla_kernel(b, k, interleave=il))
       for b in (2, 3)},
    "ncnn8": lambda k, il: generate_ncnn_kernel(k, interleave=il),
    "sdot8": lambda k, il: generate_sdot_kernel(k, interleave=il),
    "popcount2": lambda k, il: generate_popcount_kernel(k),
}


def assert_same_schedule(stream, what):
    got = PipelineModel().schedule(stream).to_json()
    assert got == schedule_reference(stream).to_json(), what


def test_figure_streams_schedule_as_the_oracle(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    streams = []

    class Recording(PipelineModel):
        def schedule(self, stream):
            streams.append(stream)
            return super().schedule(stream)

    monkeypatch.setattr(cost_model, "PipelineModel", Recording)
    cost_model.clear_schedule_cache()
    try:
        for fn in figure_registry().values():
            fn()
    finally:
        cost_model.clear_schedule_cache()
    assert len(streams) == 112
    for i, stream in enumerate(streams):
        assert_same_schedule(stream, f"figure stream {i} ({len(stream)} instructions)")


@pytest.mark.parametrize("interleave", [True, False], ids=["interleaved", "plain"])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_network_reductions_schedule_as_the_oracle(scheme, interleave):
    for k in NETWORK_KS:
        assert_same_schedule(SCHEMES[scheme](k, interleave).stream, f"{scheme} K={k}")
