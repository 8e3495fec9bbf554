"""The GPU implicit-GEMM conv at full scale: every unique ResNet-50 conv.

Each layer runs whole through ``conv2d_implicit_gemm`` at 4 and 8 bits, on
the default tiling and on the tiling the autotuner picks for it, and must
equal ``conv2d_ref`` bit for bit.  Operands are random over the signed
range with half of them at its most negative value, so every k-tile
partial runs close to the ``KTile * 2^(2*bits-2)`` bound that makes the
float64 k-tile GEMMs exact (DESIGN.md §5.18).  The 38 default-tiling
convs take about 1.3 s in one process on a 2-vCPU container.
"""

import numpy as np
import pytest

from repro.conv.ref import conv2d_ref
from repro.gpu.autotune import autotune_conv
from repro.gpu.implicit_gemm import conv2d_implicit_gemm
from repro.gpu.tiling import default_tiling
from repro.models import get_model_layers

LAYERS = get_model_layers("resnet50")


def extreme_operands(rng, shape, bits):
    half = 1 << (bits - 1)
    values = rng.integers(-half, half, shape)
    values[rng.random(shape) < 0.5] = -half
    return values.astype(np.int8)


@pytest.mark.parametrize("tuned", [False, True], ids=["default", "tuned"])
@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("spec", LAYERS, ids=[s.name for s in LAYERS])
def test_real_layer_is_bit_exact(spec, bits, tuned, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    tiling = autotune_conv(spec, bits).best if tuned else default_tiling(bits)
    rng = np.random.default_rng([LAYERS.index(spec), bits])
    x = extreme_operands(rng, spec.input_shape(), bits)
    w = extreme_operands(rng, spec.weight_shape(), bits)
    out = conv2d_implicit_gemm(spec, np.ascontiguousarray(x.transpose(0, 2, 3, 1)),
                               w, bits=bits, tiling=tiling)
    assert out.tiling == tiling
    assert np.array_equal(out.data, conv2d_ref(spec, x, w).transpose(0, 2, 3, 1))
