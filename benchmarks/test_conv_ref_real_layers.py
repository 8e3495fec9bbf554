"""``conv2d_ref`` against its int64 einsum oracle on the real layers.

Every unique ResNet-50 conv runs at full size with 8-bit operands drawn as
``test_sec33_real_layers.py`` draws them (half at the scheme's most
negative value, so the sums run close to their worst case).  These take
the float64 BLAS branch and must equal ``tests/conv_oracle.py`` bit for
bit.  conv16, the longest reduction (K = 4,608), also runs with operands
past the float64 bound, which takes the int64 branch.

Run from the repository root (it imports ``tests.conv_oracle``):
``PYTHONPATH=src python -m pytest benchmarks/test_conv_ref_real_layers.py``.
"""

import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from repro.conv.ref import conv2d_ref  # noqa: E402
from test_sec33_real_layers import LAYERS, heavy_operands  # noqa: E402
from tests.conv_oracle import conv2d_reference  # noqa: E402


def _max_abs(a):
    return max(-int(a.min()), int(a.max()))


@pytest.mark.parametrize("spec", LAYERS, ids=[s.name for s in LAYERS])
def test_real_layer_matches_oracle(spec):
    rng = np.random.default_rng([LAYERS.index(spec), 8])
    x = heavy_operands(rng, spec.input_shape(), 8)
    w = heavy_operands(rng, spec.weight_shape(), 8)
    assert spec.gemm_k * _max_abs(x) * _max_abs(w) < 2**53
    assert np.array_equal(conv2d_ref(spec, x, w), conv2d_reference(spec, x, w))


def test_longest_reduction_past_the_bound_matches_oracle():
    (spec,) = [s for s in LAYERS if s.gemm_k == 4608]
    rng = np.random.default_rng(4608)

    def wide(shape):
        # 8-bit extremes scaled by 2^16 plus random low bits: the exact
        # sums are arbitrary integers near 2^56, where float64 steps by 16
        high = heavy_operands(rng, shape, 8).astype(np.int64) << 16
        return high + rng.integers(0, 1 << 16, shape)

    x, w = wide(spec.input_shape()), wide(spec.weight_shape())
    assert spec.gemm_k * _max_abs(x) * _max_abs(w) >= 2**53
    assert np.array_equal(conv2d_ref(spec, x, w), conv2d_reference(spec, x, w))
