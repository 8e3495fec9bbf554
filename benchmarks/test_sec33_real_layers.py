"""Sec. 3.3 at full scale: every unique ResNet-50 conv at 2~8 bits.

Each layer runs whole through the real generated streams (MLA at 2~3
bits, SMLAL at 4~8, each with its published drain interval) with the
overflow check on, and must equal ``conv2d_ref`` bit for bit.  Operands
are random over the scheme's range with half of them at its most negative
value, so the partial sums run close to their worst case.  Together with
the worst-case chain tests (``test_sec33_chain_ratios.py`` and
``tests/test_arm_real_layers.py``) this certifies the paper's claim that
the published chain lengths never overflow on its real layers.
"""

import numpy as np
import pytest

from repro.arm.conv_runner import execute_arm_conv
from repro.conv.ref import conv2d_ref
from repro.models import get_model_layers
from repro.quant.ranges import scheme_qrange

LAYERS = get_model_layers("resnet50")


def heavy_operands(rng, shape, bits):
    r = scheme_qrange(bits)
    values = rng.integers(r.qmin, r.qmax + 1, shape)
    values[rng.random(shape) < 0.5] = r.qmin
    return values.astype(np.int8)


@pytest.mark.parametrize("bits", range(2, 9))
@pytest.mark.parametrize("spec", LAYERS, ids=[s.name for s in LAYERS])
def test_real_layer_is_bit_exact(spec, bits):
    rng = np.random.default_rng([LAYERS.index(spec), bits])
    x = heavy_operands(rng, spec.input_shape(), bits)
    w = heavy_operands(rng, spec.weight_shape(), bits)
    out = execute_arm_conv(spec, x, w, bits, check_overflow=True)
    assert np.array_equal(out, conv2d_ref(spec, x, w))
