"""Paper-fidelity of the generated streams: Alg. 1's structure is visible
in the rendered listings, register allocations match Sec. 3.3's text."""

import hashlib
import re

import pytest

from repro.arm.assembler import disassemble
from repro.arm.kernels import (
    generate_mla_kernel,
    generate_ncnn_kernel,
    generate_popcount_kernel,
    generate_sdot_kernel,
    generate_smlal_kernel,
)


def listing(kern):
    return [ins.render() for ins in kern.stream]


def test_alg1_interleave_structure():
    """Alg. 1 lines 3-8: {LD1, LD4R} pairs interleave with SMLAL(2) groups
    using alternating register groups (v0/v2~v5 vs v1/v6~v9)."""
    kern = generate_smlal_kernel(4, 8)
    ops = [ins.op for ins in kern.stream]
    # find the first LD1 -> LD4R -> (LD1 -> LD4R ->) SMLAL pattern
    text = " ".join(ops)
    assert "LD1_16B LD4R_B LD1_16B LD4R_B SMLAL_8H" in text
    # both register groups appear as SMLAL sources
    srcs = {ins.src for ins in kern.stream if ins.op == "SMLAL_8H"}
    a_regs = {s[0] for s in srcs}
    assert a_regs == {"v0", "v1"}
    b_regs = {s[1] for s in srcs}
    assert b_regs == {"v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9"}


def test_alg1_register_allocation():
    """Sec. 3.3: v10~v17 hold 16-bit partials, v18~v31 + x0~x3 the 32-bit
    results."""
    kern = generate_smlal_kernel(8, 16)
    acc16 = {ins.dst[0] for ins in kern.stream if ins.op.startswith("SMLAL")}
    assert acc16 == {f"v{i}" for i in range(10, 18)}
    acc32 = {ins.dst[0] for ins in kern.stream if ins.op.startswith("SADDW")}
    assert acc32 <= {f"v{i}" for i in range(18, 32)} | {"v0", "v1"}
    xregs = {ins.dst[0] for ins in kern.stream if ins.op == "MOV_V_TO_X"}
    assert xregs == {"x0", "x1", "x2", "x3"}


def test_mla_register_allocation():
    """Sec. 3.3: v0~v3 read A, v4~v7 read B, v8~v11 8-bit accumulators,
    v12~v19 16-bit, v20~v31 + x0~x7 32-bit."""
    kern = generate_mla_kernel(2, 64)
    mla_srcs_a = {ins.src[0] for ins in kern.stream if ins.op == "MLA_16B"}
    assert mla_srcs_a == {"v0", "v1", "v2", "v3"}
    mla_srcs_b = {ins.src[1] for ins in kern.stream if ins.op == "MLA_16B"}
    assert mla_srcs_b <= {"v4", "v5", "v6", "v7"}
    acc8 = {ins.dst[0] for ins in kern.stream if ins.op == "MLA_16B"}
    assert acc8 == {"v8", "v9", "v10", "v11"}
    acc16 = {ins.dst[0] for ins in kern.stream if ins.op.endswith("_8H")
             and ins.op.startswith("SADDW")}
    assert acc16 == {f"v{i}" for i in range(12, 20)}
    xregs = {ins.dst[0] for ins in kern.stream if ins.op == "MOV_V_TO_X"}
    assert xregs == {f"x{i}" for i in range(8)}


def test_smlal_drain_frequency_by_bits():
    """8-bit drains every 2 steps, 4-bit every 32: the SADDW share of the
    stream shrinks exactly with the paper's ratios."""
    k = 64
    def saddw_per_smlal(bits):
        kern = generate_smlal_kernel(bits, k)
        ops = kern.summary()
        smlal = ops.get("SMLAL_8H", 0) + ops.get("SMLAL2_8H", 0)
        saddw = ops.get("SADDW_4S", 0) + ops.get("SADDW2_4S", 0)
        return saddw / smlal

    assert saddw_per_smlal(8) > 5 * saddw_per_smlal(4)


def test_render_is_parseable_text():
    kern = generate_ncnn_kernel(4)
    for line in listing(kern):
        assert re.match(r"^[A-Z0-9_]+( .*)?$", line)
    text = "\n".join(listing(kern))
    assert "SSHLL_8H" in text  # the widening ncnn relies on


#: sha256 of the rendered listings for K in (1, 7, 64, 333, 1152), each
#: with interleave on then off.  The generators share one object per
#: repeated instruction; the listings must not change by a single line.
_LISTING_DIGESTS = {
    "smlal4": "41d055910e17e86888c64074b057ea2f205956a9208b1afff7cf4e76233a3f09",
    "smlal5": "9cbc5878416a068717601c55e7b1c58a46b7b439721d6d3beeb5b01863fa3fe6",
    "smlal6": "97e77d882b6b9832d37e5950a85012b014eedb0e0ffc85f98a29ed64bdbf7e5d",
    "smlal7": "a5fc97bb2b2df12b28ecd39bc4904fbe7aacd9a889f9589d13b8426a2dc4f619",
    "smlal8": "f40ee15e066c301ed0f19802921d1ecf4d928b427063a9d0904d5c6f9ef37377",
    "mla2": "2ffce053bb6862c9b7ea609679748e714467601242ddfc20ce1032a1e6a3a64c",
    "mla3": "2b16221127b5a6dfc48f3010c9f15f5dc1bad24e629ff81a218805c7c93373ba",
    "ncnn8": "1072fae5ab45782a06d8f6c4cbcd5928b015c827ba48682f30633e70f0334921",
    "sdot8": "2a62de9e688764e84c8d53d4e838c134fbcb56b839887c4c7aa54591aba6352e",
    "popcount2": "c71de396fb1acf48c8d6b62488ce4623c2ac8f3d0e82f46aa0fc49e12889b2f5",
}


@pytest.mark.parametrize("name", sorted(_LISTING_DIGESTS))
def test_streams_render_as_before(name):
    bits = int(name[-1])
    gen = {
        "smlal": lambda k, il: generate_smlal_kernel(bits, k, interleave=il),
        "mla": lambda k, il: generate_mla_kernel(bits, k, interleave=il),
        "ncnn": lambda k, il: generate_ncnn_kernel(k, interleave=il),
        "sdot": lambda k, il: generate_sdot_kernel(k, interleave=il),
        "popcount": lambda k, il: generate_popcount_kernel(k),
    }[name[:-1]]
    digest = hashlib.sha256()
    for k in (1, 7, 64, 333, 1152):
        for interleave in (True, False):
            digest.update(disassemble(gen(k, interleave).stream).encode() + b"\n")
    assert digest.hexdigest() == _LISTING_DIGESTS[name]
