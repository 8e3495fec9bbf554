"""Assembler/disassembler round-trip for kernel listings."""

import numpy as np
import pytest

from repro.arm.assembler import assemble, disassemble, parse_line, roundtrip
from repro.arm.isa import Instr, MemRef
from repro.arm.kernels import (
    generate_mla_kernel,
    generate_ncnn_kernel,
    generate_popcount_kernel,
    generate_sdot_kernel,
    generate_smlal_kernel,
)
from repro.arm.kernels.base import MicroKernel
from repro.conv.padding import pack_a, pack_b
from repro.errors import SimulationError


def test_parse_simple_forms():
    assert parse_line("SMLAL_8H {v10} {v0, v2}") == Instr(
        "SMLAL_8H", dst=("v10",), src=("v0", "v2"))
    assert parse_line("LD4R_B {v2, v3, v4, v5} [B+12]") == Instr(
        "LD4R_B", dst=("v2", "v3", "v4", "v5"), mem=MemRef("B", 12))
    assert parse_line("SDOT_4S_LANE {v8} {v0, v4} [3]") == Instr(
        "SDOT_4S_LANE", dst=("v8",), src=("v0", "v4"), lane=3)
    assert parse_line("SUBS {x9} {x9} #32") == Instr(
        "SUBS", dst=("x9",), src=("x9",), imm=32)
    assert parse_line("B_NE") == Instr("B_NE")


def test_comments_and_blanks():
    assert parse_line("; pure comment") is None
    assert parse_line("   ") is None
    assert parse_line("B_NE ; trailing comment") == Instr("B_NE")


def test_parse_errors():
    with pytest.raises(SimulationError):
        parse_line("NOT_AN_OP {v0}")
    with pytest.raises(SimulationError):
        parse_line("LD1_16B {v0} [weird bracket]")
    with pytest.raises(SimulationError):
        assemble("B_NE\nGARBAGE LINE !!!")


@pytest.mark.parametrize("gen", [
    lambda: generate_smlal_kernel(4, 40),
    lambda: generate_smlal_kernel(8, 12),
    lambda: generate_mla_kernel(2, 35),
    lambda: generate_ncnn_kernel(9),
    lambda: generate_sdot_kernel(20),
    lambda: generate_popcount_kernel(200),
])
def test_every_kernel_roundtrips(gen):
    kern = gen()
    assert tuple(roundtrip(kern.stream)) == kern.stream


def test_assembled_stream_executes_identically():
    """A kernel listing parsed back from text computes the same tile."""
    rng = np.random.default_rng(0)
    k = 24
    a = rng.integers(-8, 8, (16, k)).astype(np.int8)
    b = rng.integers(-8, 8, (k, 4)).astype(np.int8)
    kern = generate_smlal_kernel(4, k)
    reparsed = MicroKernel(
        name=kern.name, code=tuple(assemble(disassemble(kern.stream))),
        m_r=kern.m_r, n_r=kern.n_r, k=kern.k, bits=kern.bits,
        a_bytes=kern.a_bytes, b_bytes=kern.b_bytes, c_bytes=kern.c_bytes,
    )
    ap, bp = pack_a(a, 16), pack_b(b, 4)
    assert np.array_equal(kern.execute(ap, bp), reparsed.execute(ap, bp))


def test_disassemble_is_readable():
    text = disassemble(generate_smlal_kernel(4, 4).stream)
    assert "LD4R_B" in text and "[A+" in text and "[B+" in text
