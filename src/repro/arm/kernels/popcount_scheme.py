"""TVM-style bit-serial (popcount) 2-bit kernel — the Fig. 9 baseline.

Following Cowan et al. [3], operands are decomposed into bit planes and
bit-packed (one bit per K element); a binary dot product is then
``popcount(AND)``, vectorized as ``AND.16B`` + ``CNT.16B`` +
``UADALP.8H`` over 128 K bits at a time.

Tile: 2x2 outputs.  For 2-bit x 2-bit (A2W2) there are 4 plane pairs per
output, each with its own popcount accumulator, so a tile needs
``2*2*4 = 16`` accumulator registers (``v16~v31``); ``v0~v3`` hold A plane
chunks, ``v4~v7`` B plane chunks, ``v8``/``v9`` are the AND/CNT temps.

The stream accumulates raw popcounts per (output, plane pair); the final
signed combination

    acc[(pa, pw)] * sign(pa) * sign(pw) * 2**(pa+pw)

is folded host-side by :func:`execute_popcount` (an analytic epilogue
charge covers it in the cost model) — see DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError, UnsupportedBitsError
from ...util import ceil_div
from ..isa import Instr, MemRef
from ..loops import Repeat
from .base import MicroKernel

M_R = 2
N_R = 2
BITS = 2
_CHUNK_BITS = 128
_CHUNK_BYTES = 16

_A_REGS = ("v0", "v1", "v2", "v3")  # (row, plane)
_B_REGS = ("v4", "v5", "v6", "v7")  # (col, plane)
_TMP_AND = "v8"
_TMP_CNT = "v9"


def _acc_index(row: int, col: int, pa: int, pw: int) -> int:
    """Accumulator register number for output (row, col), plane pair (pa, pw)."""
    return 16 + ((row * N_R + col) * BITS + pa) * BITS + pw


def _acc_reg(row: int, col: int, pa: int, pw: int) -> str:
    return f"v{_acc_index(row, col, pa, pw)}"


#: one chunk's AND + CNT + UADALP for every (output, plane pair)
_REDUCE = tuple(
    ins
    for row in range(M_R)
    for col in range(N_R)
    for pa in range(BITS)
    for pw in range(BITS)
    for ins in (
        Instr("AND_16B", dst=(_TMP_AND,),
              src=(_A_REGS[row * BITS + pa], _B_REGS[col * BITS + pw])),
        Instr("CNT_16B", dst=(_TMP_CNT,), src=(_TMP_AND,)),
        Instr("UADALP_8H", dst=(_acc_reg(row, col, pa, pw),), src=(_TMP_CNT,)),
    )
)
_PROLOGUE = tuple(
    Instr("MOVI_ZERO", dst=(_acc_reg(row, col, pa, pw),))
    for row in range(M_R) for col in range(N_R) for pa in range(BITS) for pw in range(BITS)
)
_TAIL = (Instr("SUBS", dst=("x9",), src=("x9",), imm=1), Instr("B_NE"))


def popcount_pair_weights(bits_a: int = BITS, bits_w: int = BITS) -> dict[tuple[int, int], int]:
    """Signed weight of each plane pair in the final combination."""
    def w(p: int, b: int) -> int:
        return -(1 << p) if p == b - 1 else (1 << p)

    return {
        (pa, pw): w(pa, bits_a) * w(pw, bits_w)
        for pa in range(bits_a)
        for pw in range(bits_w)
    }


def pack_bitplane(plane: np.ndarray) -> np.ndarray:
    """Bit-pack a {0,1} vector, LSB-first within each byte, padded with 0."""
    plane = np.asarray(plane)
    if plane.size and (plane.min() < 0 or plane.max() > 1):
        raise ShapeError("bit plane must contain only 0/1")
    return np.packbits(plane.astype(np.uint8), bitorder="little")


def generate_popcount_kernel(k: int, *, bits: int = BITS) -> MicroKernel:
    """Generate the bit-serial program for a 2x2 tile over reduction ``k``:
    one :class:`~repro.arm.loops.Repeat` over the 128-bit chunks.

    Buffer layout (both planes bit-packed, chunk-padded):

    * ``A``: plane-major per row: ``row * bits * chunk_bytes_total`` ...
      i.e. ``A[(row * bits + plane) * kbytes + chunk]``,
    * ``B``: same structure per column.
    """
    if bits != BITS:
        raise UnsupportedBitsError(bits, "popcount kernel models the A2W2 case")
    if k <= 0:
        raise ShapeError(f"k must be positive, got {k}")
    chunks = ceil_div(k, _CHUNK_BITS)
    kbytes = chunks * _CHUNK_BYTES

    loads = tuple(
        Instr("LD1_16B", dst=(regs[i * BITS + p],), mem=MemRef(buf, (i * BITS + p) * kbytes))
        for buf, regs, count in (("A", _A_REGS, M_R), ("B", _B_REGS, N_R))
        for i in range(count) for p in range(BITS))
    out = (*_PROLOGUE, Instr("MOV_X_IMM", dst=("x9",), imm=chunks),
           Repeat((*loads, *_REDUCE, *_TAIL), chunks, {"A": _CHUNK_BYTES, "B": _CHUNK_BYTES}))

    return MicroKernel(
        name=f"popcount{bits}",
        code=out,
        m_r=M_R,
        n_r=N_R,
        k=k,
        bits=bits,
        a_bytes=M_R * BITS * kbytes,
        b_bytes=N_R * BITS * kbytes,
        c_bytes=M_R * N_R * 4,
    )


def execute_popcount(
    kernel: MicroKernel,
    a_rows: np.ndarray,
    b_cols: np.ndarray,
) -> np.ndarray:
    """Functionally execute the popcount stream and fold the signed planes.

    ``a_rows``: int array ``(m_r, k)`` of 2-bit A values (tile rows);
    ``b_cols``: int array ``(n_r, k)`` of 2-bit B values (tile columns).
    Returns the exact ``(m_r, n_r)`` int64 tile.
    """
    from ...conv.popcount import to_bitplanes

    if a_rows.shape != (kernel.m_r, kernel.k) or b_cols.shape != (kernel.n_r, kernel.k):
        raise ShapeError(
            f"operands {a_rows.shape}/{b_cols.shape} do not match "
            f"tile ({kernel.m_r}, {kernel.n_r}) x k={kernel.k}"
        )
    chunks = ceil_div(kernel.k, _CHUNK_BITS)
    kbytes = chunks * _CHUNK_BYTES

    def pack_operand(values: np.ndarray, count: int) -> np.ndarray:
        planes = to_bitplanes(values, BITS)  # (bits, count, k)
        buf = np.zeros(count * BITS * kbytes, dtype=np.uint8)
        for idx in range(count):
            for p in range(BITS):
                packed = pack_bitplane(planes[p, idx])
                off = (idx * BITS + p) * kbytes
                buf[off : off + packed.size] = packed
        return buf

    a_buf = pack_operand(a_rows, kernel.m_r)
    b_buf = pack_operand(b_cols, kernel.n_r)
    acc = kernel.execute(a_buf, b_buf).v.view(np.uint16).astype(np.int64)

    weights = popcount_pair_weights()
    tile = np.zeros((kernel.m_r, kernel.n_r), dtype=np.int64)
    for row in range(kernel.m_r):
        for col in range(kernel.n_r):
            total = 0
            for (pa, pw), wgt in weights.items():
                total += wgt * int(acc[_acc_index(row, col, pa, pw)].sum())
            tile[row, col] = total
    return tile
