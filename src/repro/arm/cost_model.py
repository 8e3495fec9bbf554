"""Layer-level ARM cost model: machine parameters + tile-cycle estimation.

The micro-kernel cycle counts come from statically scheduling the
generated loop programs (:mod:`repro.arm.pipeline`).  This module adds what
surrounds the kernel in a full convolution layer:

* im2col, packing, requantization passes (byte-proportional charges),
* the memory hierarchy: packed-B panel re-reads per row-tile pass served
  from L2 or DRAM depending on footprint, plus the layer's unique DRAM
  traffic,
* per-layer fixed overhead (layer setup, threading handoff).

Machine constants approximate a Raspberry Pi 3B (Cortex-A53 @ 1.2 GHz,
32 KiB L1D / 512 KiB L2, LPDDR2).  As stated in DESIGN.md, the experiments
depend on this model's *structure* — which costs are bit-width-independent,
which scale with tile counts — not on any absolute constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..errors import UnsupportedBitsError
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..perf.cache import PersistentCache, code_fingerprint, stable_hash
from ..types import ConvSpec
from .pipeline import A53_COST_TABLE, CostTable, PipelineModel, PipelineResult
from .ratios import MLA_SCHEME_BITS, SMLAL_SCHEME_BITS


@dataclass(frozen=True)
class ArmMachine:
    """Raspberry Pi 3B-flavored machine description (Tab. 1, left column)."""

    name: str = "raspberry-pi-3b"
    clock_hz: float = 1.2e9
    l1_bytes: int = 32 * 1024
    l2_bytes: int = 512 * 1024
    #: sustained copy bandwidths, bytes per cycle (L2 streams benefit from
    #: the A53 hardware prefetcher; DRAM is LPDDR2 shared with the GPU)
    dram_bytes_per_cycle: float = 1.0
    l2_bytes_per_cycle: float = 6.0
    #: byte-proportional pass costs (load+store+loop overhead through cache)
    im2col_cycles_per_byte: float = 0.5
    pack_cycles_per_byte: float = 0.5
    transpose_pack_cycles_per_byte: float = 0.75  # column-major (n_b = 1) pack
    bitpack_cycles_per_byte: float = 2.0  # bit-plane packing (shift/or chains)
    #: per-element epilogue cost: bias + fixed-point requantize + store int8
    requant_cycles_per_elem: float = 2.0
    #: the quantization pipeline around every conv: fp32 activations are
    #: quantized on the way in and int32 results dequantized on the way out
    #: (the same stages the paper's GPU fusion experiment, Fig. 12, shows
    #: costing 15~35% of layer time); scalar-ish on the A53
    quantize_cycles_per_elem: float = 5.0
    dequantize_cycles_per_elem: float = 5.0
    #: winograd transform costs per transformed element (strided gathers +
    #: adds + scattered stores into 16 per-position GEMM operands)
    wino_input_tf_cycles_per_elem: float = 2.5
    wino_output_tf_cycles_per_elem: float = 2.5
    #: fixed per-layer overhead (setup, function dispatch), cycles
    layer_overhead_cycles: float = 20_000.0

    def ms(self, cycles: float) -> float:
        return cycles / self.clock_hz * 1e3


PI3B = ArmMachine()


# ---------------------------------------------------------------------------
# Tile-cycle estimation with linear extrapolation over K
# ---------------------------------------------------------------------------

_EXACT_K_LIMIT = 512  # below this, schedule the real stream for the exact K


def _generate(scheme: str, bits: int, k: int, interleave: bool, round_steps: int | None):
    from .kernels import (
        generate_mla_kernel,
        generate_ncnn_kernel,
        generate_popcount_kernel,
        generate_smlal_kernel,
    )

    if scheme == "smlal":
        return generate_smlal_kernel(
            bits, k, interleave=interleave, round_steps=round_steps
        )
    if scheme == "mla":
        return generate_mla_kernel(
            bits, k, interleave=interleave, chain_steps=round_steps
        )
    if scheme == "ncnn":
        return generate_ncnn_kernel(k, interleave=interleave)
    if scheme == "sdot":
        from .kernels.sdot_scheme import generate_sdot_kernel

        return generate_sdot_kernel(k, interleave=interleave)
    if scheme == "popcount":
        return generate_popcount_kernel(k)
    raise UnsupportedBitsError(bits, f"unknown scheme {scheme!r}")


#: persistent memo of scheduled micro-kernel streams: the static schedule
#: of one (scheme, bits, k, interleave, round_steps) stream is recomputed
#: by every process that prices a layer, yet it is a pure function of the
#: generators + pipeline model — so schedule once, store, and scale.
_SCHEDULE_STORE = PersistentCache("arm-schedule")

_FINGERPRINT: str | None = None


def _fingerprinted() -> list[str]:
    """Every module a stored schedule depends on: the generators and what
    they import (drain ratios and operand ranges included), the loop
    programs, the scheduler, and this module's ``_generate``."""
    arm = [f"repro.arm.{name}" for name in (
        "pipeline", "isa", "registers", "assembler", "loops", "compiled", "ratios")]
    kernels = [f"repro.arm.kernels.{name}" for name in (
        "base", "mla_scheme", "ncnn_like", "popcount_scheme", "smlal_scheme", "sdot_scheme")]
    return [*arm, "repro.quant.ranges", "repro.util", __name__, "repro.arm.kernels",
            *kernels]


def _code_version() -> str:
    global _FINGERPRINT
    if _FINGERPRINT is None:
        _FINGERPRINT = code_fingerprint(_fingerprinted())
    return _FINGERPRINT


def schedule_store() -> PersistentCache:
    """The persistent schedule cache (stats introspection)."""
    return _SCHEDULE_STORE


#: in-process memo: (scheme, bits, k, interleave, round_steps) -> schedule
_SCHEDULES: dict[tuple, PipelineResult] = {}


def _schedule_many(
    scheme: str, bits: int, ks: Sequence[int], interleave: bool,
    round_steps: int | None,
) -> list[PipelineResult]:
    """The static schedules at the reduction lengths ``ks``: memo, else
    store, else scheduled now.  A call whose every length hits the memo
    does not touch the store.  The streams one call schedules are stored
    as one batch, even when a later one fails to generate."""
    todo = {k: stable_hash({
        "scheme": scheme, "bits": bits, "k": k, "interleave": interleave,
        "round_steps": round_steps, "code": _code_version(),
    }) for k in dict.fromkeys(ks)
        if (scheme, bits, k, interleave, round_steps) not in _SCHEDULES}
    stored = _SCHEDULE_STORE.get_many(todo.values()) if todo else []
    new: list[tuple[str, dict]] = []
    try:
        for (k, digest), data in zip(todo.items(), stored):
            result = None
            if data is not None:
                try:
                    result = PipelineResult.from_json(data)
                    obs_metrics.counter("arm_schedules", outcome="store_hit").inc()
                except (KeyError, TypeError, ValueError) as exc:  # stale
                    obs_log.debug("arm_schedule_cache_stale",
                                  logger="repro.arm.cost_model",
                                  digest=digest[:16], error=type(exc).__name__)
            if result is None:
                with obs_trace.span("arm.schedule", scheme=scheme, bits=bits,
                                    k=k, interleave=interleave):
                    kern = _generate(scheme, bits, k, interleave, round_steps)
                    result = PipelineModel(A53_COST_TABLE).schedule(kern.code)
                obs_metrics.counter("arm_schedules", outcome="computed").inc()
                new.append((digest, result.to_json()))
            _SCHEDULES[(scheme, bits, k, interleave, round_steps)] = result
    finally:
        if new:
            _SCHEDULE_STORE.put_many(new)
    return [_SCHEDULES[(scheme, bits, k, interleave, round_steps)] for k in ks]


def _schedule_cycles(
    scheme: str, bits: int, k: int, interleave: bool, round_steps: int | None
) -> int:
    return _schedule_many(scheme, bits, (k,), interleave, round_steps)[0].cycles


def clear_schedule_cache(*, persistent: bool = False) -> None:
    """Drop memoized schedules (tests; mirrors
    :func:`repro.gpu.autotune.clear_cache`)."""
    _SCHEDULES.clear()
    _linear_fit.cache_clear()
    _SCHEDULE_STORE.drop_index()
    if persistent:
        _SCHEDULE_STORE.clear()


@lru_cache(maxsize=None)
def _linear_fit(
    scheme: str, bits: int, interleave: bool, round_steps: int | None
) -> tuple[float, float]:
    """Fit cycles ~= a + b*k from two scheduled reference streams."""
    k1, k2 = _EXACT_K_LIMIT // 2, _EXACT_K_LIMIT
    r1, r2 = _schedule_many(scheme, bits, (k1, k2), interleave, round_steps)
    c1, c2 = r1.cycles, r2.cycles
    b = (c2 - c1) / (k2 - k1)
    a = c1 - b * k1
    return a, b


def tile_cycles(
    scheme: str,
    bits: int,
    k: int,
    *,
    interleave: bool = True,
    round_steps: int | None = None,
) -> float:
    """Cycles for one register-tile kernel invocation over reduction ``k``.

    Exact static scheduling for small ``k``; linear extrapolation from two
    scheduled streams beyond (kernel cycles are affine in ``k`` up to drain
    granularity, which the fit's sampling respects).  ``round_steps``
    overrides the drain interval (the winograd path uses the shorter chains
    its transformed operand ranges force, Sec. 3.4).
    """
    if k <= 0:
        raise UnsupportedBitsError(bits, f"k must be positive, got {k}")
    if k <= _EXACT_K_LIMIT:
        return float(_schedule_cycles(scheme, bits, k, interleave, round_steps))
    a, b = _linear_fit(scheme, bits, interleave, round_steps)
    return a + b * k


def tile_cycles_batch(
    scheme: str,
    bits: int,
    ks: "np.ndarray | Sequence[int]",
    *,
    interleave: bool = True,
    round_steps: int | None = None,
) -> np.ndarray:
    """:func:`tile_cycles` over a whole batch of reduction lengths.

    Element ``i`` is bit-identical to ``tile_cycles(scheme, bits, ks[i])``:
    the linear-fit/extrapolation region is one vectorized ``a + b*k``
    expression (same float64 operations per element), and the exact region
    schedules each *distinct* small ``k`` once — so pricing a network's
    layers in one call pays for each unique schedule a single time instead
    of once per layer.
    """
    ks = np.asarray(ks, dtype=np.int64)
    if ks.size and int(ks.min()) <= 0:
        raise UnsupportedBitsError(
            bits, f"k must be positive, got {int(ks.min())}"
        )
    out = np.empty(ks.shape, dtype=np.float64)
    exact = ks <= _EXACT_K_LIMIT
    if exact.any():
        # not np.unique: its first call imports numpy.ma
        distinct = sorted(set(ks[exact].tolist()))
        results = _schedule_many(scheme, bits, distinct, interleave, round_steps)
        cycles = {k: float(r.cycles) for k, r in zip(distinct, results)}
        out[exact] = [cycles[int(k)] for k in ks[exact]]
    fit = ~exact
    if fit.any():
        a, b = _linear_fit(scheme, bits, interleave, round_steps)
        out[fit] = a + b * ks[fit]
    return out


def scheme_for_bits(bits: int) -> str:
    """The paper's scheme selection (Fig. 3): MLA below 4-bit, else SMLAL."""
    if bits in MLA_SCHEME_BITS:
        return "mla"
    if bits in SMLAL_SCHEME_BITS:
        return "smlal"
    raise UnsupportedBitsError(bits, "ARM path covers 2~8-bit")


def kernel_geometry(scheme: str) -> tuple[int, int]:
    """(m_r, n_r) register-tile shape of a scheme."""
    return {
        "smlal": (16, 4),
        "mla": (64, 1),
        "ncnn": (8, 4),
        "sdot": (16, 4),
        "popcount": (2, 2),
    }[scheme]


def is_pointwise_unit_stride(spec: ConvSpec) -> bool:
    """1x1 stride-1 unpadded convolutions skip im2col entirely — the input
    already *is* the GEMM B matrix."""
    return spec.kernel == (1, 1) and spec.stride == (1, 1) and spec.padding == (0, 0)
