"""The ARM CPU target (Tab. 1 left column: simulated Raspberry Pi 3B).

Wraps the layer-level ARM cost model (:func:`repro.arm.conv_runner
.time_arm_conv` and friends) behind the :class:`~repro.backends.base
.Backend` protocol.  The ARM model always prices the whole layer
including the fp32->int quantize and int->fp32 dequantize passes, so the
mapped :class:`ConvPrice` carries those as ``quant_cycles`` and
``graph_cycles`` subtracts them for graphs that charge quantization ops
explicitly — exactly the accounting the runtime executor used before
this package existed.
"""

from __future__ import annotations

from ..errors import ReproError
from ..types import ConvSpec
from .base import Backend, BaselineFn, ConvPrice, PrewarmItem


#: peak MACs per cycle per scheme on the A53 NEON pipe, from the pipeline
#: cost table: MLA.16B retires 16 int8 lanes per 2-cycle occupancy,
#: SMLAL.8H 8 int16 lanes per 2 cycles, SDOT 16 MACs per 2 cycles
_PEAK_MACS_PER_CYCLE = {"mla": 8.0, "smlal": 4.0, "ncnn": 4.0, "sdot": 8.0}


class ArmBackend(Backend):
    """ARMv8 GEMM/winograd kernels on the simulated Cortex-A53."""

    name = "arm"
    display_name = "ARM CPU"

    def __init__(self, machine=None):
        from ..arm.cost_model import PI3B

        self.machine = machine if machine is not None else PI3B

    def _price(self, perf) -> ConvPrice:
        """Map an :class:`~repro.arm.conv_runner.ArmConvPerf` breakdown."""
        return ConvPrice(
            backend=self.name,
            spec_name=perf.spec_name,
            bits=perf.bits,
            total_cycles=perf.total_cycles,
            compute_cycles=perf.kernel_cycles,
            quant_cycles=perf.quant_cycles,
            clock_hz=self.machine.clock_hz,
            meta={
                "scheme": perf.scheme,
                "im2col_cycles": perf.im2col_cycles,
                "pack_cycles": perf.pack_cycles,
                "requant_cycles": perf.requant_cycles,
                "mem_cycles": perf.mem_cycles,
                "overhead_cycles": perf.overhead_cycles,
            },
        )

    def price_conv(
        self,
        spec: ConvSpec,
        bits: int,
        epilogue: str | None = None,
        *,
        scheme: str | None = None,
        algorithm: str = "gemm",
    ) -> ConvPrice:
        # The ARM layer price is epilogue-independent (requantization is
        # always charged; graph_cycles strips the quant passes instead).
        del epilogue
        if algorithm == "gemm":
            from ..arm.conv_runner import time_arm_conv

            perf = time_arm_conv(spec, bits, scheme=scheme, machine=self.machine)
        elif algorithm == "winograd":
            from ..arm.winograd_runner import time_winograd_conv

            perf = (
                time_winograd_conv(spec, bits, machine=self.machine)
                if scheme is None
                else time_winograd_conv(
                    spec, bits, scheme=scheme, machine=self.machine
                )
            )
        else:
            raise ReproError(
                f"unknown ARM conv algorithm {algorithm!r}; "
                f"available: gemm, winograd"
            )
        return self._price(perf)

    def _warm(self, work: list[PrewarmItem]) -> None:
        """Batch-schedule the distinct micro-kernel streams of ``work``.

        One :func:`~repro.arm.conv_runner.gemm_kernel_cycles_batch` call
        per (scheme, bits) group prices a whole network's reduction
        lengths through the vectorized cost model, so each distinct
        static schedule is computed exactly once before the serial
        pricing pass asks for it.  A width no scheme models is skipped:
        pricing it raises the real error.
        """
        from ..arm.conv_runner import gemm_kernel_cycles_batch
        from ..arm.cost_model import scheme_for_bits
        from ..errors import UnsupportedBitsError
        from ..types import GemmShape

        groups: dict[tuple[str, int], list[GemmShape]] = {}
        for spec, bits, _epilogue in work:
            try:
                scheme = scheme_for_bits(bits)
            except UnsupportedBitsError:
                continue
            groups.setdefault((scheme, bits), []).append(GemmShape(
                m=spec.out_channels // spec.groups,
                k=spec.gemm_k, n=spec.gemm_n,
            ))
        for (scheme, bits), gemms in groups.items():
            try:
                gemm_kernel_cycles_batch(gemms, scheme, bits)
            except Exception as exc:  # noqa: BLE001 - warming only
                self._warm_failed(exc, scheme=scheme, bits=bits)

    def price_elementwise(self, kind: str, elems: int) -> float:
        per_elem = {
            "quantize": self.machine.quantize_cycles_per_elem,
            "dequantize": self.machine.dequantize_cycles_per_elem,
            "relu": 1.0,
        }.get(kind)
        if per_elem is None:
            raise ReproError(f"unknown element-wise op {kind!r} on {self.name}")
        return elems * per_elem

    def peak_ops_per_sec(self, bits: int) -> float:
        from ..arm.cost_model import scheme_for_bits

        return _PEAK_MACS_PER_CYCLE[scheme_for_bits(bits)] * self.machine.clock_hz

    def peak_bandwidth_bytes_per_sec(self) -> float:
        return self.machine.dram_bytes_per_cycle * self.machine.clock_hz

    def conv_traffic(self, spec: ConvSpec, bits: int) -> dict[str, float]:
        """DRAM bytes the layer-level cost model charges (Sec. 3 passes):
        the raw activation read, the im2col write (skipped for pointwise
        unit-stride layers), the packed-B stream, the cold weight read and
        the int32 accumulator write-back.  Mirrors the ``unique`` traffic
        term of :func:`repro.arm.conv_runner._gemm_mem_cycles`."""
        from ..arm.cost_model import (
            is_pointwise_unit_stride,
            kernel_geometry,
            scheme_for_bits,
        )
        from ..util import round_up

        _, n_r = kernel_geometry(scheme_for_bits(bits))
        groups = spec.groups
        k = spec.gemm_k
        n = spec.gemm_n
        im2col = 0.0 if is_pointwise_unit_stride(spec) else float(
            spec.batch * groups * k * n
        )
        traffic = {
            "input": float(spec.input_elems),
            "im2col": im2col,
            "pack": float(spec.batch * groups * k * round_up(n, n_r)),
            "weights": float(spec.weight_elems),
            "output": float(spec.output_elems * 4),  # int32 write-back
        }
        traffic["total"] = sum(traffic.values())
        return traffic

    def baselines(self) -> dict[str, BaselineFn]:
        from ..arm.conv_runner import ncnn_conv_cycles, tvm_popcount_cycles

        return {
            "ncnn": lambda spec: self._price(
                ncnn_conv_cycles(spec, machine=self.machine)
            ),
            "tvm-popcount": lambda spec: self._price(
                tvm_popcount_cycles(spec, machine=self.machine)
            ),
        }

    def describe(self) -> dict[str, object]:
        m = self.machine
        return {
            "device": "Raspberry Pi 3B (simulated)",
            "architecture": "ARM Cortex-A53",
            "clock_hz": m.clock_hz,
            "l1_bytes": m.l1_bytes,
            "l2_bytes": m.l2_bytes,
            "baseline": "ncnn-like 8-bit GEMM kernels",
        }
