"""The Turing GPU target (Tab. 1 right column: simulated RTX 2080Ti).

Wraps the profile-run autotuner (:func:`repro.gpu.autotune.autotune_conv`)
and the GPU pipeline model behind the :class:`~repro.backends.base
.Backend` protocol.  GPU conv prices fold the epilogue into the kernel
(the quantize passes are separate kernel launches priced by
``price_elementwise``), so ``quant_cycles`` is always zero and
``graph_cycles == total_cycles``.

``epilogue`` selects the output element width the executor's fused
epilogues emit (``dequant`` writes fp32; requantizing epilogues write
``bits/8``-byte ints); ``epilogue=None`` keeps the pipeline model's
default — the bare-kernel price the per-layer figures compare.
"""

from __future__ import annotations

from ..errors import ReproError
from ..types import ConvSpec
from .base import Backend, BaselineFn, ConvPrice, PrewarmItem


def _epilogue_kwargs(bits: int, epilogue: str | None, kernel_kwargs: dict) -> dict:
    """``kernel_kwargs`` with the output element width ``epilogue`` writes."""
    if epilogue is not None:
        kernel_kwargs.setdefault(
            "out_elem_bytes", 4.0 if epilogue == "dequant" else bits / 8)
    return kernel_kwargs


class GpuBackend(Backend):
    """Auto-tuned Tensor Core kernels on the simulated TU102."""

    name = "gpu"
    display_name = "NVIDIA GPU"

    def __init__(self, device=None):
        from ..gpu.device import TU102

        self.machine = device if device is not None else TU102

    def _price(self, spec: ConvSpec, bits: int, perf, **meta) -> ConvPrice:
        """Map a :class:`~repro.gpu.pipelinemodel.GpuKernelPerf`."""
        return ConvPrice(
            backend=self.name,
            spec_name=spec.name,
            bits=bits,
            total_cycles=perf.total_cycles,
            compute_cycles=perf.compute_cycles,
            quant_cycles=0.0,
            clock_hz=self.machine.clock_hz,
            meta={
                "tiling": perf.tiling.describe(),
                "dram_cycles": perf.dram_cycles,
                "smem_cycles": perf.smem_cycles,
                "occupancy": perf.occupancy,
                "bound": perf.bound,
                **meta,
            },
        )

    def price_conv(
        self,
        spec: ConvSpec,
        bits: int,
        epilogue: str | None = None,
        *,
        tuned: bool = True,
        **kernel_kwargs,
    ) -> ConvPrice:
        _epilogue_kwargs(bits, epilogue, kernel_kwargs)
        if tuned:
            from ..gpu.autotune import autotune_conv

            result = autotune_conv(
                spec, bits, device=self.machine, **kernel_kwargs
            )
            return self._price(
                spec,
                bits,
                result.best_perf,
                candidates=result.candidates,
                evaluated=result.evaluated,
                pruned=result.pruned,
            )
        # untuned: the fixed 'programmer experience' default tiling
        # (Fig. 11's w/o-profile arm)
        from ..gpu.pipelinemodel import conv_time
        from ..gpu.tiling import default_tiling

        perf = conv_time(
            spec, bits, default_tiling(bits), device=self.machine,
            **kernel_kwargs,
        )
        return self._price(spec, bits, perf, tuned=False)

    def _warm(self, work: list[PrewarmItem]) -> None:
        """Autotune the distinct sweeps of ``work`` that miss the memo and
        the disk store, in batched serial passes."""
        from ..gpu.autotune import autotune_many
        from ..gpu.pipelinemodel import conv_gemm_shape

        try:
            autotune_many([(conv_gemm_shape(s), b, _epilogue_kwargs(b, e, {}))
                           for s, b, e in work], device=self.machine)
        except Exception as exc:  # noqa: BLE001 - warming only
            self._warm_failed(exc, items=len(work))

    def price_elementwise(self, kind: str, elems: int) -> float:
        from ..gpu.fusion import elementwise_kernel_cycles

        io = {
            "quantize": (4.0, 1.0),
            "dequantize": (1.0, 4.0),
            "relu": (1.0, 1.0),
        }.get(kind)
        if io is None:
            raise ReproError(f"unknown element-wise op {kind!r} on {self.name}")
        return elementwise_kernel_cycles(
            elems * io[0], elems * io[1], device=self.machine
        )

    def peak_ops_per_sec(self, bits: int) -> float:
        """Whole-device Tensor Core MAC rate (Turing whitepaper ratios)."""
        m = self.machine
        return m.mac_rate(bits) * m.sm_count * m.clock_hz

    def peak_bandwidth_bytes_per_sec(self) -> float:
        return self.machine.dram_bytes_per_sec

    def conv_traffic(self, spec: ConvSpec, bits: int) -> dict[str, float]:
        """DRAM bytes the pipeline model charges the tuned kernel — tile
        re-reads included, L2-served re-reads excluded — recovered from
        the priced kernel's ``dram_cycles`` at the device bandwidth."""
        price = self.price_conv(spec, bits)
        dram = float(price.meta["dram_cycles"]) * self.machine.dram_bytes_per_cycle
        return {"dram": dram, "total": dram}

    def baselines(self) -> dict[str, BaselineFn]:
        from ..gpu.baselines import cudnn_dp4a_time, tensorrt_time

        return {
            "cudnn-dp4a": lambda spec: self._price(
                spec, 8, cudnn_dp4a_time(spec, device=self.machine),
                library="cudnn",
            ),
            "tensorrt": lambda spec: self._price(
                spec, 8, tensorrt_time(spec, device=self.machine),
                library="tensorrt",
            ),
        }

    def describe(self) -> dict[str, object]:
        m = self.machine
        return {
            "device": "RTX 2080Ti (simulated)",
            "architecture": "NVIDIA Turing TU102",
            "sm_count": m.sm_count,
            "clock_hz": m.clock_hz,
            "dram_bytes_per_sec": m.dram_bytes_per_sec,
            "baseline": "cuDNN-like dp4a kernels; TensorRT-like int8 kernels",
        }
