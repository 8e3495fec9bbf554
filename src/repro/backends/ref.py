"""The op-count reference target: the cheapest possible third backend.

A deliberately minimal backend proving the registry's third-target path:
no kernel model, no caches — convolutions are priced as MACs over a flat
issue rate and element-wise ops as elements over a flat rate.  Useful as
a machine-independent floor for sanity checks, and as the template for
real future targets (sdot-ARM machine variants, bit-serial CPU, ...):
implement two pricing primitives and register a factory.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..types import ConvSpec
from .base import Backend, BaselineFn, ConvPrice


@dataclass(frozen=True)
class RefMachine:
    """An idealized 1 GHz machine with flat issue rates."""

    name: str = "op-count-reference"
    clock_hz: float = 1.0e9
    macs_per_cycle: float = 64.0
    elementwise_per_cycle: float = 8.0


REF = RefMachine()


class RefBackend(Backend):
    """Pure op-count pricing (bit-width independent by construction)."""

    name = "ref"
    display_name = "Reference"

    def __init__(self, machine: RefMachine | None = None):
        self.machine = machine if machine is not None else REF

    def price_conv(
        self,
        spec: ConvSpec,
        bits: int,
        epilogue: str | None = None,
        **kwargs,
    ) -> ConvPrice:
        if kwargs:
            raise ReproError(
                f"ref backend takes no conv knobs, got {sorted(kwargs)}"
            )
        compute = spec.macs / self.machine.macs_per_cycle
        # one pass over the output for the (re)quantizing epilogue
        epilogue_cycles = spec.output_elems / self.machine.elementwise_per_cycle
        return ConvPrice(
            backend=self.name,
            spec_name=spec.name,
            bits=bits,
            total_cycles=compute + epilogue_cycles,
            compute_cycles=compute,
            quant_cycles=0.0,
            clock_hz=self.machine.clock_hz,
            meta={"algorithm": "op-count", "epilogue": epilogue or "requant"},
        )

    def price_elementwise(self, kind: str, elems: int) -> float:
        if kind not in ("quantize", "dequantize", "relu"):
            raise ReproError(f"unknown element-wise op {kind!r} on {self.name}")
        return elems / self.machine.elementwise_per_cycle

    def peak_ops_per_sec(self, bits: int) -> float:
        del bits  # flat-rate machine: width-independent by construction
        return self.machine.macs_per_cycle * self.machine.clock_hz

    def peak_bandwidth_bytes_per_sec(self) -> float:
        # the idealized machine streams one element-wise operand per cycle
        return self.machine.elementwise_per_cycle * self.machine.clock_hz

    def conv_traffic(self, spec: ConvSpec, bits: int) -> dict[str, float]:
        """Compulsory traffic only: each operand touched exactly once."""
        elem_bytes = bits / 8
        traffic = {
            "input": spec.input_elems * elem_bytes,
            "weights": spec.weight_elems * elem_bytes,
            "output": spec.output_elems * elem_bytes,
        }
        traffic["total"] = sum(traffic.values())
        return traffic

    def baselines(self) -> dict[str, BaselineFn]:
        return {"op-count-8bit": lambda spec: self.price_conv(spec, 8)}

    def describe(self) -> dict[str, object]:
        m = self.machine
        return {
            "device": "op-count reference (analytic)",
            "architecture": "idealized flat-rate machine",
            "clock_hz": m.clock_hz,
            "macs_per_cycle": m.macs_per_cycle,
            "baseline": "itself at 8-bit",
        }
