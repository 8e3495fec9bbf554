"""The backend protocol: one uniform pricing surface per simulated target.

Every target the runtime can price a network on — the ARM CPU, the Turing
GPU, the op-count reference, and any future machine — is a
:class:`Backend`: a named object exposing the *same* small vocabulary
(``price_conv`` / ``price_elementwise`` / ``prewarm`` / ``baselines``)
plus its machine description.  Per-conv results are mapped into one
:class:`ConvPrice` shape so downstream layers (runtime executor, network
pricer, figures, CLI, bench) never see a target-specific perf object and
never branch on a backend-name string.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Sequence, Tuple

from ..types import ConvSpec

#: one unit of prewarm work: ``(spec, bits, epilogue)``.  ``epilogue=None``
#: prices the bare conv kernel (the figures path); an explicit epilogue
#: string prices the conv as the graph executor charges it.
PrewarmItem = Tuple[ConvSpec, int, "str | None"]

#: a baseline pricer: maps a conv spec to that baseline's ConvPrice
BaselineFn = Callable[[ConvSpec], "ConvPrice"]


@dataclass(frozen=True)
class ConvPrice:
    """Uniform per-convolution price every backend maps its native perf
    object into (``ArmConvPerf``, ``AutotuneResult``/``GpuKernelPerf``,
    ref op counts).

    ``total_cycles`` is the whole layer as the backend's cost model sees
    it; ``quant_cycles`` is the share charged to the quantize/dequantize
    element passes *inside* that total (zero on backends whose conv price
    excludes them).  :attr:`graph_cycles` is what a graph executor that
    carries explicit quantize/dequantize ops should charge the conv op —
    the total minus the passes the graph already pays for separately.
    """

    backend: str
    spec_name: str
    bits: int
    total_cycles: float
    compute_cycles: float
    quant_cycles: float
    clock_hz: float
    #: backend-specific tuning metadata (scheme, tiling, sweep tallies...)
    meta: Mapping[str, object] = field(default_factory=dict)

    @property
    def graph_cycles(self) -> float:
        """Conv-op charge inside an explicit-quantization graph."""
        return self.total_cycles - self.quant_cycles

    @property
    def seconds(self) -> float:
        return self.total_cycles / self.clock_hz

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3

    @property
    def microseconds(self) -> float:
        return self.seconds * 1e6


class Backend(abc.ABC):
    """A pricing target.  Subclasses set :attr:`name` and :attr:`machine`
    (any object with a ``clock_hz`` attribute) and implement the two
    pricing primitives; ``prewarm`` and ``baselines`` have defaults."""

    #: registry key (``get_backend(name)``)
    name: str
    #: human-facing platform label (Tab. 1 row headers)
    display_name: str
    #: machine description; must expose ``clock_hz``
    machine: object

    @property
    def clock_hz(self) -> float:
        return self.machine.clock_hz

    @abc.abstractmethod
    def price_conv(
        self,
        spec: ConvSpec,
        bits: int,
        epilogue: str | None = None,
        **kwargs,
    ) -> ConvPrice:
        """Price one convolution layer.

        ``epilogue=None`` prices the bare conv kernel with the backend's
        default output handling (what the per-layer figures compare);
        ``"requant"``/``"requant_relu"``/``"dequant"`` price the conv as
        the graph executor's fused epilogues emit it.  Extra keywords are
        backend-specific knobs (ARM: ``scheme``/``algorithm``; GPU:
        ``tuned`` and kernel kwargs) and must default to the bare path.
        """

    @abc.abstractmethod
    def price_elementwise(self, kind: str, elems: int) -> float:
        """Cycles for one element-wise graph op (``quantize`` /
        ``dequantize`` / ``relu``) over ``elems`` elements."""

    def prewarm(self, work: Sequence[PrewarmItem]) -> None:
        """Warm the backend's memo caches for ``work``; the serial pricing
        pass that follows re-reads them, so results never depend on it.
        A backend warms by overriding :meth:`_warm` with one batched pass.

        Warming is best-effort by contract: :meth:`_warm` counts a failure
        (:meth:`_warm_failed`, ``prewarm_errors``) and swallows it,
        because the serial pricing pass that follows re-raises — or
        gracefully degrades — through the real error path.  Crashing a
        *warm-up* would turn an optimization into a failure source."""
        from ..obs import trace as obs_trace

        work = list(work)
        if len(work) < 2:
            return
        with obs_trace.span(
            "backend.prewarm", backend=self.name, items=len(work)
        ):
            self._warm(work)

    def _warm(self, work: list[PrewarmItem]) -> None:
        """Batch-price ``work`` into the memo caches; warms nothing by
        default (closed-form pricers have nothing to warm)."""

    def _warm_failed(self, exc: Exception, **where) -> None:
        from ..obs import log as obs_log
        from ..obs import metrics as obs_metrics

        obs_metrics.counter("prewarm_errors", backend=self.name).inc()
        obs_log.warning(
            "prewarm_failed", logger="repro.backends", backend=self.name,
            error=type(exc).__name__, **where,
        )

    def baselines(self) -> Dict[str, BaselineFn]:
        """Named library baselines this backend is evaluated against
        (e.g. ``ncnn`` on ARM, ``cudnn-dp4a``/``tensorrt`` on GPU)."""
        return {}

    # -- roofline hooks (repro.obs.roofline) --------------------------------

    def peak_ops_per_sec(self, bits: int) -> float:
        """Peak multiply-accumulate throughput (MACs/s) at ``bits`` —
        the compute roof the roofline analyzer measures layers against.
        Backends without a machine MAC-rate model may raise
        :class:`~repro.errors.ReproError`."""
        from ..errors import ReproError

        raise ReproError(
            f"backend {self.name!r} does not model a peak MAC rate"
        )

    def peak_bandwidth_bytes_per_sec(self) -> float:
        """Peak main-memory bandwidth (bytes/s) — the memory roof."""
        from ..errors import ReproError

        raise ReproError(
            f"backend {self.name!r} does not model memory bandwidth"
        )

    def conv_traffic(self, spec: ConvSpec, bits: int) -> Dict[str, float]:
        """Estimated main-memory traffic (bytes) one conv layer moves, as
        the backend's cost model charges it — im2col/packing streams on
        ARM, tile re-reads on GPU.  Must return a ``"total"`` key plus any
        per-component breakdown; the roofline analyzer divides MACs by
        ``total`` for the layer's arithmetic intensity."""
        from ..errors import ReproError

        raise ReproError(
            f"backend {self.name!r} does not model memory traffic"
        )

    def describe(self) -> Dict[str, object]:
        """Tab. 1-style machine description row."""
        return {"device": self.name, "clock_hz": self.clock_hz}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r}>"
