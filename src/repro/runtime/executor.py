"""Graph executors: functional (exact) and cost (cycles per backend)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backends import Backend, get_backend
from ..conv.ref import conv2d_ref
from ..errors import ReproError
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..resilience import faults as res_faults
from ..quant.ranges import scheme_qrange
from ..quant.schemes import dequantize_linear, quantize_linear, requantize
from ..types import ConvSpec, Layout
from .graph import Graph, Op


# ---------------------------------------------------------------------------
# Functional execution (NCHW, exact integer conv cores)
# ---------------------------------------------------------------------------


def execute_graph(
    graph: Graph,
    x: np.ndarray,
    weights: dict[str, np.ndarray],
    *,
    weight_scales: dict[str, float] | None = None,
    biases: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Run the pipeline on float input, exactly as a runtime would.

    ``weights[spec.name]`` holds each conv's float OIHW weights; they are
    quantized per-tensor at the conv's bit width.  Fused and unfused graphs
    produce (numerically) the same result — a property the tests assert —
    because fusion only moves element-wise math into the conv epilogue.
    """
    weight_scales = weight_scales or {}
    biases = biases or {}
    cur: np.ndarray = np.asarray(x, dtype=np.float64)
    cur_q: np.ndarray | None = None  # integer activation + its scale
    cur_scale: float = 1.0
    cur_bits: int = 8

    # root span for the whole run: the per-op spans below (which also
    # time each op) become its children, so one executor invocation is
    # one subtree in a captured trace
    with obs_trace.span("executor.graph", cat="executor", ops=len(graph)):
        cur, cur_q, cur_scale, cur_bits = _run_ops(
            graph, cur, cur_q, cur_scale, cur_bits,
            weights, weight_scales, biases)
    return cur


def _run_ops(
    graph: Graph,
    cur: np.ndarray,
    cur_q: "np.ndarray | None",
    cur_scale: float,
    cur_bits: int,
    weights: dict[str, np.ndarray],
    weight_scales: dict[str, float],
    biases: dict[str, np.ndarray],
) -> "tuple[np.ndarray, np.ndarray | None, float, int]":
    for op in graph:
        with obs_trace.span(f"op.{op.kind}", cat="executor"):
            if op.kind == "quantize":
                bits = op.attrs["bits"]
                scale = op.attrs["scale"]
                cur_q = quantize_linear(cur, scale, scheme_qrange(bits))
                cur_scale, cur_bits = scale, bits
            elif op.kind == "conv":
                if cur_q is None:
                    raise ReproError("conv reached without a quantize stage")
                spec: ConvSpec = op.attrs["spec"]
                bits = op.attrs["bits"]
                w_float = weights[spec.name]
                w_scale = weight_scales.get(
                    spec.name,
                    float(np.max(np.abs(w_float))) / scheme_qrange(bits).max_abs
                    or 1.0,
                )
                w_q = quantize_linear(w_float, w_scale, scheme_qrange(bits))
                acc = conv2d_ref(spec, cur_q.astype(np.int64),
                                 w_q.astype(np.int64), layout=Layout.NCHW)
                bias = biases.get(spec.name)
                if bias is not None:
                    acc = acc + np.asarray(bias, dtype=np.int64)[None, :, None, None]
                acc_scale = cur_scale * w_scale
                epilogue = op.attrs.get("epilogue", "requant")
                if epilogue in ("requant", "requant_relu"):
                    out_scale = op.attrs.get("out_scale", acc_scale * 16)
                    q = requantize(acc, acc_scale / out_scale, scheme_qrange(bits))
                    if epilogue == "requant_relu":
                        q = np.clip(q, 0, scheme_qrange(bits).qmax)
                    cur_q, cur_scale, cur_bits = q, out_scale, bits
                    cur = dequantize_linear(q, out_scale)
                elif epilogue == "dequant":
                    cur = acc.astype(np.float64) * acc_scale
                    cur_q = None
                else:
                    raise ReproError(f"unknown conv epilogue {epilogue!r}")
            elif op.kind == "dequantize":
                if cur_q is None:
                    raise ReproError("dequantize without a quantized value")
                cur = dequantize_linear(cur_q, cur_scale)
                cur_q = None
            elif op.kind == "relu":
                if cur_q is not None:
                    cur_q = np.maximum(cur_q, 0)
                    cur = dequantize_linear(cur_q, cur_scale)
                else:
                    cur = np.maximum(cur, 0.0)
            else:  # pragma: no cover - Op validates kinds
                raise ReproError(f"unknown op {op.kind!r}")
    return cur, cur_q, cur_scale, cur_bits


# ---------------------------------------------------------------------------
# Cost estimation per backend
# ---------------------------------------------------------------------------


@dataclass
class GraphCostReport:
    """Cycle totals per op for one backend."""

    backend: str
    op_cycles: list[tuple[str, float]] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        return sum(c for _, c in self.op_cycles)

    @property
    def kernel_launches(self) -> int:
        return len(self.op_cycles)


def _prewarm_conv_costs(graph: Graph, backend: Backend) -> None:
    """Hand the per-conv autotune/pricing work to the backend's
    :meth:`~repro.backends.Backend.prewarm` so the serial pricing loop
    below only reads memo caches.  Purely a warm-up: results are re-read
    from the caches in graph order, so the report is identical with or
    without it."""
    work = []
    for op in graph:
        if op.kind != "conv":
            continue
        spec: ConvSpec = op.attrs["spec"]
        work.append((spec, op.attrs["bits"], op.attrs.get("epilogue", "requant")))
    backend.prewarm(work)


def _price_conv_with_fallback(
    be: Backend, spec: ConvSpec, bits: int, epilogue: str
):
    """Price one conv; a backend failure degrades to the ``ref`` backend.

    A pricing failure on one layer (a cost-model bug, a quarantined-empty
    autotune sweep, an injected fault at the ``executor.price_conv``
    site) must not take down the whole graph report: the layer is
    re-priced on the pure op-count ``ref`` backend with a warning and a
    ``resilience_fallbacks`` counter bump.  The ``ref`` backend itself
    has no fallback — its failures (and programming errors, which are
    not :class:`ReproError`) propagate.
    """
    try:
        res_faults.inject(
            "executor.price_conv", key=f"{be.name}:{spec.name}:{bits}")
        return be.price_conv(spec, bits, epilogue=epilogue)
    except ReproError as exc:
        if be.name == "ref":
            raise
        obs_metrics.counter(
            "resilience_fallbacks", backend=be.name, op="conv").inc()
        obs_log.warning(
            "price_conv_fallback", logger="repro.runtime.executor",
            backend=be.name, layer=spec.name, bits=bits,
            error=type(exc).__name__,
        )
        return get_backend("ref").price_conv(spec, bits, epilogue=epilogue)


def estimate_graph_cycles(
    graph: Graph, backend: "str | Backend" = "gpu"
) -> GraphCostReport:
    """Price every op of the pipeline on a registered backend.

    Convolutions are priced through :meth:`Backend.price_conv` and charged
    their :attr:`~repro.backends.ConvPrice.graph_cycles` (the conv total
    minus any quantize/dequantize passes the backend's layer price folds
    in — this graph carries those ops explicitly); element-wise ops go
    through :meth:`Backend.price_elementwise`.  ``backend`` is a
    registered name (``repro.backends.available_backends()``) or a
    :class:`Backend` instance.  The backend's batched prewarm fills its
    memo caches first; the report is then assembled serially.

    Per-conv pricing degrades gracefully: a failing backend price falls
    back to the ``ref`` backend (see :func:`_price_conv_with_fallback`)
    instead of crashing the report.
    """
    be = get_backend(backend)
    with obs_trace.span("executor.prewarm", cat="executor", backend=be.name):
        _prewarm_conv_costs(graph, be)
    report = GraphCostReport(backend=be.name)
    # the element-wise ops act on the most recent conv's output tensor
    last_elems = 0
    for op in graph:
        if op.kind == "conv":
            spec: ConvSpec = op.attrs["spec"]
            bits = op.attrs["bits"]
            last_elems = spec.output_elems
            price = _price_conv_with_fallback(
                be, spec, bits, op.attrs.get("epilogue", "requant")
            )
            report.op_cycles.append((repr(op), price.graph_cycles))
        else:
            report.op_cycles.append(
                (op.kind, be.price_elementwise(op.kind, last_elems))
            )
    obs_metrics.counter("executor_graphs_priced", backend=be.name).inc()
    return report
