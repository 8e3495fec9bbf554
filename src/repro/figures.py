"""Regeneration of every evaluation table and figure (Sec. 5).

One function per paper artifact, each returning ``(labels, series)`` ready
for :func:`repro.analysis.report.format_table`.  The benchmark harness
(``benchmarks/``) calls these, prints the tables, and asserts the
paper-shape properties; the examples reuse them interactively.

Speedup conventions match the paper's bars: values are
``baseline_time / our_time``, so higher is better and the baseline is 1.0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .analysis.report import Series
from .analysis.space import model_space_report
from .backends import get_backend
from .models import get_model_layers
from .obs import trace as obs_trace
from .types import ConvSpec

ARM_BITS = tuple(range(2, 9))
GPU_BITS = (8, 4)


def _traced(fn):
    """Wrap a figure generator in a trace span (no-op while disabled)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs_trace.span(f"figure.{fn.__name__}", cat="figure"):
            return fn(*args, **kwargs)

    return wrapper


@dataclass(frozen=True)
class FigureData:
    """Labels + series + the baseline's absolute per-layer times."""

    figure: str
    labels: tuple[str, ...]
    series: tuple[Series, ...]
    baseline_label: str
    baseline_times: tuple[float, ...]  #: ms on ARM, us on GPU

    def series_by_name(self, name: str) -> Series:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(name)


# ---------------------------------------------------------------------------
# ARM figures
# ---------------------------------------------------------------------------


@_traced
def fig7_arm_speedups(model: str = "resnet50", *, batch: int = 1) -> FigureData:
    """Fig. 7 (and Fig. 14/15 with other models): our 2~8-bit conv kernels
    vs the ncnn 8-bit baseline, per layer."""
    arm = get_backend("arm")
    layers = get_model_layers(model, batch=batch)
    arm.prewarm([(s, b, None) for b in ARM_BITS for s in layers])
    ncnn = arm.baselines()["ncnn"]
    base = [ncnn(spec) for spec in layers]
    series = []
    for bits in ARM_BITS:
        ours = [arm.price_conv(spec, bits) for spec in layers]
        series.append(Series(
            f"{bits}-bit",
            tuple(b.total_cycles / o.total_cycles for b, o in zip(base, ours)),
        ))
    return FigureData(
        figure=f"fig7[{model}]",
        labels=tuple(spec.name for spec in layers),
        series=tuple(series),
        baseline_label="ncnn 8-bit (ms)",
        baseline_times=tuple(b.milliseconds for b in base),
    )


@_traced
def fig8_arm_winograd(model: str = "resnet50") -> FigureData:
    """Fig. 8: GEMM-based vs winograd-based kernels at 4~6-bit on the
    3x3/s1 layers, against the ncnn baseline."""
    # the winograd bit range is an ARM-kernel property, not a figure knob
    from .arm.winograd_runner import WINOGRAD_BITS

    arm = get_backend("arm")
    layers = [s for s in get_model_layers(model) if s.is_winograd_eligible()]
    base = [arm.baselines()["ncnn"](spec) for spec in layers]
    series = []
    for bits in WINOGRAD_BITS:
        gemm = [arm.price_conv(spec, bits) for spec in layers]
        series.append(Series(
            f"gemm {bits}-bit",
            tuple(b.total_cycles / g.total_cycles for b, g in zip(base, gemm)),
        ))
        wino = [arm.price_conv(spec, bits, algorithm="winograd")
                for spec in layers]
        series.append(Series(
            f"winograd {bits}-bit",
            tuple(b.total_cycles / w.total_cycles for b, w in zip(base, wino)),
        ))
    return FigureData(
        figure="fig8",
        labels=tuple(spec.name for spec in layers),
        series=tuple(series),
        baseline_label="ncnn 8-bit (ms)",
        baseline_times=tuple(b.milliseconds for b in base),
    )


@_traced
def fig9_arm_popcount(model: str = "resnet50") -> FigureData:
    """Fig. 9: our 2-bit kernels vs the TVM popcount A2W2 baseline."""
    arm = get_backend("arm")
    layers = get_model_layers(model)
    popcount = arm.baselines()["tvm-popcount"]
    tvm = [popcount(spec) for spec in layers]
    ours = [arm.price_conv(spec, 2) for spec in layers]
    series = (Series(
        "ours 2-bit vs TVM",
        tuple(t.total_cycles / o.total_cycles for t, o in zip(tvm, ours)),
    ),)
    return FigureData(
        figure="fig9",
        labels=tuple(spec.name for spec in layers),
        series=series,
        baseline_label="TVM popcount (ms)",
        baseline_times=tuple(t.milliseconds for t in tvm),
    )


@_traced
def fig13_space_overhead(model: str = "resnet50") -> FigureData:
    """Fig. 13: im2col and pad/pack space overheads per layer."""
    layers = get_model_layers(model)
    report = model_space_report(layers)
    series = (
        Series("im2col", tuple(r.im2col_ratio for r in report)),
        Series("pad+pack", tuple(r.pack_ratio for r in report)),
        Series("total", tuple(r.total_ratio for r in report)),
    )
    return FigureData(
        figure="fig13",
        labels=tuple(spec.name for spec in layers),
        series=series,
        baseline_label="activation+weight (KB)",
        baseline_times=tuple(r.baseline_bytes / 1024 for r in report),
    )


def fig14_arm_densenet() -> FigureData:
    return fig7_arm_speedups("densenet121")


def fig15_arm_scr() -> FigureData:
    return fig7_arm_speedups("scr-resnet50")


# ---------------------------------------------------------------------------
# GPU figures
# ---------------------------------------------------------------------------


@_traced
def fig10_gpu_speedups(model: str = "resnet50", *, batch: int = 1) -> FigureData:
    """Fig. 10 (and Fig. 16/17): our 4/8-bit kernels and TensorRT vs the
    cuDNN dp4a baseline."""
    gpu = get_backend("gpu")
    layers = get_model_layers(model, batch=batch)
    gpu.prewarm([(s, b, None) for b in GPU_BITS for s in layers])
    baselines = gpu.baselines()
    base = [baselines["cudnn-dp4a"](spec) for spec in layers]
    series = []
    for bits in GPU_BITS:
        ours = [gpu.price_conv(spec, bits) for spec in layers]
        series.append(Series(
            f"ours {bits}-bit",
            tuple(b.total_cycles / o.total_cycles for b, o in zip(base, ours)),
        ))
    trt = [baselines["tensorrt"](spec) for spec in layers]
    series.append(Series(
        "TensorRT 8-bit",
        tuple(b.total_cycles / t.total_cycles for b, t in zip(base, trt)),
    ))
    return FigureData(
        figure=f"fig10[{model},b{batch}]",
        labels=tuple(spec.name for spec in layers),
        series=tuple(series),
        baseline_label="cuDNN dp4a (us)",
        baseline_times=tuple(b.microseconds for b in base),
    )


@_traced
def fig11_gpu_autotune(model: str = "resnet50", *, batch: int = 1) -> FigureData:
    """Fig. 11: performance with profile-run tiling search over defaults."""
    gpu = get_backend("gpu")
    layers = get_model_layers(model, batch=batch)
    gpu.prewarm([(s, b, None) for b in GPU_BITS for s in layers])
    series = []
    for bits in GPU_BITS:
        vals = []
        for spec in layers:
            tuned = gpu.price_conv(spec, bits).total_cycles
            default = gpu.price_conv(spec, bits, tuned=False).total_cycles
            vals.append(default / tuned)
        series.append(Series(f"{bits}-bit w/ profile", tuple(vals)))
    base = [gpu.price_conv(spec, 8, tuned=False) for spec in layers]
    return FigureData(
        figure=f"fig11[b{batch}]",
        labels=tuple(spec.name for spec in layers),
        series=tuple(series),
        baseline_label="8-bit w/o profile (us)",
        baseline_times=tuple(b.microseconds for b in base),
    )


@_traced
def fig12_gpu_fusion(model: str = "resnet50", *, batch: int = 1) -> FigureData:
    """Fig. 12: conv+dequant and conv+ReLU fusion speedups (8-bit)."""
    # kernel-fusion pipelines are a GPU-only experiment by construction
    from .gpu.fusion import fusion_speedups

    gpu = get_backend("gpu")
    layers = get_model_layers(model, batch=batch)
    dq, relu = [], []
    for spec in layers:
        sp = fusion_speedups(spec, 8, device=gpu.machine)
        dq.append(sp["conv+dequant"])
        relu.append(sp["conv+relu"])
    cudnn = gpu.baselines()["cudnn-dp4a"]
    base = [cudnn(spec) for spec in layers]
    return FigureData(
        figure=f"fig12[b{batch}]",
        labels=tuple(spec.name for spec in layers),
        series=(Series("conv+dequant", tuple(dq)),
                Series("conv+relu", tuple(relu))),
        baseline_label="unfused conv (us)",
        baseline_times=tuple(b.microseconds for b in base),
    )


def fig16_gpu_scr() -> FigureData:
    return fig10_gpu_speedups("scr-resnet50", batch=1)


def fig17_gpu_densenet() -> FigureData:
    return fig10_gpu_speedups("densenet121", batch=1)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def tab1_configurations() -> dict[str, dict[str, object]]:
    """Tab. 1: the paper's two simulated platforms, described by their
    registered backends."""
    arm, gpu = get_backend("arm"), get_backend("gpu")
    return {
        arm.display_name: arm.describe(),
        gpu.display_name: gpu.describe(),
    }


# ---------------------------------------------------------------------------
# Registry (the one list every reporting surface dispatches on)
# ---------------------------------------------------------------------------


def figure_registry() -> "dict[str, object]":
    """Figure name -> ``fn(model=..., batch=...)`` generator.

    The single source of truth for what is reproducible; the CLI, the
    profile/report surfaces and the bench/regress tooling all dispatch
    through it.  Figures pinned to one workload (fig14..fig17) ignore the
    model/batch arguments.
    """
    return {
        "fig7": lambda model="resnet50", batch=1:
            fig7_arm_speedups(model, batch=batch),
        "fig8": lambda model="resnet50", batch=1: fig8_arm_winograd(model),
        "fig9": lambda model="resnet50", batch=1: fig9_arm_popcount(model),
        "fig10": lambda model="resnet50", batch=1:
            fig10_gpu_speedups(model, batch=batch),
        "fig11": lambda model="resnet50", batch=1:
            fig11_gpu_autotune(model, batch=batch),
        "fig12": lambda model="resnet50", batch=1:
            fig12_gpu_fusion(model, batch=batch),
        "fig13": lambda model="resnet50", batch=1: fig13_space_overhead(model),
        "fig14": lambda model="resnet50", batch=1: fig14_arm_densenet(),
        "fig15": lambda model="resnet50", batch=1: fig15_arm_scr(),
        "fig16": lambda model="resnet50", batch=1: fig16_gpu_scr(),
        "fig17": lambda model="resnet50", batch=1: fig17_gpu_densenet(),
    }
