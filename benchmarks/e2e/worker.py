"""One process of the end-to-end benchmark, started by ``run.py``.

Usage: ``python worker.py '<job json>'``.  The job's ``task`` is:

* ``setup`` — import the workload's modules (for ``serve``, also price the
  two cost tables), note when ready, exit;
* ``reproduce`` — regenerate the 11 registry figures, ``fig10`` at batch 16
  and ``tab1``, against whatever cache state the driver arranged;
* ``price_sweep`` — per model, as ``CostTable.build`` does: one ``gpu``
  prewarm, then ``price_conv`` over its unique convs at batch 1..16 and
  4/8 bits (1,728 calls over the three models);
* ``serve`` / ``kernels`` — the workload's round.

Every task but ``setup`` runs the job's ``rounds`` rounds one after
another, numbering them from the job's ``round``.

Inputs come from the job's seed and are made before the first timed call.
A timed region holds one call into a public ``repro`` function and nothing
else.  The worker checks array outputs itself and reports digests of
simulated results; the driver compares those against ``expected.json``.
Results, and the spans of a traced job, go to ``job["out"]`` as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import os
import pathlib
import resource
import sys
import time
import traceback

import tracing

#: batch sizes of the price sweep, as ``CostTable.build`` and
#: ``layers --backend`` price them
BATCHES = range(1, 17)
SWEEP_MODELS = ("resnet50", "scr-resnet50", "densenet121")
#: longest reduction run through the ARM functional simulator.  Longer
#: slices repeat the same SMLAL/MLA chains and drains; leaving them to the
#: GPU path and conv2d_ref keeps a kernels pass short enough to repeat.
ARM_MAX_K = 1152


class Worker:
    def __init__(self, job: dict) -> None:
        self.job = job
        #: timed calls: [class, seconds, ok, round, units, label, start,
        #: probe]; probe is the median host probe around the call, filled
        #: in by :meth:`judge_ops` once the last probe is taken
        self.ops: list[list] = []
        #: host probes, [taken_at, seconds], taken between timed calls
        #: (see ``timed``)
        self.probes: list[list[float]] = []
        self.last_probe = time.perf_counter()
        self.errors: list[str] = []
        self.extra: dict = {}
        self.rec = tracing.Recorder(job["proc"], job["parent"]) if job["trace"] else None
        self.round = None

    @property
    def round(self) -> int | None:
        """The measured round calls belong to; None during set-up."""
        return self._round

    @round.setter
    def round(self, value: int | None) -> None:
        self._round = value
        if self.rec is not None:
            self.rec.round = value

    def span(self, name: str, **args):
        if self.rec is None:
            return contextlib.nullcontext()
        return self.rec.span(name, **args)

    def error(self, what: str, exc: BaseException | str) -> None:
        if len(self.errors) < 20:
            detail = exc if isinstance(exc, str) else "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
            self.errors.append(f"{what}: {detail}")

    def probe(self) -> None:
        """Time one host probe for each ``PROBE_EVERY_S`` that has passed
        since the last probes (one, the first time), so the probes sample
        the process's time evenly, the stretches of long calls included."""
        owed = int((time.perf_counter() - self.last_probe) / tracing.PROBE_EVERY_S)
        if owed or not self.probes:
            for _ in range(max(owed, 1)):
                self.probes.append([time.perf_counter(), tracing.host_probe()])
            self.last_probe = time.perf_counter()

    def judge_ops(self) -> None:
        """Give every timed call the median probe around it."""
        self.probe()  # the stretch after the last call
        for op in self.ops:
            op.append(tracing.nearby_probe(self.probes, op[6], op[1]))

    def timed(self, cls, fn, *args, units=0, label="", span=None, **kwargs):
        """Time one call.  Returns ``(op, result)``; an exception fails
        the op and gives ``result=None``.  Callers that check the result
        set ``op[2] = False`` on a mismatch.

        Before the call, outside its timed region, the worker catches up
        on its probes, so one is taken at most ``PROBE_EVERY_S`` before
        the call starts.  A caller that wraps the call in a span of its
        own probes before opening it."""
        self.probe()
        op = [cls, 0.0, False, self.round, units, label, 0.0]
        self.ops.append(op)
        with self.span(span[0], **span[1]) if span else contextlib.nullcontext():
            t0 = op[6] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:  # a failed op: reported, the run goes on
                op[1] = time.perf_counter() - t0
                self.error(f"{cls} {label}", exc)
                return op, None
            op[1] = time.perf_counter() - t0
        op[2] = True
        return op, out

    def rounds(self):
        """Closed loop: yield the job's round numbers, one round after
        another, each inside a ``round`` span.  Outside the loop
        :attr:`round` is None, so set-up work is never counted as a
        measured round."""
        for i in range(self.job["rounds"]):
            self.round = self.job["round"] + i
            with self.span("round", round=self.round):
                yield self.round
        self.round = None


def _cache_files(namespace: str) -> int:
    d = pathlib.Path(os.environ["REPRO_CACHE_DIR"]) / namespace
    return sum(1 for _ in d.glob("*.json")) if d.is_dir() else 0


def _dir_bytes(root: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def instrument(rec: tracing.Recorder) -> None:
    """Wrap the program's call-level entry points in spans and its
    tile-level calls in counters.  The worker's own timed calls
    (figures, ``run_serve``, the functional convs) record their spans in
    :meth:`Worker.timed` instead."""
    from repro.arm.kernels.base import MicroKernel
    from repro.backends.arm import ArmBackend
    from repro.backends.base import Backend
    from repro.backends.gpu import GpuBackend
    from repro.backends.ref import RefBackend
    from repro.serve.cost import CostTable

    # import_module: package attributes can shadow submodules
    # (repro.gpu.autotune is also a function)
    arm_kernels, conv_runner, autotune, implicit_gemm = (
        importlib.import_module(f"repro.{m}")
        for m in ("arm.kernels", "arm.conv_runner", "gpu.autotune", "gpu.implicit_gemm"))

    def price_args(self, spec, bits, epilogue=None, **kw):
        return {"backend": self.name, "conv": spec.describe(), "batch": spec.batch,
                "bits": bits, "variant": ",".join(f"{k}={v}" for k, v in sorted(kw.items()))}

    def price_result(p):
        return {"total_cycles": p.total_cycles, "compute_cycles": p.compute_cycles,
                "quant_cycles": p.quant_cycles}

    for cls in (ArmBackend, GpuBackend, RefBackend):
        rec.wrap(cls, "price_conv", "price_conv", args=price_args, result=price_result)
    # ArmBackend.prewarm batches schedules, then calls Backend.prewarm
    for cls in (Backend, ArmBackend):
        rec.wrap(cls, "prewarm", "prewarm",
                 args=lambda self, work, jobs=None: {"backend": self.name, "items": len(work)})
    rec.wrap(autotune, "autotune_conv", "autotune_conv",
             args=lambda spec, bits, **kw: {"bits": bits})
    rec.wrap(conv_runner, "time_arm_conv", "time_arm_conv",
             args=lambda spec, bits, **kw: {"bits": bits})
    rec.wrap(CostTable, "build", "CostTable.build",
             args=lambda cls, backend, *a, **kw: {"backend": backend})
    for name in ("im2col", "pack_gemm_operands", "output_from_gemm"):
        rec.wrap(conv_runner, name, name)
    for scheme in ("smlal", "mla", "ncnn", "popcount"):
        rec.wrap(arm_kernels, f"generate_{scheme}_kernel", "generate_kernel",
                 args=lambda *a, _s=scheme, **kw: {"scheme": _s})
    rec.wrap(implicit_gemm, "build_offsets", "build_offsets")
    rec.count(MicroKernel, "execute", "MicroKernel.execute",
              units=lambda self, *a, **kw: len(self.stream))
    for name in ("mma_m8n8k16_int8", "mma_m8n8k32_int4"):
        rec.count(implicit_gemm, name, name)


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def prepare_reproduce(w: Worker) -> dict:
    from repro.analysis.report import Series, format_table
    from repro.figures import fig10_gpu_speedups, figure_registry, tab1_configurations

    def render(data) -> str:
        # the text benchmarks/conftest.py and the tab1 test write to
        # benchmarks/out/, which expected.json pins
        if isinstance(data, dict):
            return json.dumps(data, indent=2)
        series = list(data.series) + [Series(data.baseline_label, data.baseline_times)]
        return f"== {data.figure} ==\n{format_table(list(data.labels), series)}\n"

    artifacts = list(figure_registry().items()) + [
        ("fig10-b16", lambda: fig10_gpu_speedups(batch=16)),
        ("tab1", tab1_configurations),
    ]
    return {"artifacts": artifacts, "render": render}


def run_reproduce(w: Worker, ctx: dict) -> None:
    digests = w.extra.setdefault("digests", {})
    for _ in w.rounds():
        for name, fn in ctx["artifacts"]:
            _, data = w.timed(f"figure.{name}.{w.job['phase']}", fn, units=1, label=name,
                              span=("figure", {"artifact": name, "phase": w.job["phase"]}))
            if data is not None:
                digests[name] = hashlib.sha256(ctx["render"](data).encode()).hexdigest()


# ---------------------------------------------------------------------------
# price_sweep
# ---------------------------------------------------------------------------


def prepare_price_sweep(w: Worker) -> dict:
    from repro.backends import get_backend
    from repro.models import get_model_layers

    models = {m: get_model_layers(m) for m in SWEEP_MODELS}
    if w.job["smoke"]:
        models = {"resnet50": models["resnet50"][:2]}
    return {"gpu": get_backend("gpu"), "models": models}


def run_price_sweep(w: Worker, ctx: dict) -> None:
    gpu = ctx["gpu"]
    works = {model: [(s.with_batch(b), bits, None)
                     for bits in (4, 8) for b in BATCHES for s in specs]
             for model, specs in ctx["models"].items()}
    for _ in w.rounds():
        h = hashlib.sha256()
        for model, work in works.items():
            w.timed("prewarm", gpu.prewarm, work, label=model)
            for spec, bits, _ in work:
                _, p = w.timed("price_conv", gpu.price_conv, spec, bits, units=1)
                if p is not None:
                    h.update(f"{model}/{spec.name}/{spec.batch}/{bits}:{p.total_cycles!r},"
                             f"{p.compute_cycles!r},{p.quant_cycles!r};".encode())
        w.extra["digest"] = h.hexdigest()


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def prepare_serve(w: Worker) -> dict:
    from repro.serve import CostTable, ServeConfig

    return {"CostTable": CostTable, "ServeConfig": ServeConfig}


def setup_serve(w: Worker, ctx: dict) -> None:
    """Serve's set-up: the primary and fallback cost tables, priced as
    ``repro serve`` prices them."""
    CostTable = ctx["CostTable"]
    # `repro serve`'s 2000 qps, but 2k requests instead of its 10k: a run
    # repeats each 0.1-0.3 s replay 30 to 50 times, so the median replay of
    # a run rests on many samples.
    cfg = ctx["ServeConfig"](qps=2000.0, requests=2000, seed=w.job["seed"], shape="steady")
    ctx["cfg"] = cfg
    for role, backend in (("primary", cfg.backend), ("fallback", cfg.fallback)):
        ctx[role] = CostTable.build(backend, cfg.model, bits=cfg.bits,
                                    max_batch=cfg.max_batch,
                                    overhead_us=cfg.dispatch_overhead_us)


def run_serve_rounds(w: Worker, ctx: dict) -> None:
    from repro.resilience import faults
    from repro.serve import ServeConfig, chaos_spec, generate_trace, run_serve, summary_digest
    from repro.serve.harness import KILL_WINDOW

    steady = ctx["cfg"]
    horizon_us = steady.requests / steady.qps * 1e6
    # the `repro serve --chaos` plan, on the burst arrival shape
    chaos = ServeConfig(**{**steady.echo(), "shape": "burst",
                           "kill_start_us": KILL_WINDOW[0] * horizon_us,
                           "kill_end_us": KILL_WINDOW[1] * horizon_us})
    replays = [
        (kind, cfg, generate_trace(cfg.qps, cfg.requests, seed=cfg.seed,
                                   slo_us=cfg.slo_us, shape=cfg.shape))
        for kind, cfg in (("steady", steady), ("chaos", chaos))
    ]
    summaries = w.extra.setdefault("replays", [])
    for _ in w.rounds():
        for kind, cfg, trace in replays:
            plan = (faults.fault_plan(chaos_spec(cfg.backend), seed=cfg.seed)
                    if kind == "chaos" else contextlib.nullcontext())
            with plan:
                op, s = w.timed(f"run_serve.{kind}", run_serve, cfg,
                                primary_table=ctx["primary"],
                                fallback_table=ctx["fallback"], trace=trace,
                                label=kind, span=("run_serve", {"replay": kind}))
            if s is None:
                continue
            counts = s["counts"]
            op[4] = counts["offered"]
            summaries.append({
                "kind": kind, "round": w.round, "digest": summary_digest(s),
                "requests": cfg.requests, "offered": counts["offered"],
                "batches": counts["batches"],
                "conservation": s["invariants"]["conservation"],
                "faults_injected": sum(s["faults_injected"].values()),
                "breaker_opens": s["breaker"]["opens"],
            })


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def prepare_kernels(w: Worker) -> dict:
    import numpy as np

    from repro.arm.conv_runner import execute_arm_conv, time_arm_conv
    from repro.conv.ref import conv2d_ref
    from repro.gpu.implicit_gemm import conv2d_implicit_gemm
    from repro.gpu.mma import mma_shape
    from repro.gpu.tiling import TilingParams
    from repro.models import get_model_layers
    from repro.types import ConvSpec

    return {"np": np, "execute_arm_conv": execute_arm_conv, "time_arm_conv": time_arm_conv,
            "conv2d_ref": conv2d_ref, "conv2d_implicit_gemm": conv2d_implicit_gemm,
            "mma_shape": mma_shape, "TilingParams": TilingParams,
            "get_model_layers": get_model_layers, "ConvSpec": ConvSpec}


def _crop(ctx: dict, spec, cout: int, out_hw: int, name: str | None = None):
    """``spec`` with its real Cin, kernel, stride and padding (so K and the
    Sec. 3.3 chain lengths are the layer's own), ``cout`` output channels
    and an ``out_hw x out_hw`` output."""
    (k, _), (s, _), (p, _) = spec.kernel, spec.stride, spec.padding
    hw = (out_hw - 1) * s + k - 2 * p
    return ctx["ConvSpec"](name or spec.name, in_channels=spec.in_channels,
                           out_channels=cout, height=hw, width=hw, kernel=spec.kernel,
                           stride=spec.stride, padding=spec.padding)


def kernel_cases(w: Worker, ctx: dict) -> tuple[list[dict], list[dict]]:
    """The ``kernels`` inputs, each slice one register tile (a 16x4 SMLAL
    tile at 4/8 bits, a 64x1 MLA tile at 2 bits).  Every slice runs on the
    GPU path at 4 and 8 bits.  Slices with K <= ARM_MAX_K also run on the
    ARM path at one bit width, the widths going round 2, 4, 8 in falling K
    so each sees long and short reductions.  Plus the 64-tile wide slice,
    and the full-size convs for ``conv2d_ref``."""
    np = ctx["np"]
    rng = np.random.default_rng(w.job["seed"])
    layers = ctx["get_model_layers"]("resnet50")
    if w.job["smoke"]:
        layers = layers[:2]

    def operands(spec, bits):
        half = 1 << (bits - 1)
        x = rng.integers(-half, half, spec.input_shape()).astype(np.int8)
        wt = rng.integers(-half, half, spec.weight_shape()).astype(np.int8)
        return x, wt

    seen, slices = set(), []
    for spec in layers:
        key = (spec.in_channels, spec.kernel, spec.stride, spec.padding)
        if key not in seen:  # equal crops of different convs are one slice
            seen.add(key)
            slices.append(spec)
    slices.sort(key=lambda s: -s.gemm_k)
    cases = []
    arm = [s for s in slices if s.gemm_k <= ARM_MAX_K]
    for spec in slices:
        arm_bits = (2, 4, 8)[arm.index(spec) % 3] if spec in arm else None
        for bits, cout, hw in ((2, 64, 1), (4, 16, 2), (8, 16, 2)):
            if bits == arm_bits or bits in (4, 8):
                sl = _crop(ctx, spec, cout, hw)
                cases.append({"slice": sl, "bits": bits, "arm": bits == arm_bits,
                              "gpu": bits in (4, 8), "ops": operands(sl, bits)})
    if not w.job["smoke"]:
        # conv1 (K=64) with an 8x8 output: 4 x 16 SMLAL tiles in one call
        sl = _crop(ctx, layers[0], 64, 8, name="wide")
        cases.append({"slice": sl, "bits": 4, "arm": True, "gpu": False,
                      "ops": operands(sl, 4)})
    full = [{"spec": spec, "ops": operands(spec, 8)} for spec in layers]
    return cases, full


def _direct(np, spec, x, wt, n, co, oy, ox) -> int:
    """One output element by the definition, for checking full convs."""
    (kh, kw), (sh, sw), (ph, pw) = spec.kernel, spec.stride, spec.padding
    xp = np.pad(x[n].astype(np.int64), ((0, 0), (ph, ph), (pw, pw)))
    win = xp[:, oy * sh:oy * sh + kh, ox * sw:ox * sw + kw]
    return int((win * wt[co].astype(np.int64)).sum())


def run_kernels(w: Worker, ctx: dict) -> None:
    np = ctx["np"]
    cases, full = kernel_cases(w, ctx)
    if w.rec is not None:
        # modelled cycles for the per-conv table, which traced runs build
        model = w.extra.setdefault("model", {})
        for case in (c for c in cases if c["arm"]):
            sl, bits = case["slice"], case["bits"]
            perf = ctx["time_arm_conv"](sl, bits)
            model[f"{sl.name}/b{bits}"] = {
                "conv": sl.describe(), "kernel": perf.kernel_cycles,
                "im2col": perf.im2col_cycles, "pack": perf.pack_cycles,
                "requant": perf.requant_cycles, "mem": perf.mem_cycles}
    gpu_tiling = {}
    for bits in (4, 8):
        kk = ctx["mma_shape"](bits)[2]
        # smallest legal block tile: M is a 2x2 crop's 4 pixels, N is Cout 16
        gpu_tiling[bits] = ctx["TilingParams"](16, 16, 2 * kk, kk, 1, 1)
    sample = np.random.default_rng(w.job["seed"] + 1)
    tiles = w.rec.tiles if w.rec is not None else {}

    def check(op, cls, label, out, want) -> None:
        if out is not None and (want is None or not np.array_equal(out, want)):
            op[2] = False
            w.error(f"{cls} {label}", "output differs from conv2d_ref")

    for _ in w.rounds():
        for case in cases:
            sl, bits, (x, wt) = case["slice"], case["bits"], case["ops"]
            label = f"{sl.name}/b{bits}"
            _, ref = w.timed("conv2d_ref.slice", ctx["conv2d_ref"], sl, x, wt,
                             units=sl.macs, label=label,
                             span=("conv2d_ref", {"slice": label, "scope": "slice"}))
            if case["arm"]:
                cls = ("execute_arm_conv.wide" if sl.name == "wide"
                       else f"execute_arm_conv.b{bits}")
                kernel_s = tiles.get("MicroKernel.execute", [0, 0.0])[1]
                w.probe()  # not inside the span: its time would count as assembly
                with w.span("execute_arm_conv", slice=sl.name, bits=bits) as rec:
                    op, out = w.timed(cls, ctx["execute_arm_conv"], sl, x, wt, bits,
                                      check_overflow=True, units=sl.macs, label=label)
                    if rec is not None:
                        rec["args"]["kernel_s"] = (
                            tiles.get("MicroKernel.execute", [0, 0.0])[1] - kernel_s)
                check(op, cls, label, out, ref)
            if case["gpu"]:
                cls = f"conv2d_implicit_gemm.b{bits}"
                x_nhwc = np.ascontiguousarray(np.transpose(x, (0, 2, 3, 1)))
                op, out = w.timed(cls, ctx["conv2d_implicit_gemm"], sl, x_nhwc, wt,
                                  bits=bits, tiling=gpu_tiling[bits], units=sl.macs,
                                  label=label, span=("conv2d_implicit_gemm",
                                                     {"slice": sl.name, "bits": bits}))
                check(op, cls, label, None if out is None else out.data,
                      None if ref is None else np.transpose(ref, (0, 2, 3, 1)))
        for item in full:
            spec, (x, wt) = item["spec"], item["ops"]
            op, out = w.timed("conv2d_ref.full", ctx["conv2d_ref"], spec, x, wt,
                              units=spec.macs, label=spec.name,
                              span=("conv2d_ref", {"slice": spec.name, "scope": "full"}))
            if out is None:
                continue
            for _ in range(4):
                idx = tuple(int(sample.integers(d)) for d in out.shape)
                if int(out[idx]) != _direct(np, spec, x, wt, *idx):
                    op[2] = False
                    w.error(f"conv2d_ref.full {spec.name}", f"element {idx} is wrong")
                    break
    w.extra["gpu_mac_shape"] = {b: list(ctx["mma_shape"](b)) for b in (4, 8)}


# ---------------------------------------------------------------------------


#: workload -> (imports, set-up after imports or None, timed rounds)
TASKS = {
    "reproduce": (prepare_reproduce, None, run_reproduce),
    "price_sweep": (prepare_price_sweep, None, run_price_sweep),
    "serve": (prepare_serve, setup_serve, run_serve_rounds),
    "kernels": (prepare_kernels, None, run_kernels),
}


def _counters() -> dict:
    from repro.arm.cost_model import schedule_store
    from repro.gpu.autotune import cache_store
    from repro.obs import metrics as m

    return {
        "autotune_sweeps": m.counter("autotune_sweeps", engine="pruned").value,
        "autotune_candidates": m.counter("autotune_candidates", engine="pruned").value,
        "autotune_evaluated": m.counter("autotune_evaluated", engine="pruned").value,
        "arm_computed": m.counter("arm_schedules", outcome="computed").value,
        "arm_store_hit": m.counter("arm_schedules", outcome="store_hit").value,
        "cache_gpu": cache_store().stats.as_dict(),
        "cache_arm": schedule_store().stats.as_dict(),
    }


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    w = Worker(job)
    prepare, setup, run = TASKS[job["workload"]]
    gpu_entries = _cache_files("gpu-autotune")
    t0 = time.perf_counter()
    ctx = prepare(w)
    w.extra["import_s"] = time.perf_counter() - t0
    if w.rec is not None:
        instrument(w.rec)
    if setup is not None:
        setup(w, ctx)
    w.extra["ready_mono"] = time.monotonic()
    if job["task"] != "setup":
        run(w, ctx)
        w.judge_ops()
        w.extra["counters"] = _counters()
        w.extra["counters"]["autotune_new_entries"] = _cache_files("gpu-autotune") - gpu_entries
        w.extra["cache_bytes"] = _dir_bytes(pathlib.Path(os.environ["REPRO_CACHE_DIR"]))
    w.extra["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"ops": w.ops, "probes": w.probes, "errors": w.errors, **w.extra}
    if w.rec is not None:
        out["trace"] = w.rec.dump()
    tmp = pathlib.Path(job["out"] + ".tmp")
    tmp.write_text(json.dumps(out))
    tmp.replace(job["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
