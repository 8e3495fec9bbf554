#!/usr/bin/env python3
"""End-to-end benchmark of the repro system: four workloads, one driver.

    python benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--out FILE]
        [--table] [--smoke] [--expected FILE]

Workloads (README.md says why each one exists):

  reproduce    every paper artifact, cold then warm, in fresh processes
  price_sweep  gpu prewarm + 1,728 price_conv calls on an empty cache
  serve        2k-request steady and chaos replays through run_serve
  kernels      the ARM and GPU functional simulators, and conv2d_ref

Each workload process is started by this driver, one after another, with
a fresh temporary REPRO_CACHE_DIR, REPRO_JOBS=min(nproc, 4) and no other
REPRO_* variable.  A run is a closed loop of iterations; each one runs the
workload's processes and then one set-up-only process, so that set-up is
sampled across the whole run.  ``--trace 0`` measures the end-to-end
metrics for ``--seconds``; ``--trace 1`` spends half of it untraced and
half traced and reports the per-layer metrics.  End-to-end times are
scaled to a reference host speed, measured by a probe the workers time
between calls (``tracing.host_probe``): each call by the median probe
around it, set-up by the run's median probe (README.md, "Steadiness and
time").  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 when a check
failed and 2 on bad usage or a checkout without src/repro.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from importlib import metadata

import tracing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("reproduce", "price_sweep", "serve", "kernels")
#: hard cap on one workload run, inside the 180 s a caller allows
DEADLINE_S = 170.0
#: rounds one serve process runs, so that its set-up (the two cost tables)
#: is paid once per several rounds.  A count, not a time: the process's
#: memory grows with the replays it has run, so a time would make
#: peak_rss_mb follow the host's speed.  Other workloads run one round per
#: process.
SERVE_ROUNDS = 8
NPROC = len(os.sched_getaffinity(0))
JOBS = min(NPROC, 4)

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s", "throughput": "1/s"}
ARTIFACTS = ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
             "fig15", "fig16", "fig17", "fig10-b16", "tab1")
PER_LAYER = {
    "import.repro_s": "s",
    **{f"figures.{a}.{p}_s": "s" for a in ARTIFACTS for p in ("cold", "warm")},
    **{f"backends.{b}.price_conv_s": "s" for b in ("gpu", "arm", "ref")},
    **{f"backends.{b}.price_conv_calls": "count" for b in ("gpu", "arm", "ref")},
    **{f"backends.{b}.prewarm_s": "s" for b in ("gpu", "arm")},
    "autotune.sweeps_computed": "count",
    "autotune.sweeps_duplicate": "count",
    "autotune.evaluated_frac": "fraction",
    "autotune.candidates_per_s": "1/s",
    "arm_schedule.computed": "count",
    "arm_schedule.hit_rate": "fraction",
    "arm_cost.time_arm_conv_s": "s",
    "cache.gpu.hit_rate": "fraction",
    "cache.arm.hit_rate": "fraction",
    "cache.errors": "count",
    "cache.bytes_on_disk": "B",
    "serve.cost_table_build_s": "s",
    "serve.steady.replay_s": "s",
    "serve.chaos.replay_s": "s",
    "serve.host_us_per_event": "us",
    "serve.chaos.faults_injected": "count",
    "serve.chaos.breaker_opens": "count",
    **{f"arm_func.b{b}.macs_per_s": "MAC/s" for b in (2, 4, 8)},
    "arm_sim.instr_per_s": "1/s",
    **{f"arm_func.{stage}_s": "s" for stage in ("im2col", "pack", "kernel", "assemble")},
    "arm_kernels.generate_s": "s",
    **{f"gpu_func.b{b}.macs_per_s": "MAC/s" for b in (4, 8)},
    "gpu_func.mma_calls": "count",
    "gpu_func.mma_s": "s",
    "gpu_func.offsets_s": "s",
    "gpu_func.useful_mac_frac": "fraction",
    "ref.full_macs_per_s": "MAC/s",
    "ref.slice_s": "s",
    "trace.overhead_frac": "fraction",
}


def hermetic_env(cache_dir: pathlib.Path) -> dict[str, str]:
    """The caller's environment minus every REPRO_* variable, plus the
    checkout's sources, a private cache and a pinned worker count.  A warm
    user cache would turn cold rounds warm; a stray REPRO_NO_VECTOR or
    REPRO_FAULTS would switch engines."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(cache_dir), REPRO_JOBS=str(JOBS))
    return env


def fingerprint() -> dict:
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
    return {
        "git_sha": git_sha,
        "source_sha": src.hexdigest(),
        "nproc": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "env": {"REPRO_CACHE_DIR": "<fresh temporary directory per process>",
                "REPRO_JOBS": str(JOBS), "other REPRO_*": "removed"},
    }


def another_iteration(done: int, elapsed_s: float, budget_s: float,
                      max_iterations: int) -> bool:
    """The closed-loop stop rule: at least one iteration, at most
    ``max_iterations``, and another while the average one so far still
    fits in ``budget_s``."""
    if done == 0:
        return True
    return done < max_iterations and elapsed_s + elapsed_s / done <= budget_s


def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def shown(path: pathlib.Path) -> str:
    """``path`` relative to the checkout when inside it, as results record it."""
    try:
        return path.resolve().relative_to(ROOT).as_posix()
    except ValueError:
        return str(path)


def typical_round(rounds: list[list], select=None, scaled: bool = True) -> tuple[float, float]:
    """(units, seconds) of one round in which every timed call takes its
    median time among the run's rounds (each a list of timed calls).  With
    ``scaled``, each time is first scaled to the reference host speed by
    the median host probe around the call.

    A round repeats the same calls in the same order, so a call is known by
    its position."""
    times: dict[int, list] = defaultdict(list)
    units: dict[int, float] = {}
    for ops in rounds:
        for i, op in enumerate(ops):
            if select is None or select(op):
                times[i].append(tracing.at_reference(op[1], op[7]) if scaled else op[1])
                units[i] = op[4]
    return sum(units.values()), sum(statistics.median(t) for t in times.values())


def op_classes(ops: list[list]) -> dict:
    """n, median and the highest percentile with >= 10 samples beyond it,
    per timed op class."""
    by = defaultdict(list)
    for op in ops:
        by[op[0]].append(op[1])
    out = {}
    for cls, xs in sorted(by.items()):
        xs.sort()
        tail = None
        for q, label in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90"), (0.5, "p50")):
            if len(xs) * (1 - q) >= 10:
                tail = {"q": label, "s": xs[math.ceil(q * len(xs)) - 1]}
                break
        out[cls] = {"n": len(xs), "median_s": statistics.median(xs), "tail": tail}
    return out


class Run:
    """One workload run: set-up samples, measured rounds, checks, metrics."""

    def __init__(self, args, workload: str, work_dir: pathlib.Path, expected: dict) -> None:
        self.args = args
        self.workload = workload
        self.work_dir = work_dir
        self.expected = expected
        self.deadline = time.monotonic() + DEADLINE_S
        self.rec = tracing.Recorder(0) if args.trace else None
        self.procs: list[dict] = []
        #: spawn-to-ready seconds of the untraced processes, warm-up excepted
        self.setup_samples: list[float] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.nproc = 0

    def span(self, name: str, **args):
        return self.rec.span(name, **args) if self.rec else contextlib.nullcontext()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), "" if ok else detail))

    def expect(self, section: str, key: str, digest: str, *, required: bool = True) -> None:
        """Compare a digest of simulated output with the pinned one.  The
        failure names the full digest: an intended change is re-pinned by
        copying it into expected.json."""
        want = self.expected.get(section, {}).get(key)
        if want is None and not required:
            return
        self.check(f"{section}.{key}", want == digest,
                   f"digest {digest} differs from pinned {want}")

    # -- processes ------------------------------------------------------------

    def spawn(self, task: str, *, cache_dir: pathlib.Path | None = None,
              traced: bool = False, **job) -> dict | None:
        """Run one worker to completion; returns its results or None."""
        self.nproc += 1
        own_cache = cache_dir is None
        if own_cache:
            cache_dir = pathlib.Path(tempfile.mkdtemp(prefix="cache-", dir=self.work_dir))
        out = self.work_dir / f"job-{self.nproc}.json"
        job.update(task=task, workload=self.workload, seed=self.args.seed,
                   smoke=self.args.smoke, proc=self.nproc, trace=traced, out=str(out))
        code: int | str = "not started"
        with self.span("process", task=task, proc=self.nproc) as rec:
            job["parent"] = rec["id"] if rec else None
            spawned = time.monotonic()
            try:
                code = subprocess.run(
                    [sys.executable, str(WORKER), json.dumps(job)],
                    env=hermetic_env(cache_dir), stdout=sys.stderr, check=False,
                    timeout=max(1.0, self.deadline - spawned)).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if own_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if code != 0 or not out.is_file():
            self.check(f"process.{task}", False, f"worker exited with {code}")
            return None
        res = json.loads(out.read_text())
        out.unlink()
        res["setup_s"] = res["ready_mono"] - spawned
        res["job"] = job
        self.procs.append(res)
        return res

    def measure(self, budget: float, traced: bool) -> list[list]:
        """Closed loop of iterations under ``another_iteration``.  An
        iteration runs one round in fresh processes (reproduce: cold, then
        warm on the filled cache; price_sweep and kernels: one process),
        or on serve one process that runs SERVE_ROUNDS rounds.  An
        untraced iteration then spawns one set-up-only process, so the
        set-up samples spread across the run instead of landing in one
        quiet or busy stretch of the host.  Returns the rounds, each the
        list of its timed calls."""
        max_iterations = 1 if self.args.smoke else 10**6
        by_round: dict[int, list] = defaultdict(list)
        t0 = time.monotonic()
        done = 0
        while another_iteration(done, time.monotonic() - t0, budget, max_iterations):
            job = {"traced": traced, "round": max(by_round, default=-1) + 1,
                   "rounds": (SERVE_ROUNDS if self.workload == "serve" and not self.args.smoke
                              else 1)}
            with self.span("iteration", iteration=done, traced=traced):
                if self.workload == "reproduce":
                    cache = pathlib.Path(tempfile.mkdtemp(prefix="cache-", dir=self.work_dir))
                    procs = [self.spawn("reproduce", cache_dir=cache, phase=p, **job)
                             for p in ("cold", "warm")]
                    shutil.rmtree(cache, ignore_errors=True)
                else:
                    procs = [self.spawn(self.workload, **job)]
            if not traced:
                procs.append(self.spawn("setup"))
                self.setup_samples += [p["setup_s"] for p in procs if p]
            for op in (op for p in procs if p for op in p["ops"]):
                by_round[op[3]].append(op)
            done += 1
        return [by_round[r] for r in sorted(by_round)]

    # -- checks ---------------------------------------------------------------

    def run_checks(self) -> None:
        size = "smoke" if self.args.smoke else "full"
        first: dict[str, str] = {}  # serve: digest of the run's first replay of each kind
        for res in self.procs:
            task = res["job"]["task"]
            if task == "setup":
                continue
            c = res["counters"]
            errors = c["cache_gpu"]["errors"] + c["cache_arm"]["errors"]
            self.check("cache.errors", errors == 0, f"{errors} cache errors")
            if task == "reproduce":
                for name in ARTIFACTS:
                    if name in res["digests"]:
                        self.expect("figures", name, res["digests"][name])
            elif task == "price_sweep":
                self.expect("price_sweep", size, res["digest"])
            elif task == "serve":
                for rp in res["replays"]:
                    kind = rp["kind"]
                    self.check(f"serve.{kind}.conservation", rp["conservation"],
                               "offered != admitted + shed or admitted != completed + expired")
                    if kind not in first:
                        first[kind] = rp["digest"]
                        self.expect("serve", f"{kind}/{rp['requests']}/seed{self.args.seed}",
                                    rp["digest"], required=False)
                    self.check(f"serve.{kind}.repeat_digest", rp["digest"] == first[kind],
                               "a repeated replay changed its summary")

    # -- metrics --------------------------------------------------------------

    def probe_times(self) -> list[float]:
        """The host probe times of the run's untraced processes."""
        return [x for p in self.procs if not p["job"]["trace"] for _, x in p["probes"]]

    def host_scale(self) -> float:
        """The factor that turns a set-up time measured on this host, in
        this stretch of the run, into one at the reference speed, by the
        run's median probe.  Set-up runs no probes of its own."""
        probes = self.probe_times()
        return tracing.at_reference(1.0, median(probes)) if probes else 0.0

    def end_to_end(self, rounds: list[list], scaled: bool) -> dict[str, float]:
        """The end-to-end metrics, with ``scaled`` at the reference host
        speed, else as measured."""
        rss_kb = max((p["maxrss_kb"] for p in self.procs if not p["job"]["trace"]), default=0)
        units, secs = typical_round(rounds, self.headline, scaled)
        return {
            "setup_s": median(self.setup_samples) * (self.host_scale() if scaled else 1.0),
            "peak_rss_mb": rss_kb / 1024,
            "round_s": typical_round(rounds, scaled=scaled)[1],
            "throughput": ratio(units, secs),
        }

    def headline(self, op: list) -> bool:
        """The calls ``throughput`` counts: artifacts in the cold process,
        every call of a price sweep, offered requests through run_serve, or
        MACs through the ARM functional simulator."""
        if self.workload == "reproduce":
            return op[0].endswith(".cold")
        if self.workload == "kernels":
            return op[0].startswith("execute_arm_conv")
        return True

    def workload_metrics(self, rounds: list[list]) -> dict[str, float]:
        ops = [op for r in rounds for op in r]

        def rate(prefix: str) -> float:
            sel = [op for op in ops if op[0].startswith(prefix)]
            return ratio(sum(op[4] for op in sel), sum(op[1] for op in sel))

        def phase_s(phase: str) -> float:
            return median(sum(op[1] for op in r if op[0].endswith(phase)) for r in rounds)

        return {
            "reproduce": lambda: {"reproduce_cold_s": phase_s(".cold"),
                                  "reproduce_warm_s": phase_s(".warm")},
            "price_sweep": lambda: {"price_convs_per_s": rate("")},
            "serve": lambda: {"serve_requests_per_s": rate("run_serve")},
            "kernels": lambda: {"arm_func_macs_per_s": rate("execute_arm_conv"),
                                "gpu_func_macs_per_s": rate("conv2d_implicit_gemm"),
                                "ref_macs_per_s": rate("conv2d_ref.full")},
        }[self.workload]()

    def layer_metrics(self, rounds_a: list[list], rounds_b: list[list],
                      procs: list[dict], spans: list[dict]) -> dict[str, float]:
        """The per-layer metrics, from the traced rounds.  Span times are per
        round; rates and fractions are over the traced phase.  Program
        counters are per iteration: a round on reproduce and price_sweep,
        one process on serve and kernels, whose counted work is set-up."""
        n = max(1, len(rounds_b))
        # the processes of one iteration share the number of its first round
        count_div = max(1, len({p["job"]["round"] for p in procs}))
        ops = [op for r in rounds_b for op in r]
        by_id = {s["id"]: s for s in spans}

        def outer(name: str, measured: bool = True, **match):
            """Spans of ``name`` (in measured rounds only, unless told), not
            nested in a span of the same name (ArmBackend.prewarm calls
            Backend.prewarm)."""
            for s in spans:
                if s["name"] != name or (measured and s["round"] is None):
                    continue
                if any(s["args"].get(k) != v for k, v in match.items()):
                    continue
                parent = by_id.get(s["parent"])
                if parent is None or parent["name"] != name:
                    yield s

        def secs(it) -> float:
            return sum(s["end_us"] - s["start_us"] for s in it) / 1e6

        def op_sum(prefix: str, col: int) -> float:
            return sum(op[col] for op in ops if op[0].startswith(prefix))

        def op_rate(prefix: str) -> float:
            return ratio(op_sum(prefix, 4), op_sum(prefix, 1))

        def counter(key: str) -> float:
            return sum(p["counters"][key] for p in procs if "counters" in p)

        def cache(ns: str, field: str) -> float:
            return sum(p["counters"][f"cache_{ns}"][field] for p in procs if "counters" in p)

        tiles: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        for p in procs:
            for name, (calls, s, units) in p["trace"]["tiles"].items():
                t = tiles[name]
                t[0], t[1], t[2] = t[0] + calls, t[1] + s, t[2] + units
        arm_exec = list(outer("execute_arm_conv"))
        exec_ids = {s["id"] for s in arm_exec}

        def inside_exec(name: str) -> float:
            return secs(s for s in spans if s["name"] == name and s["parent"] in exec_ids)

        kernel_s = sum(s["args"].get("kernel_s", 0.0) for s in arm_exec)
        builds = [s for s in spans if s["name"] == "CostTable.build"]
        chaos = [rp for p in procs for rp in p.get("replays", ()) if rp["kind"] == "chaos"]
        replays = [rp for p in procs for rp in p.get("replays", ())]
        shape = {int(b): m * n_ * k for p in procs
                 for b, (m, n_, k) in p.get("gpu_mac_shape", {}).items()}
        padded = (tiles["mma_m8n8k32_int4"][0] * shape.get(4, 0)
                  + tiles["mma_m8n8k16_int8"][0] * shape.get(8, 0))
        round_a = typical_round(rounds_a)[1]
        round_b = typical_round(rounds_b)[1]
        sweeps = counter("autotune_sweeps")

        m = {"import.repro_s": median(p["import_s"] for p in self.procs)}
        for a in ARTIFACTS:
            for phase in ("cold", "warm"):
                m[f"figures.{a}.{phase}_s"] = secs(outer("figure", artifact=a, phase=phase)) / n
        for b in ("gpu", "arm", "ref"):
            calls = list(outer("price_conv", backend=b))
            m[f"backends.{b}.price_conv_s"] = secs(calls) / n
            m[f"backends.{b}.price_conv_calls"] = len(calls) / n
        for b in ("gpu", "arm"):
            m[f"backends.{b}.prewarm_s"] = secs(outer("prewarm", backend=b)) / n
        m.update({
            "autotune.sweeps_computed": sweeps / count_div,
            "autotune.sweeps_duplicate": (sweeps - counter("autotune_new_entries")) / count_div,
            "autotune.evaluated_frac": ratio(counter("autotune_evaluated"),
                                             counter("autotune_candidates")),
            "autotune.candidates_per_s": ratio(counter("autotune_candidates"),
                                               secs(outer("autotune_conv", measured=False))),
            "arm_schedule.computed": counter("arm_computed") / count_div,
            "arm_schedule.hit_rate": ratio(counter("arm_store_hit"),
                                           counter("arm_store_hit") + counter("arm_computed")),
            "arm_cost.time_arm_conv_s": secs(outer("time_arm_conv")) / n,
            "cache.gpu.hit_rate": ratio(cache("gpu", "hits"),
                                        cache("gpu", "hits") + cache("gpu", "misses")),
            "cache.arm.hit_rate": ratio(cache("arm", "hits"),
                                        cache("arm", "hits") + cache("arm", "misses")),
            "cache.errors": cache("gpu", "errors") + cache("arm", "errors"),
            "cache.bytes_on_disk": max((p.get("cache_bytes", 0) for p in procs), default=0),
            "serve.cost_table_build_s": ratio(
                secs(builds), len({s["id"].split(".")[0] for s in builds})),
            "serve.steady.replay_s": ratio(op_sum("run_serve.steady", 1),
                                           sum(1 for op in ops if op[0] == "run_serve.steady")),
            "serve.chaos.replay_s": ratio(op_sum("run_serve.chaos", 1),
                                          sum(1 for op in ops if op[0] == "run_serve.chaos")),
            "serve.host_us_per_event": 1e6 * ratio(
                op_sum("run_serve", 1), sum(rp["offered"] + rp["batches"] for rp in replays)),
            "serve.chaos.faults_injected": chaos[-1]["faults_injected"] if chaos else 0,
            "serve.chaos.breaker_opens": chaos[-1]["breaker_opens"] if chaos else 0,
            "arm_func.b2.macs_per_s": op_rate("execute_arm_conv.b2"),
            "arm_func.b4.macs_per_s": ratio(
                op_sum("execute_arm_conv.b4", 4) + op_sum("execute_arm_conv.wide", 4),
                op_sum("execute_arm_conv.b4", 1) + op_sum("execute_arm_conv.wide", 1)),
            "arm_func.b8.macs_per_s": op_rate("execute_arm_conv.b8"),
            "arm_sim.instr_per_s": ratio(tiles["MicroKernel.execute"][2],
                                         tiles["MicroKernel.execute"][1]),
            "arm_func.im2col_s": inside_exec("im2col") / n,
            "arm_func.pack_s": inside_exec("pack_gemm_operands") / n,
            "arm_func.kernel_s": kernel_s / n,
            "arm_func.assemble_s": (secs(arm_exec) - inside_exec("im2col")
                                    - inside_exec("pack_gemm_operands")
                                    - inside_exec("generate_kernel") - kernel_s) / n,
            "arm_kernels.generate_s": secs(outer("generate_kernel")) / n,
            "gpu_func.b4.macs_per_s": op_rate("conv2d_implicit_gemm.b4"),
            "gpu_func.b8.macs_per_s": op_rate("conv2d_implicit_gemm.b8"),
            "gpu_func.mma_calls": (tiles["mma_m8n8k32_int4"][0]
                                   + tiles["mma_m8n8k16_int8"][0]) / n,
            "gpu_func.mma_s": (tiles["mma_m8n8k32_int4"][1]
                               + tiles["mma_m8n8k16_int8"][1]) / n,
            "gpu_func.offsets_s": secs(outer("build_offsets")) / n,
            "gpu_func.useful_mac_frac": ratio(op_sum("conv2d_implicit_gemm", 4), padded),
            "ref.full_macs_per_s": op_rate("conv2d_ref.full"),
            "ref.slice_s": op_sum("conv2d_ref.slice", 1) / n,
            "trace.overhead_frac": ratio(round_b, round_a) - 1 if round_a else 0.0,
        })
        return m

    def conv_table(self, spans: list[dict], procs_b: list[dict]) -> dict:
        """Per-conv rows: the cold (first) price_conv call at batch 1 next to
        its ConvPrice cycles, and each kernels slice's wall time per stage
        next to time_arm_conv's modelled cycles (first traced round)."""
        first: dict[tuple, dict] = {}
        for s in sorted(spans, key=lambda s: s["start_us"]):
            a = s["args"]
            if s["name"] == "price_conv" and a.get("batch") == 1:
                first.setdefault((a["backend"], a["conv"], a["bits"], a["variant"]), s)
        pricing = [{
            "backend": k[0], "conv": k[1], "bits": k[2], "variant": k[3],
            "wall_ms": (s["end_us"] - s["start_us"]) / 1e3,
            **{f: s["args"].get(f) for f in ("total_cycles", "compute_cycles", "quant_cycles")},
        } for k, s in sorted(first.items(), key=lambda kv: kv[0])]

        children = defaultdict(list)
        for s in spans:
            children[s["parent"]].append(s)
        model = {k: v for p in procs_b for k, v in p.get("model", {}).items()}
        slices = []
        for s in spans:
            if s["name"] != "execute_arm_conv" or s["round"] != 0:
                continue
            key = f"{s['args']['slice']}/b{s['args']['bits']}"
            stage = defaultdict(float)
            for c in children[s["id"]]:
                stage[c["name"]] += (c["end_us"] - c["start_us"]) / 1e3
            wall = (s["end_us"] - s["start_us"]) / 1e3
            kernel = s["args"].get("kernel_s", 0.0) * 1e3
            slices.append({
                "slice": key, "conv": model.get(key, {}).get("conv"), "wall_ms": wall,
                "im2col_ms": stage["im2col"], "pack_ms": stage["pack_gemm_operands"],
                "kernel_ms": kernel,
                "assemble_ms": wall - stage["im2col"] - stage["pack_gemm_operands"]
                - stage["generate_kernel"] - kernel,
                "generate_ms": stage["generate_kernel"],
                "model_cycles": {k: v for k, v in model.get(key, {}).items() if k != "conv"},
            })
        return {"pricing": pricing, "kernels": slices}

    # -- the whole run --------------------------------------------------------

    def execute(self) -> dict:
        args = self.args
        with self.span("workload", workload=self.workload, seed=args.seed):
            # warm-up, not a sample: compiles bytecode and fills the page cache
            self.spawn("setup")
            budget = args.seconds / 2 if args.trace else args.seconds
            rounds_a = self.measure(budget, traced=False)
            rounds_b = self.measure(budget, traced=True) if args.trace else []
        self.run_checks()
        ops = [op for p in self.procs for op in p["ops"]]
        failures = [f"{name}: {detail}" for name, ok, detail in self.checks if not ok]
        failures += [e for p in self.procs for e in p["errors"]]
        attempted = len(ops) + len(self.checks)
        failed = sum(1 for op in ops if not op[2]) + sum(1 for c in self.checks if not c[1])
        probes = self.probe_times()
        doc = {
            "workload": self.workload, "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "trace": args.trace,
            "attempted": attempted, "failed": failed,
            "failed_frac": ratio(failed, attempted), "failures": failures[:20],
            "end_to_end": self.end_to_end(rounds_a, scaled=True),
            "end_to_end_measured": self.end_to_end(rounds_a, scaled=False),
            "host_probe": {"n": len(probes), "median_s": median(probes),
                           "ref_s": tracing.PROBE_REF_S,
                           "elasticity": tracing.PROBE_ELASTICITY,
                           "setup_scale": self.host_scale()},
            "workload_metrics": self.workload_metrics(rounds_a),
            "setup_samples_s": self.setup_samples,
            "rounds_s": {"untraced": [sum(op[1] for op in r) for r in rounds_a],
                         "traced": [sum(op[1] for op in r) for r in rounds_b]},
            "op_classes": op_classes([op for r in rounds_a for op in r]),
        }
        if args.trace:
            procs_b = [p for p in self.procs if p["job"]["trace"]]
            spans = self.rec.spans + [s for p in procs_b for s in p["trace"]["spans"]]
            doc["per_layer"] = self.layer_metrics(rounds_a, rounds_b, procs_b, spans)
            doc["table"] = self.conv_table(spans, procs_b)
            doc["trace_files"] = self.write_trace(spans, doc["per_layer"])
        return doc

    def write_trace(self, spans: list[dict], per_layer: dict) -> dict:
        trace_dir = (pathlib.Path(self.args.trace_dir or HERE / "results")
                     / f"trace-{self.workload}-seed{self.args.seed}")
        trace_dir.mkdir(parents=True, exist_ok=True)
        names = {0: f"run.py {self.workload}"}
        names.update({p["job"]["proc"]: f"worker {p['job']['task']} #{p['job']['proc']}"
                      for p in self.procs})
        tracing.write_chrome_trace(trace_dir / "trace.json", spans, names)
        self_us = tracing.self_times(spans)
        by_name: dict[str, dict] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for s in spans:
            row = by_name[s["name"]]
            row["count"] += 1
            row["total_s"] += (s["end_us"] - s["start_us"]) / 1e6
            row["self_s"] += self_us[s["id"]] / 1e6
        (trace_dir / "layer_metrics.json").write_text(json.dumps(
            {"per_layer": per_layer, "spans": dict(sorted(by_name.items())),
             "unresolved_parents": len(tracing.unresolved_parents(spans))}, indent=1))
        return {name: shown(trace_dir / name) for name in ("trace.json", "layer_metrics.json")}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def print_report(doc: dict, show_table: bool) -> None:
    print(f"== {doc['workload']}  seed {doc['seed']}  seconds {doc['seconds']}"
          f"  trace {int(doc['trace'])}{'  smoke' if doc['smoke'] else ''} ==")
    probe = doc["host_probe"]
    print(f"end-to-end (host probe median {probe['median_s'] * 1e3:.4g} ms over"
          f" {probe['n']} probes; scaled to the {probe['ref_s'] * 1e3:.4g} ms reference"
          f" with elasticity {probe['elasticity']:g}: each call by the median probe"
          f" around it, set-up by {probe['setup_scale']:.4g})")
    print(f"  {'':<34} {'scaled':>14} {'':<5} {'measured':>14}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<34} {doc['end_to_end'][name]:>14.6g} {unit:<5}"
              f" {doc['end_to_end_measured'][name]:>14.6g}")
    print("workload")
    for name, value in doc["workload_metrics"].items():
        print(f"  {name:<34} {value:>14.6g}")
    print("op classes (untraced)                n     median_s  tail")
    for cls, row in doc["op_classes"].items():
        tail = f"{row['tail']['q']} {row['tail']['s']:.6g}" if row["tail"] else "-"
        print(f"  {cls:<34} {row['n']:>4} {row['median_s']:>12.6g}  {tail}")
    if "per_layer" in doc:
        print("per-layer (traced)")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<34} {doc['per_layer'][name]:>14.6g} {unit}")
        print(f"  trace: {doc['trace_files']['trace.json']}")
    if show_table and "table" in doc:
        print_table(doc["table"])
    print(f"checks: attempted {doc['attempted']}  failed {doc['failed']}")
    for line in doc["failures"]:
        print(f"  FAILED {line}")


def print_table(table: dict) -> None:
    if table["pricing"]:
        print("per-conv pricing: first (cold) price_conv call at batch 1")
        print(f"  {'backend':<7} {'bits':>4} {'wall_ms':>9} {'total_cyc':>14} {'compute_cyc':>14}"
              f" {'quant_cyc':>12}  conv [variant]")
        for r in table["pricing"]:
            print(f"  {r['backend']:<7} {r['bits']:>4} {r['wall_ms']:>9.3f}"
                  f" {r['total_cycles']:>14.0f} {r['compute_cycles']:>14.0f}"
                  f" {r['quant_cycles']:>12.0f}  {r['conv']}"
                  + (f" [{r['variant']}]" if r["variant"] else ""))
    if table["kernels"]:
        print("per-slice ARM functional stages (ms) vs time_arm_conv model (cycles)")
        print(f"  {'slice':<12} {'wall':>8} {'im2col':>7} {'pack':>7} {'kernel':>8}"
              f" {'assemble':>8} | {'kernel':>9} {'im2col':>7} {'pack':>7} {'requant':>7}"
              f" {'mem':>8}")
        for r in table["kernels"]:
            mc = r["model_cycles"]
            print(f"  {r['slice']:<12} {r['wall_ms']:>8.2f} {r['im2col_ms']:>7.3f}"
                  f" {r['pack_ms']:>7.3f} {r['kernel_ms']:>8.2f} {r['assemble_ms']:>8.3f} |"
                  f" {mc.get('kernel', 0):>9.0f} {mc.get('im2col', 0):>7.0f}"
                  f" {mc.get('pack', 0):>7.0f} {mc.get('requant', 0):>7.0f}"
                  f" {mc.get('mem', 0):>8.0f}")
    if not (table["pricing"] or table["kernels"]):
        print("per-conv table: this workload prices no conv and runs no ARM slice")


def result_line(docs: list[dict], trace: bool) -> dict:
    """The final stdout line: every end-to-end metric, or with tracing every
    per-layer metric; prefixed by workload when several ran."""
    units, section = (PER_LAYER, "per_layer") if trace else (END_TO_END, "end_to_end")
    metrics = {}
    for doc in docs:
        prefix = f"{doc['workload']}." if len(docs) > 1 else ""
        for name, unit in units.items():
            metrics[prefix + name] = {"value": doc[section][name], "unit": unit}
    failed = sum(d["failed"] for d in docs)
    return {"correct": failed == 0, "attempted": sum(d["attempted"] for d in docs),
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measured time per workload run (default 30)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: half the time untraced, half traced; report per-layer metrics")
    p.add_argument("--trace-dir", default=None,
                   help="parent of the trace-<workload>-seed<N>/ directories holding "
                        "trace.json and layer_metrics.json (default results/)")
    p.add_argument("--out", default=None, help="results JSON (default under results/)")
    p.add_argument("--table", action="store_true",
                   help="print the per-conv table (collected by traced runs; implies --trace 1)")
    p.add_argument("--smoke", action="store_true",
                   help="1 round, 2k requests, 2 convs")
    p.add_argument("--expected", default=str(HERE / "expected.json"),
                   help="pinned digests of simulated outputs")
    args = p.parse_args(argv)
    args.trace = bool(args.trace or args.table)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    expected_path = pathlib.Path(args.expected)
    expected = json.loads(expected_path.read_text()) if expected_path.is_file() else {}

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    work_dir = pathlib.Path(tempfile.mkdtemp(prefix="work-", dir=results_dir))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = []
    try:
        for wl in workloads:
            docs.append(Run(args, wl, work_dir, expected).execute())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    out = pathlib.Path(args.out or results_dir /
                       f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    summary = {"schema": "repro.bench.e2e/v1", "fingerprint": fingerprint(),
               "units": {"end_to_end": END_TO_END, "per_layer": PER_LAYER},
               "workloads": {d["workload"]: d for d in docs}}
    out.write_text(json.dumps(summary, indent=1) + "\n")
    for doc in docs:
        print_report(doc, args.table)
    print(f"results: {out}")
    line = result_line(docs, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
