"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show every reproducible artifact.
``reproduce <artifact> [--model M] [--batch B]``
    Regenerate one paper table/figure and print it.
``layers <model> [--backend B] [--bits N]``
    Print a model's unique conv layer table; with ``--backend`` each
    layer is also priced on that registered backend (arm | gpu | ref).
``chains``
    Print the Sec. 3.3 accumulation-chain table.
``kernel <scheme> <bits> <k>``
    Generate a micro-kernel, print its opcode histogram, cycle estimate
    and (with ``--listing``) the full instruction listing.  A width the
    scheme does not model (``ncnn``/``sdot`` are 8-bit, ``popcount``
    2-bit) or a non-positive ``k`` exits 2 with a one-line message.
``profile <target> [--trace out.json] [--metrics out.json] ...``
    Run one figure (or a whole model) under a :mod:`repro.obs.trace`
    capture and the metrics registry; print a text summary and
    optionally write a Chrome/Perfetto trace and the metrics snapshot
    (the registry's one view, which ``diff`` reads).  A model target
    also prints each backend's roofline, the Fig. 1 CAL/LD ratio of
    every layer and the Sec. 3.3 chain overhead.  ``--flamegraph`` and
    ``--stacks`` write what the stack sampler saw (``--profile-sample``
    sets its interval).  An unknown target or backend, or an interval
    that is not a finite number above 0, exits 2 with one stderr line.
``diff A B [--flamegraph out.svg] [--json] [--top N]``
    Differential profiling between two runs: each side is a Chrome trace
    JSON (``profile --trace`` or the e2e benchmark's ``trace.json``), a
    collapsed-stack file or a metrics snapshot.
    Prints ranked span/frame/metric deltas; ``--flamegraph`` writes the
    red/blue differential flamegraph SVG.  An unusable side exits 2
    with one stderr line naming the file.
``chaos [SCENARIO ...] [--list]``
    Run the :mod:`repro.resilience.chaos` scenarios (all, or the named
    subset): autotune under a seeded transient-fault plan must return
    bit-identical winners, the executor must degrade to the ``ref``
    backend loudly, injected crashes at every persistence site must
    leave zero torn files, and the serving layer must hold its SLO
    under chaos.  ``--list`` prints the scenario names; an unknown name
    exits 2 with the valid choices.  Exits non-zero when any invariant
    breaks.
``serve [--qps N] [--requests N] [--seed N] [--chaos] ...``
    Replay seeded open-loop traffic through the :mod:`repro.serve`
    simulator — SLO-aware admission control, priced dynamic batching,
    per-backend circuit breakers with brownout fallback — entirely on a
    virtual clock, and print (or ``--out``) the byte-stable summary.
    ``--chaos`` adds the canned transient-fault plan and a scripted
    primary-kill window (the CI gate scenario).
"""

from __future__ import annotations

import argparse
import sys

from .analysis.report import Series, format_table


def _figure_registry():
    """argparse adapter over :func:`repro.figures.figure_registry`."""
    from .figures import figure_registry

    return {
        name: (lambda a, fn=fn: fn(model=a.model, batch=a.batch))
        for name, fn in figure_registry().items()
    }


def cmd_list(args: argparse.Namespace) -> int:
    print("reproducible artifacts:")
    for name in sorted(_figure_registry()):
        print(f"  {name}")
    print("  tab1  (via: python -m repro reproduce tab1)")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    if args.artifact == "tab1":
        import json

        from .figures import tab1_configurations

        print(json.dumps(tab1_configurations(), indent=2))
        return 0
    registry = _figure_registry()
    if args.artifact not in registry:
        choices = ", ".join([*sorted(registry), "tab1"])
        print(f"unknown artifact {args.artifact!r}; valid choices: {choices}",
              file=sys.stderr)
        return 2
    data = registry[args.artifact](args)
    series = list(data.series) + [Series(data.baseline_label, data.baseline_times)]
    print(f"== {data.figure} ==")
    print(format_table(list(data.labels), series))
    return 0


def cmd_layers(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .models import get_model_layers

    layers = get_model_layers(args.model, batch=args.batch)
    if args.backend is None:
        for spec in layers:
            print(spec.describe())
        return 0
    from .backends import get_backend

    try:
        be = get_backend(args.backend)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    be.prewarm([(spec, args.bits, None) for spec in layers])
    total = 0.0
    for spec in layers:
        price = be.price_conv(spec, args.bits)
        total += price.total_cycles
        print(f"{spec.describe()}  "
              f"[{be.name} {args.bits}-bit: {price.total_cycles:,.0f} cycles, "
              f"{price.milliseconds:.3f} ms]")
    print(f"total: {total:,.0f} cycles, {total / be.clock_hz * 1e3:.3f} ms "
          f"on {be.display_name} @ {be.clock_hz / 1e9:.3g} GHz")
    return 0


def cmd_chains(args: argparse.Namespace) -> int:
    from .arm.ratios import chain_table

    print("bits  scheme  chain : drain")
    for bits, chain in sorted(chain_table().items()):
        scheme = "MLA" if bits in (2, 3) else "SMLAL"
        print(f"{bits:>4}  {scheme:>6}  {chain} : 1")
    return 0


#: operand width of each scheme that models exactly one
_FIXED_KERNEL_BITS = {"ncnn": 8, "sdot": 8, "popcount": 2}


def cmd_kernel(args: argparse.Namespace) -> int:
    from .arm.cost_model import _generate
    from .errors import ReproError

    fixed = _FIXED_KERNEL_BITS.get(args.scheme)
    if fixed is not None and args.bits != fixed:
        print(f"the {args.scheme} kernel models {fixed}-bit operands only, "
              f"got {args.bits}", file=sys.stderr)
        return 2
    try:
        kern = _generate(args.scheme, args.bits, args.k, True, None)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"{kern.name}: {kern.m_r}x{kern.n_r} tile over K={kern.k}")
    print("opcode histogram:")
    for op, count in sorted(kern.summary().items()):
        print(f"  {op:<16} {count}")
    perf = kern.cycles()
    print(f"pipeline estimate: {perf.cycles} cycles, IPC {perf.ipc:.2f}, "
          f"{kern.mac_lanes / perf.cycles:.2f} MACs/cycle")
    if args.listing:
        print("\nlisting:")
        for ins in kern.stream:
            print(f"  {ins.render()}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from .obs.report import run_profile

    return run_profile(
        args.target,
        model=args.model,
        batch=args.batch,
        backend=args.backend,
        trace_path=args.trace,
        metrics_path=args.metrics,
        sample_interval_ms=args.profile_sample,
        flamegraph_path=args.flamegraph,
        stacks_path=args.stacks,
    )


def cmd_diff(args: argparse.Namespace) -> int:
    import pathlib

    from .obs import diff as obs_diff

    try:
        a = obs_diff.load_side(args.a)
        b = obs_diff.load_side(args.b)
    except (ValueError, OSError) as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2
    report = obs_diff.diff_sides(a, b)
    if args.flamegraph:
        if report.stacks_a is None or report.stacks_b is None:
            print("diff: --flamegraph needs collapsed stacks on both sides "
                  "(export them with `profile --stacks OUT.txt`)",
                  file=sys.stderr)
            return 2
        svg = obs_diff.differential_flamegraph_svg(
            report.stacks_a, report.stacks_b,
            label_a=report.label_a, label_b=report.label_b)
        path = pathlib.Path(args.flamegraph)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(svg, encoding="utf-8")
        # stdout stays pure JSON under --json; the note goes to stderr
        print(f"wrote differential flamegraph {path}",
              file=sys.stderr if args.json else sys.stdout)
    if args.json:
        sys.stdout.write(report.to_json(top=args.top))
        return 0
    print(f"== diff: {report.label_a} [{report.kind_a}] -> "
          f"{report.label_b} [{report.kind_b}] ==")
    for line in report.table(top=args.top):
        print(line)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from .resilience.chaos import run_chaos, scenario_names

    known = scenario_names()
    if args.list:
        for name in known:
            print(name)
        return 0
    unknown = [n for n in args.scenario if n not in known]
    if unknown:
        print(f"unknown scenario {unknown[0]!r}; valid choices: "
              f"{', '.join(known)}", file=sys.stderr)
        return 2
    return run_chaos(names=args.scenario or None)


def cmd_serve(args: argparse.Namespace) -> int:
    import json as _json

    from .errors import ReproError
    from .serve import ServeConfig, format_summary, run_harness, save_trace
    from .serve.workload import SHAPES, generate_trace

    if args.shape not in SHAPES:
        print(f"unknown shape {args.shape!r}; valid choices: "
              f"{', '.join(SHAPES)}", file=sys.stderr)
        return 2
    cfg = ServeConfig(
        model=args.model, bits=args.bits,
        backend=args.backend, fallback=args.fallback,
        qps=args.qps, requests=args.requests, seed=args.seed,
        shape=args.shape, slo_ms=args.slo_ms, lanes=args.lanes,
        max_batch=args.max_batch, queue_cap=args.queue_cap,
        hold_us=args.hold_us, retries=args.retries,
    )
    if args.save_trace:
        path = save_trace(args.save_trace, generate_trace(
            cfg.qps, cfg.requests, seed=cfg.seed, slo_us=cfg.slo_us,
            shape=cfg.shape))
        print(f"wrote trace {path}")
        return 0
    try:
        summary = run_harness(
            cfg, chaos=args.chaos, trace_file=args.trace_file, out=args.out)
    except ReproError as exc:
        print(f"serve FAILED: {exc}", file=sys.stderr)
        return 1
    if args.json:
        sys.stdout.write(
            _json.dumps(summary, sort_keys=True, separators=(",", ":"))
            + "\n")
    else:
        print(format_summary(summary))
    if args.out:
        print(f"wrote summary {args.out}",
              file=sys.stderr if args.json else sys.stdout)
    ok = bool(summary["invariants"]["conservation"])  # type: ignore[index]
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the ICPP'20 extremely-low-bit convolution paper",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show reproducible artifacts").set_defaults(
        fn=cmd_list)

    rp = sub.add_parser("reproduce", help="regenerate one table/figure")
    rp.add_argument("artifact", help="fig7..fig17 or tab1")
    rp.add_argument("--model", default="resnet50",
                    choices=["resnet50", "scr-resnet50", "densenet121"])
    rp.add_argument("--batch", type=int, default=1)
    rp.set_defaults(fn=cmd_reproduce)

    lp = sub.add_parser("layers", help="print a model's conv table")
    lp.add_argument("model",
                    choices=["resnet50", "scr-resnet50", "densenet121"])
    lp.add_argument("--batch", type=int, default=1)
    lp.add_argument("--backend", default=None, metavar="NAME",
                    help="also price each layer on a registered backend "
                         "(arm | gpu | ref)")
    lp.add_argument("--bits", type=int, default=8,
                    help="bit width for --backend pricing (default 8)")
    lp.set_defaults(fn=cmd_layers)

    sub.add_parser("chains", help="print the Sec. 3.3 chain table"
                   ).set_defaults(fn=cmd_chains)

    kp = sub.add_parser("kernel", help="inspect a generated micro-kernel")
    kp.add_argument("scheme",
                    choices=["smlal", "mla", "ncnn", "sdot", "popcount"])
    kp.add_argument("bits", type=int)
    kp.add_argument("k", type=int)
    kp.add_argument("--listing", action="store_true",
                    help="print the full instruction stream")
    kp.set_defaults(fn=cmd_kernel)

    pp = sub.add_parser(
        "profile",
        help="run one artifact under a trace capture and summarize")
    pp.add_argument("target",
                    help="fig7..fig17, tab1, or a model name "
                         "(resnet50, scr-resnet50, densenet121)")
    pp.add_argument("--model", default="resnet50",
                    choices=["resnet50", "scr-resnet50", "densenet121"],
                    help="model for figure targets that take one")
    pp.add_argument("--batch", type=int, default=1)
    pp.add_argument("--backend", default=None, metavar="NAME",
                    help="price model targets on one registered backend "
                         "(default: every registered backend)")
    pp.add_argument("--trace", default=None, metavar="OUT.json",
                    help="write a Chrome trace_event file (Perfetto-loadable)")
    pp.add_argument("--metrics", default=None, metavar="OUT.json",
                    help="write the metrics registry snapshot as JSON")
    pp.add_argument("--profile-sample", nargs="?", const=5.0, default=None,
                    type=float, metavar="MS",
                    help="run the wall-clock stack sampler over the run "
                         "(optional tick interval in ms, default 5)")
    pp.add_argument("--flamegraph", default=None, metavar="OUT.svg",
                    help="sample the run and write the stacks as a "
                         "flamegraph SVG")
    pp.add_argument("--stacks", default=None, metavar="OUT.txt",
                    help="sample the run and write the stacks as "
                         "collapsed-stack text for `repro diff`")
    pp.set_defaults(fn=cmd_profile)

    dp = sub.add_parser(
        "diff",
        help="differential profiling between two runs: ranked attribution "
             "+ red/blue differential flamegraph")
    dp.add_argument("a", metavar="A",
                    help="first run: a Chrome trace or metrics JSON, or a "
                         "collapsed-stack file")
    dp.add_argument("b", metavar="B", help="second run (same forms)")
    dp.add_argument("--flamegraph", default=None, metavar="OUT.svg",
                    help="write the red/blue differential flamegraph "
                         "(needs collapsed stacks on both sides)")
    dp.add_argument("--json", action="store_true",
                    help="emit the byte-stable JSON report on stdout")
    dp.add_argument("--top", type=int, default=10, metavar="N",
                    help="rows per ranked section (default 10)")
    dp.set_defaults(fn=cmd_diff)

    cp = sub.add_parser(
        "chaos",
        help="run the resilience chaos scenarios; non-zero exit on any "
             "broken invariant")
    cp.add_argument("scenario", nargs="*", metavar="SCENARIO",
                    help="scenario name(s) to run (default: all; "
                         "see --list)")
    cp.add_argument("--list", action="store_true",
                    help="print the scenario names and exit")
    cp.set_defaults(fn=cmd_chaos)

    sv = sub.add_parser(
        "serve",
        help="replay open-loop traffic through the SLO-guarded serving "
             "simulator (admission control, batching, circuit breakers)")
    sv.add_argument("--model", default="resnet50",
                    choices=["resnet50", "scr-resnet50", "densenet121"])
    sv.add_argument("--bits", type=int, default=4,
                    help="quantization bit width (default 4)")
    sv.add_argument("--backend", default="gpu",
                    help="primary serving backend (default gpu)")
    sv.add_argument("--fallback", default="ref",
                    help="brownout fallback backend (default ref)")
    sv.add_argument("--qps", type=float, default=2000.0,
                    help="offered load, requests/second (default 2000)")
    sv.add_argument("--requests", type=int, default=10_000,
                    help="trace length (default 10000)")
    sv.add_argument("--seed", type=int, default=0,
                    help="arrival + chaos seed (default 0)")
    sv.add_argument("--shape", default="steady",
                    help="arrival shape: steady | burst | ramp")
    sv.add_argument("--slo-ms", type=float, default=50.0,
                    help="per-request latency SLO in ms (default 50)")
    sv.add_argument("--lanes", type=int, default=2,
                    help="parallel execution lanes (default 2)")
    sv.add_argument("--max-batch", type=int, default=16,
                    help="dynamic batcher cap (default 16)")
    sv.add_argument("--queue-cap", type=int, default=256,
                    help="bounded queue depth (default 256)")
    sv.add_argument("--hold-us", type=float, default=500.0,
                    help="max batch-fill hold after the head arrives "
                         "(default 500us)")
    sv.add_argument("--retries", type=int, default=2,
                    help="per-batch dispatch retries (default 2)")
    sv.add_argument("--chaos", action="store_true",
                    help="inject the canned transient-fault plan plus a "
                         "scripted primary-backend kill window")
    sv.add_argument("--trace-file", default=None, metavar="IN.jsonl",
                    help="replay this saved arrival trace instead of "
                         "generating one")
    sv.add_argument("--save-trace", default=None, metavar="OUT.jsonl",
                    help="generate the arrival trace, write it, and exit")
    sv.add_argument("--out", default=None, metavar="OUT.json",
                    help="write the byte-stable summary JSON here")
    sv.add_argument("--json", action="store_true",
                    help="print the summary as canonical JSON on stdout")
    sv.set_defaults(fn=cmd_serve)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `python -m repro ... | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
