"""Perf-regression verdicts over the bench ledger: ``repro regress``.

Compares the newest ledger entry (the *candidate*) against a baseline
entry (default: the newest earlier run with the same model/batch/kind,
preferring the same machine fingerprint) on two signals:

* **deterministic** — per-figure model cycles and figure series must be
  *bit-identical*: the cost models are pure functions of code + spec, so
  any drift is a real behavior change, never noise;
* **wall-clock** — inherently noisy, so each phase's seconds are checked
  against a noise-aware threshold: the median of up to N prior runs
  (same fingerprint), widened by the larger of a flat tolerance and the
  observed inter-quartile spread of those runs
  (:meth:`repro.obs.metrics.Histogram.percentile` does the medians);
  a phase less than :data:`repro.obs.diff.PHASE_FLOOR_S` (5 ms) over its
  median passes whatever the ratio, as ``repro diff`` floors it.

Exit codes (the single source of truth, also surfaced in ``--json``
output and README): **0** clean, **1** regression (any cycle mismatch;
wall overruns unless ``check_wall`` is off), **2** unusable ledger
(fewer than two comparable runs, or a config mismatch).

With ``--attribute`` a failing run doesn't stop at the verdict: the
:mod:`repro.obs.diff` engine attributes the drift — ranked per-phase
deltas, metrics deltas and ledger changepoints between baseline and
candidate (deterministic, byte-stable given the same ledger), plus an
optional freshly collected trace+sample hot-spot table showing where
the candidate's time goes *now* (``--no-collect`` skips it; CI does,
for reproducible artifacts).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Sequence

from . import metrics as obs_metrics
from .diff import PHASE_FLOOR_S
from .history import BenchLedger

#: prior runs folded into the wall-clock median window
DEFAULT_WALL_WINDOW = 5
#: flat wall-clock tolerance (fraction over the baseline median)
DEFAULT_WALL_TOLERANCE = 0.5


@dataclass(frozen=True)
class Verdict:
    """One comparison row of the regression table."""

    key: str
    kind: str  #: "cycles" | "series" | "wall" | "provenance"
    ok: bool
    detail: str
    #: a failed verdict that counts toward the exit code (wall overruns
    #: can be demoted to advisory with check_wall=False)
    regression: bool = False

    def as_dict(self) -> dict:
        return {"key": self.key, "kind": self.kind, "ok": self.ok,
                "regression": self.regression, "detail": self.detail}


@dataclass
class RegressReport:
    baseline_id: str
    candidate_id: str
    verdicts: list[Verdict]

    @property
    def regressed(self) -> bool:
        return any(v.regression for v in self.verdicts)

    def table(self) -> list[str]:
        lines = [f"  {'check':<42} {'verdict':<6} detail"]
        for v in self.verdicts:
            status = "OK" if v.ok else ("FAIL" if v.regression else "WARN")
            lines.append(f"  {v.key:<42} {status:<6} {v.detail}")
        return lines

    def as_dict(self) -> dict:
        return {
            "baseline": self.baseline_id,
            "candidate": self.candidate_id,
            "regressed": self.regressed,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


def _first_diff(a: dict, b: dict) -> str:
    """Human-sized description of the first difference between two dicts."""
    for key in sorted(set(a) | set(b)):
        if key not in a:
            return f"{key!r} only in candidate"
        if key not in b:
            return f"{key!r} only in baseline"
        if a[key] != b[key]:
            return f"{key!r}: {a[key]!r} -> {b[key]!r}"
    return "(identical)"


def _exact_verdict(key: str, kind: str, base: dict, cand: dict) -> Verdict:
    if base == cand:
        return Verdict(key, kind, ok=True,
                       detail=f"bit-identical ({len(cand)} keys)")
    return Verdict(key, kind, ok=False, regression=True,
                   detail=f"MISMATCH at {_first_diff(base, cand)}")


def _wall_verdicts(
    baseline: dict,
    candidate: dict,
    window: Sequence[dict],
    *,
    tolerance: float,
    check_wall: bool,
) -> list[Verdict]:
    out: list[Verdict] = []
    base_wall = baseline.get("wall_seconds", {})
    cand_wall = candidate.get("wall_seconds", {})
    for key in sorted(base_wall):
        if key not in cand_wall:
            continue
        hist = obs_metrics.Histogram()
        for entry in window:
            sample = entry.get("wall_seconds", {}).get(key)
            if isinstance(sample, (int, float)) and sample > 0:
                hist.observe(float(sample))
        if hist.count == 0:
            hist.observe(float(base_wall[key]))
        median = hist.percentile(50.0)
        spread = ((hist.percentile(75.0) - hist.percentile(25.0)) / median
                  if median else 0.0)
        threshold = median * (1.0 + max(tolerance, spread))
        value = float(cand_wall[key])
        delta = (value - median) / median if median else 0.0
        # a few ms over a ms-scale phase is timer noise, not a regression
        ok = value <= threshold or value - median < PHASE_FLOOR_S
        obs_metrics.gauge("regress_wall_delta", phase=key).set(delta)
        out.append(Verdict(
            key=f"wall {key}",
            kind="wall",
            ok=ok,
            regression=(not ok) and check_wall,
            detail=(f"{value:.3f}s vs median {median:.3f}s "
                    f"of {hist.count} run(s) ({delta:+.1%}, "
                    f"threshold +{max(tolerance, spread):.0%} "
                    f"and +{PHASE_FLOOR_S * 1e3:g} ms)"),
        ))
    return out


def _config_key(entry: dict) -> tuple:
    return (entry.get("kind"), entry.get("model"), entry.get("batch"),
            tuple(entry.get("backends", ())))


def _pick_baseline(entries: list[dict], candidate: dict,
                   selector: str | None) -> dict | None:
    """Resolve the baseline entry among everything older than candidate."""
    if selector is not None:
        for entry in reversed(entries):
            if (entry.get("run_id", "").startswith(selector)
                    or (entry.get("git_sha") or "").startswith(selector)):
                return entry
        return None
    comparable = [e for e in entries if _config_key(e) == _config_key(candidate)]
    same_fp = [e for e in comparable
               if e.get("fingerprint") == candidate.get("fingerprint")]
    pool = same_fp or comparable
    return pool[-1] if pool else None


def compare_entries(
    baseline: dict,
    candidate: dict,
    *,
    window: Sequence[dict] = (),
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    check_wall: bool = True,
) -> RegressReport:
    """Build the verdict table for one baseline/candidate pair."""
    verdicts: list[Verdict] = []
    if baseline.get("fingerprint") != candidate.get("fingerprint"):
        verdicts.append(Verdict(
            "machine fingerprint", "provenance", ok=False, regression=False,
            detail=(f"{baseline.get('fingerprint')} -> "
                    f"{candidate.get('fingerprint')} (code or machine "
                    f"changed; cycle mismatches may be intentional)"),
        ))
    verdicts.append(_exact_verdict(
        "model cycles", "cycles",
        baseline.get("model_cycles", {}), candidate.get("model_cycles", {}),
    ))
    base_figs = baseline.get("figures", {})
    cand_figs = candidate.get("figures", {})
    for fig in sorted(set(base_figs) | set(cand_figs)):
        verdicts.append(_exact_verdict(
            f"figure {fig}", "series",
            base_figs.get(fig, {}), cand_figs.get(fig, {}),
        ))
    verdicts.extend(_wall_verdicts(
        baseline, candidate, window,
        tolerance=wall_tolerance, check_wall=check_wall,
    ))
    report = RegressReport(
        baseline_id=baseline.get("run_id", "?"),
        candidate_id=candidate.get("run_id", "?"),
        verdicts=verdicts,
    )
    obs_metrics.counter(
        "regress_runs", outcome="regressed" if report.regressed else "clean"
    ).inc()
    return report


def _json_doc(exit_code: int, *, error: str | None = None,
              report: RegressReport | None = None,
              attribution: dict | None = None,
              fresh: dict | None = None) -> str:
    """The ``--json`` document: verdicts + exit-code semantics in one
    machine-readable object (sorted keys, compact, byte-stable for a
    fixed ledger)."""
    doc: dict = {
        "schema": 1,
        "exit_code": exit_code,
        "exit_codes": {"0": "clean", "1": "regression",
                       "2": "unusable ledger"},
    }
    if error is not None:
        doc["error"] = error
    if report is not None:
        doc.update(report.as_dict())
    if attribution is not None:
        doc["attribution"] = attribution
    if fresh is not None:
        doc["fresh_profile"] = fresh
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _fresh_profile_section(*, model: str, batch: int, top: int) -> tuple[dict, list[str]]:
    """Collect a fresh trace+sample pair and reduce it to hot-spot tables
    (top self-time span paths, top leaf frames).  Wall-clock content —
    nondeterministic by nature, never part of the byte-stable sections."""
    from . import diff as obs_diff

    spans, stacks = obs_diff.collect_fresh_profile(model, batch)
    agg = obs_diff.aggregate_spans(spans)
    top_spans = sorted(agg.items(),
                       key=lambda kv: (-kv[1]["self_us"], kv[0]))[:top]
    total = sum(stacks.values()) or 1
    leaf: dict[str, int] = {}
    for stack, n in stacks.items():
        frame = stack.rsplit(";", 1)[-1]
        leaf[frame] = leaf.get(frame, 0) + n
    top_frames = sorted(leaf.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    doc = {
        "spans": [{"path": p, "count": v["count"],
                   "self_us": round(v["self_us"], 1)} for p, v in top_spans],
        "frames": [{"frame": f, "samples": n, "share": round(n / total, 4)}
                   for f, n in top_frames],
        "samples": sum(stacks.values()),
    }
    lines = ["  fresh candidate profile (hot spots now):"]
    for p, v in top_spans[:5]:
        label = p if len(p) <= 60 else "…" + p[-59:]
        lines.append(f"    {label:<60} {v['self_us'] / 1e3:>9.3f} ms self "
                     f"(x{v['count']})")
    for f, n in top_frames[:5]:
        label = f if len(f) <= 60 else "…" + f[-59:]
        lines.append(f"    {label:<60} {n / total:>8.1%} of "
                     f"{doc['samples']} samples")
    return doc, lines


def run_regress(
    *,
    history_dir: str | os.PathLike | None = None,
    baseline: str | None = None,
    wall_window: int = DEFAULT_WALL_WINDOW,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    check_wall: bool = True,
    json_out: bool = False,
    attribute: bool = False,
    attribute_top: int = 10,
    collect: bool = True,
    echo: Callable[[str], None] = print,
) -> int:
    """Compare the ledger's newest run against a baseline; returns the
    process exit code (0 clean / 1 regression / 2 unusable ledger).

    ``json_out`` replaces the text table with one machine-readable JSON
    object (always emitted, even on exit 2).  ``attribute`` runs the
    :mod:`repro.obs.diff` attribution when the verdict fails —
    deterministic ledger-derived sections always, plus a freshly
    collected candidate hot-spot profile unless ``collect`` is False.
    """
    ledger = BenchLedger(history_dir)
    entries = ledger.entries()
    if len(entries) < 2:
        msg = (f"regress: need at least 2 ledger entries in {ledger.path}, "
               f"found {len(entries)} (run `repro bench --save` twice)")
        echo(_json_doc(2, error=msg) if json_out else msg)
        return 2
    candidate = entries[-1]
    older = entries[:-1]
    base = _pick_baseline(older, candidate, baseline)
    if base is None:
        msg = (f"regress: no comparable baseline for candidate "
               f"{candidate.get('run_id', '?')} "
               f"(selector {baseline!r})" if baseline else
               f"regress: no baseline matches the candidate's config")
        echo(_json_doc(2, error=msg) if json_out else msg)
        return 2
    window = [e for e in older
              if _config_key(e) == _config_key(candidate)
              and e.get("fingerprint") == candidate.get("fingerprint")
              ][-wall_window:]
    report = compare_entries(
        base, candidate, window=window,
        wall_tolerance=wall_tolerance, check_wall=check_wall,
    )
    exit_code = 1 if report.regressed else 0

    attrib_report = None
    attribution = None
    fresh_doc = None
    fresh_lines: list[str] = []
    if attribute and report.regressed:
        from . import diff as obs_diff

        attrib_report = obs_diff.attribute_entries(
            base, candidate, ledger_entries=entries)
        attribution = attrib_report.as_dict(top=attribute_top)
        if collect:
            try:
                fresh_doc, fresh_lines = _fresh_profile_section(
                    model=candidate.get("model", "resnet50"),
                    batch=int(candidate.get("batch", 1)),
                    top=attribute_top,
                )
            except Exception as exc:  # attribution must never mask the verdict
                fresh_lines = [f"  (fresh profile collection failed: "
                               f"{type(exc).__name__}: {exc})"]

    if json_out:
        echo(_json_doc(exit_code, report=report,
                       attribution=attribution, fresh=fresh_doc))
        return exit_code

    echo(f"== regress: candidate {report.candidate_id} "
         f"vs baseline {report.baseline_id} ==")
    for line in report.table():
        echo(line)
    if attrib_report is not None:
        echo(f"== attribution: {report.baseline_id} -> "
             f"{report.candidate_id} (top {attribute_top}) ==")
        for line in attrib_report.table(top=attribute_top):
            echo(line)
        for line in fresh_lines:
            echo(line)
    if report.regressed:
        echo("regress: REGRESSION detected")
        return 1
    echo("regress: clean")
    return 0
