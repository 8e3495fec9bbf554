"""Append-only JSONL ledger of bench runs (the BENCH trajectory).

``python -m repro bench --save`` appends one schema-v3 entry per run to
``$REPRO_BENCH_DIR/ledger.jsonl`` (default ``benchmarks/history/``):

* provenance — UTC timestamp, git sha, and a machine fingerprint
  (platform + CPU count + the :func:`repro.perf.cache.code_fingerprint`
  of the pricing code) so cross-machine entries are never compared as
  if they were one series;
* the deterministic payload — per-figure model *cycles* and series
  (bit-identical run to run by construction, the regression checker's
  hard signal);
* the noisy payload — per-phase wall-clock seconds (compared against a
  median-of-N threshold, never bit-wise);
* the full ``repro.obs`` metrics snapshot of the run.

The ledger is plain JSONL on purpose: append is one fsynced ``O_APPEND``
write (:func:`repro.resilience.atomic.atomic_append_line`, fault site
``history.append``), history survives any crash mid-run, and corrupt
lines are counted and skipped — mirroring :mod:`repro.perf.cache`'s
never-silent degradation.  On every open the ledger runs startup
recovery (:func:`repro.resilience.atomic.recover_jsonl`): a torn tail
left by a ``kill -9`` mid-append is moved into ``.quarantine/`` and
truncated away, so readers — and the next appender — only ever see
complete records.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
from typing import Any

from ..resilience import atomic as res_atomic
from . import log as obs_log
from . import metrics as obs_metrics

#: bump when the ledger entry layout changes.  v3 aligns with the
#: BENCH_*.json schema: v2 added the metrics block, v3 adds provenance
#: (git sha + machine fingerprint) and the deterministic cycles block.
LEDGER_SCHEMA = 3

BENCH_DIR_ENV = "REPRO_BENCH_DIR"
DEFAULT_HISTORY_DIR = pathlib.Path("benchmarks") / "history"
LEDGER_NAME = "ledger.jsonl"


def history_dir(root: str | os.PathLike | None = None) -> pathlib.Path:
    """Resolve the ledger directory (arg > ``REPRO_BENCH_DIR`` > default)."""
    if root is not None:
        return pathlib.Path(root)
    env = os.environ.get(BENCH_DIR_ENV, "").strip()
    return pathlib.Path(env) if env else DEFAULT_HISTORY_DIR


def git_sha() -> str | None:
    """The checked-out commit, or None outside a usable git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def machine_fingerprint() -> str:
    """Short digest identifying (machine, pricing code) pairs.

    Wall-clock numbers are only comparable within one fingerprint; the
    deterministic cycle blocks additionally fold in the pricing code via
    :func:`repro.perf.cache.code_fingerprint`, so a cost-model edit shows
    up as a fingerprint change rather than a phantom regression.
    """
    import platform

    from ..arm import cost_model, pipeline
    from ..backends import arm as be_arm
    from ..backends import gpu as be_gpu
    from ..gpu import autotune, pipelinemodel, tiling, vecmodel
    from ..perf.cache import code_fingerprint, stable_hash

    return stable_hash({
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "code": code_fingerprint([
            cost_model, pipeline, pipelinemodel, vecmodel, autotune, tiling,
            be_arm, be_gpu,
        ]),
    })[:16]


class BenchLedger:
    """One ``ledger.jsonl`` file of bench-run entries."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = history_dir(root)

    @property
    def path(self) -> pathlib.Path:
        return self.root / LEDGER_NAME

    def recover(self) -> int:
        """Startup recovery: quarantine + truncate a torn tail, if any.
        Returns the torn byte count (0 for a clean or absent ledger)."""
        return res_atomic.recover_jsonl(self.path)

    def append(self, entry: dict) -> pathlib.Path:
        """Append one entry as a single fsynced ``O_APPEND`` line.

        Runs recovery first so a new record is never glued onto a torn
        tail from a crashed predecessor.  Raises ``OSError`` (or an
        injected fault) on failure — callers for whom history is
        optional catch and degrade.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        self.recover()
        line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        res_atomic.atomic_append_line(
            self.path, line,
            site="history.append", key=str(entry.get("run_id", "")),
        )
        obs_metrics.counter("ledger_entries", outcome="appended").inc()
        return self.path

    def entries(self) -> list[dict]:
        """Every parseable entry, oldest first; a torn tail is recovered
        (quarantined + truncated) first, and corrupt interior lines are
        counted (``ledger_entries{outcome=corrupt}``), warned about, and
        skipped."""
        if not self.path.is_file():
            return []
        self.recover()
        out: list[dict] = []
        for i, line in enumerate(
            self.path.read_text(encoding="utf-8").splitlines()
        ):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                if not isinstance(entry, dict):
                    raise ValueError("entry is not an object")
            except ValueError as exc:
                obs_metrics.counter("ledger_entries", outcome="corrupt").inc()
                obs_log.warning(
                    "ledger_corrupt_line", logger="repro.obs.history",
                    path=str(self.path), line=i + 1,
                    error=type(exc).__name__,
                )
                continue
            out.append(entry)
        return out

    def latest(self, n: int = 1) -> list[dict]:
        """The newest ``n`` entries, newest first."""
        return list(reversed(self.entries()[-n:]))

    def select(self, spec: str) -> dict:
        """One entry by selector: a negative index (``"-1"`` = newest,
        ``"-2"`` the one before) or a run-id / git-sha / machine-
        fingerprint prefix (newest match wins — ``repro diff`` and
        ``regress --baseline`` both resolve sides this way).  Raises
        ``ValueError`` when nothing matches, naming what was tried."""
        entries = self.entries()
        if not entries:
            raise ValueError(
                f"ledger selector {spec!r}: the ledger at {self.path} is "
                f"empty (run `repro bench --save` first)")
        try:
            idx = int(spec)
        except ValueError:
            idx = None
        if idx is not None and idx < 0:
            if -idx > len(entries):
                raise ValueError(
                    f"ledger selector {spec!r}: only {len(entries)} entries")
            return entries[idx]
        for entry in reversed(entries):
            if (entry.get("run_id", "").startswith(spec)
                    or (entry.get("git_sha") or "").startswith(spec)
                    or (entry.get("fingerprint") or "").startswith(spec)):
                return entry
        raise ValueError(
            f"ledger selector {spec!r} matches no run_id/git_sha/"
            f"fingerprint among {len(entries)} entries")

    def __len__(self) -> int:
        return len(self.entries())


def build_entry(
    *,
    kind: str,
    model: str,
    batch: int,
    backends: list[str],
    timestamp: str,
    model_cycles: dict[str, Any],
    figures: dict[str, dict[str, list[float]]],
    wall_seconds: dict[str, float],
    metrics_snapshot: dict,
    throughput: dict[str, float] | None = None,
) -> dict:
    """Assemble one schema-v3 ledger entry from a finished bench run.

    ``throughput`` carries per-phase candidate-pricing rates
    (candidates/sec) — optional and additive, so entries written before
    the key existed still compare cleanly.
    """
    sha = git_sha()
    entry = {
        "schema": LEDGER_SCHEMA,
        "run_id": f"{timestamp}-{(sha or 'nogit')[:12]}",
        "timestamp": timestamp,
        "git_sha": sha,
        "fingerprint": machine_fingerprint(),
        "kind": kind,
        "model": model,
        "batch": batch,
        "backends": list(backends),
        "model_cycles": model_cycles,
        "figures": figures,
        "wall_seconds": {k: round(v, 6) for k, v in wall_seconds.items()},
        "metrics": metrics_snapshot,
    }
    if throughput:
        entry["throughput"] = {
            k: round(v, 1) for k, v in throughput.items() if v
        }
    return entry
