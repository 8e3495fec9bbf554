"""Crash-safe persistence primitives with startup recovery.

Every durable artifact the library writes — cache segments, ``BENCH_*.json``
reports, the JSONL bench ledger — goes through one of three helpers so a
``kill -9`` at *any* instant leaves either the old file or the new file,
never a torn hybrid:

* :func:`atomic_write_text` / :func:`atomic_write_json` — write to a
  temp file in the destination directory, flush, ``fsync``, then
  ``os.replace`` (atomic on POSIX and Windows), then best-effort fsync of
  the directory so the rename itself survives power loss;
* :func:`atomic_append_line` — append one full line with a single
  ``os.write`` on an ``O_APPEND`` descriptor, fsynced: concurrent
  appenders interleave at line granularity and a crash can only tear the
  final line (which recovery then removes);
* :func:`recover_jsonl` — startup recovery for append-only files: a
  torn trailing line (no newline, or unparseable JSON) is moved into the
  ``.quarantine/`` sibling directory and truncated away, so readers see
  only complete records and the evidence survives for debugging;
* :func:`read_jsonl` — the JSONL reader of the ledger and the cache:
  parsed lines plus the numbers of the bad ones, for the caller to act on;
* :func:`quarantine_file` — move any corrupt file into ``.quarantine/``
  next to it instead of deleting or raising.

Fault-injection sites (:mod:`repro.resilience.faults`) cover the two
crash windows that matter: ``<site>.tmp`` fires after the temp write but
before the rename (simulating a crash that strands a temp file) and
``<site>`` fires before any bytes move (simulating a crash before the
operation).  ``corrupt`` rules on the site corrupt the payload bytes —
which the atomic rename then publishes, exercising *reader-side*
corruption recovery.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Any, Callable

from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from . import faults

#: sibling directory corrupt/torn artifacts are moved into
QUARANTINE_DIR = ".quarantine"


def _fsync_dir(path: pathlib.Path) -> None:
    """Best-effort directory fsync (not all platforms/filesystems allow)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: "str | os.PathLike",
    text: str,
    *,
    site: str = "atomic.write",
    key: str = "",
    fsync: bool = True,
) -> pathlib.Path:
    """Atomically publish ``text`` at ``path`` (write/fsync/rename).

    Raises ``OSError`` on real I/O failure and :class:`.InjectedFault`
    under a fault plan; on either, the destination is untouched and any
    temp file is cleaned up.
    """
    path = pathlib.Path(path)
    faults.inject(site, key=key or path.name)
    data = faults.maybe_corrupt(
        site, text.encode("utf-8"), key=key or path.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name[:24]}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        # the crash window: temp is durable, rename has not happened yet
        faults.inject(f"{site}.tmp", key=key or path.name)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    if fsync:
        _fsync_dir(path.parent)
    return path


def atomic_write_json(
    path: "str | os.PathLike",
    value: Any,
    *,
    site: str = "atomic.write",
    key: str = "",
    fsync: bool = True,
    **dump_kwargs: Any,
) -> pathlib.Path:
    """:func:`atomic_write_text` for a JSON payload."""
    return atomic_write_text(
        path, json.dumps(value, **dump_kwargs) + "\n",
        site=site, key=key, fsync=fsync,
    )


def atomic_append_line(
    path: "str | os.PathLike",
    line: str,
    *,
    site: str = "atomic.append",
    key: str = "",
    fsync: bool = True,
) -> pathlib.Path:
    """Append ``line`` (newline added) as one fsynced ``O_APPEND`` write."""
    path = pathlib.Path(path)
    faults.inject(site, key=key or path.name)
    data = faults.maybe_corrupt(
        site, (line.rstrip("\n") + "\n").encode("utf-8"),
        key=key or path.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)
    return path


def read_jsonl(
    path: "str | os.PathLike", accept: Callable[[Any], bool] | None = None
) -> tuple[list[Any], list[int]]:
    """The values of a JSONL file's good lines, in order, and the 1-based
    numbers of its bad ones: not UTF-8 JSON, or refused by ``accept``.
    Blank lines are neither; an unreadable file raises ``OSError``."""
    values, bad = [], []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                value = json.loads(line.decode("utf-8"))
                good = accept is None or accept(value)
            except ValueError:  # UnicodeDecodeError is one
                good = False
            if good:
                values.append(value)
            else:
                bad.append(number)
    return values, bad


def quarantine_dir_for(path: "str | os.PathLike") -> pathlib.Path:
    return pathlib.Path(path).parent / QUARANTINE_DIR


def quarantine_file(
    path: "str | os.PathLike", *, reason: str = "corrupt"
) -> pathlib.Path | None:
    """Move ``path`` into its ``.quarantine/`` sibling; None on failure.

    Never raises: quarantining is itself a degradation path.  A name
    collision appends a numeric suffix so repeated corruption of the
    same filename keeps every specimen.
    """
    path = pathlib.Path(path)
    qdir = quarantine_dir_for(path)
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        serial = 0
        while target.exists():
            serial += 1
            target = qdir / f"{path.name}.{serial}"
        os.replace(path, target)
    except OSError as exc:
        obs_log.warning(
            "quarantine_failed", logger="repro.resilience.atomic",
            path=str(path), reason=reason, error=type(exc).__name__,
        )
        return None
    obs_metrics.counter("files_quarantined", reason=reason).inc()
    obs_log.warning(
        "file_quarantined", logger="repro.resilience.atomic",
        path=str(path), target=str(target), reason=reason,
    )
    return target


def recover_jsonl(path: "str | os.PathLike") -> int:
    """Startup recovery for an append-only JSONL file.

    Detects a torn tail — bytes after the last newline, or a final line
    that is not valid JSON — saves the tail into ``.quarantine/`` and
    truncates the file back to its last complete record.  Returns the
    number of bytes removed (0 when the file is clean or absent).
    Unreadable files are quarantined whole rather than raising.
    """
    path = pathlib.Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return 0
    except OSError as exc:
        obs_log.warning(
            "jsonl_unreadable", logger="repro.resilience.atomic",
            path=str(path), error=type(exc).__name__,
        )
        quarantine_file(path, reason="unreadable")
        return 0
    if not raw:
        return 0
    keep = len(raw)
    if not raw.endswith(b"\n"):
        keep = raw.rfind(b"\n") + 1  # 0 when no newline at all
    else:
        # the final complete line must parse; earlier corrupt lines are
        # the reader's per-line problem (counted + skipped there), but a
        # corrupt *tail* is the crash signature this recovery owns
        tail_start = raw.rfind(b"\n", 0, len(raw) - 1) + 1
        tail = raw[tail_start:len(raw) - 1]
        if tail.strip():
            try:
                json.loads(tail.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                keep = tail_start
    torn = len(raw) - keep
    if torn == 0:
        return 0
    # how many records (complete-but-corrupt lines plus at most one
    # newline-less tail fragment) the truncation removes — recovery must
    # never be silent, so both counts land in metrics alongside the log
    removed = raw[keep:]
    torn_records = sum(1 for seg in removed.split(b"\n") if seg.strip())
    qdir = quarantine_dir_for(path)
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        tail_file = qdir / f"{path.name}.torn"
        serial = 0
        while tail_file.exists():
            serial += 1
            tail_file = qdir / f"{path.name}.torn.{serial}"
        tail_file.write_bytes(raw[keep:])
        with open(path, "r+b") as fh:
            fh.truncate(keep)
            fh.flush()
            os.fsync(fh.fileno())
    except OSError as exc:
        obs_log.warning(
            "jsonl_recovery_failed", logger="repro.resilience.atomic",
            path=str(path), error=type(exc).__name__,
        )
        return 0
    obs_metrics.counter("files_recovered", kind="jsonl").inc()
    obs_metrics.counter("ledger_recovered_records").inc(max(1, torn_records))
    obs_metrics.counter("ledger_recovered_bytes").inc(torn)
    obs_log.warning(
        "jsonl_recovered", logger="repro.resilience.atomic",
        path=str(path), torn_bytes=torn, torn_records=torn_records,
        quarantine=str(tail_file),
    )
    return torn
