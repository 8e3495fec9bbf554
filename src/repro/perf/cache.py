"""Content-addressed persistent result cache (JSONL segments on disk).

Autotune results and ARM static schedules are pure functions of (shape,
bits, device, kernel kwargs, code).  This module memoizes them across
*processes*.  An entry is a JSON dict under the :func:`stable_hash` of
its key; a batch of entries is one segment file, ``seg-<sha256 of its
content>.jsonl`` with one ``[digest, value]`` array per line, under

* ``$REPRO_CACHE_DIR`` if set (re-read on every access, so tests can
  isolate with ``tmp_path``), else
* ``$XDG_CACHE_HOME/repro`` if set, else
* ``~/.cache/repro``.

Design rules:

* **Keys are canonical.**  :func:`stable_hash` serializes dataclasses,
  dicts (sorted), tuples, ``None`` and floats into canonical JSON before
  hashing — kwargs dicts with unhashable or unorderable values are fine,
  unlike ``tuple(sorted(kwargs.items()))``.
* **Code versions the key.**  Callers mix a :func:`code_fingerprint` of
  the modules that produce the value into the key, so editing a cost
  model invalidates stale entries instead of replaying them.
* **One file per batch, one index per process.**  ``put_many`` publishes
  a batch through :func:`repro.resilience.atomic.atomic_write_text`
  (all or none, even across ``kill -9``).  ``get_many`` answers from an
  in-process digest index; a call that misses lists the directory once
  and reads only the segments the index has not seen.
* **The cache is an optimization, never a failure source.**  Unreadable
  directories or segments, corrupt segments, injected faults, or racing
  writers degrade to a cache miss.  Setting ``REPRO_NO_CACHE=1``
  disables all disk traffic.
* **Corruption is quarantined, not just tolerated.**  A segment with a
  line that is not ``[digest, dict]`` is moved whole into the
  ``.quarantine/`` sibling directory (keeping the specimen), so the next
  lookup is a clean miss.  An unreadable segment stays put, an injected
  ``cache.get`` fault only counts a miss, and an index counts each
  unusable segment once.
* **Degradation is never silent.**  Every tolerated corruption, failed
  read or failed write increments a :mod:`repro.obs.metrics` counter
  (``cache_corrupt``, ``cache_read_errors``, ``cache_put_errors``) and
  emits a structured ``repro.obs.log`` warning, and every lookup lands
  in ``cache_lookups{namespace=...,outcome=...}``.
* **Chaos-testable.**  ``get_many``/``put_many`` run under the
  :mod:`repro.resilience.faults` sites ``cache.get`` / ``cache.put``
  (plus the ``cache.put.tmp`` crash window inside the atomic writer), so
  a seeded fault plan can prove every degradation path above (a batch's
  fault key is its segment name, a one-entry batch's its digest).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pathlib
import tokenize
from typing import Any, Iterable

from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..resilience import atomic as res_atomic
from ..resilience import faults as res_faults
from ..resilience.faults import InjectedFault

#: environment variable overriding the on-disk cache root
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: set to a non-empty value to disable all persistent caching
NO_CACHE_ENV = "REPRO_NO_CACHE"

#: the ``repro`` package's directory, where :func:`code_fingerprint` reads
_PACKAGE_DIR = pathlib.Path(__file__).resolve().parents[1]

#: ``json.dumps(entry, separators=(",", ":"))`` without an encoder per entry
_ENCODER = json.JSONEncoder(separators=(",", ":"))


# ---------------------------------------------------------------------------
# Stable hashing
# ---------------------------------------------------------------------------


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-serializable canonical form."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips doubles exactly; NaN/inf get distinct tags
        return ["f", repr(obj)]
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__name__, _canonical(obj.value)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: _canonical(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return ["dc", type(obj).__name__, fields]
    if isinstance(obj, dict):
        items = [(str(k), _canonical(v)) for k, v in obj.items()]
        if len({k for k, _ in items}) == len(items):
            items.sort(key=lambda kv: kv[0])
        else:  # keys equal as text (1 and "1"): order the ties by value
            items.sort(key=lambda kv: (kv[0], json.dumps(kv[1], sort_keys=True)))
        return ["dict", items]
    if isinstance(obj, (list, tuple)):
        return ["seq", [_canonical(v) for v in obj]]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted(json.dumps(_canonical(v)) for v in obj)]
    if isinstance(obj, bytes):
        return ["bytes", obj.hex()]
    # last resort: a stable textual form (no id()-bearing default reprs)
    text = repr(obj)
    if " at 0x" in text:
        text = f"{type(obj).__module__}.{type(obj).__qualname__}"
    return ["repr", text]


def stable_hash(obj: Any) -> str:
    """Canonical sha256 hex digest of an arbitrary key object.

    Insertion order of dicts, tuple-vs-list distinctions and object
    identity do not affect the digest; float values do, exactly.
    """
    blob = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _source(name: str) -> str:
    """What :func:`inspect.getsource` gives for the ``repro`` module ``name``,
    read without importing it; ``name`` when there is no source."""
    package, _, rest = name.partition(".")
    if package != "repro":
        return name
    path = _PACKAGE_DIR.joinpath(*rest.split("."))
    for file in (path / "__init__.py", path.with_suffix(".py")):
        try:
            with tokenize.open(file) as fh:
                text = fh.read()
        except (OSError, SyntaxError, ValueError):
            continue
        if not text:  # getsource finds no source in an empty file
            return name
        return text if text.endswith("\n") else text + "\n"
    return name


def code_fingerprint(modules: Iterable[str]) -> str:
    """A short digest of the source text of the ``repro`` modules named
    ``modules`` (dotted names), read from their files: nothing is
    imported.

    Mixed into cache keys so results are re-derived after any edit to the
    code that produced them.  A module whose source is unavailable
    (outside the package, missing or empty) contributes its name only —
    weaker, but still usable.
    """
    h = hashlib.sha256()
    for name in modules:
        h.update(_source(name).encode("utf-8", "replace"))
        h.update(b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# On-disk store
# ---------------------------------------------------------------------------


def default_cache_root() -> pathlib.Path:
    """Resolve the cache root from the environment (re-read every call)."""
    env = os.environ.get(CACHE_DIR_ENV, "").strip()
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    if xdg:
        return pathlib.Path(xdg) / "repro"
    return pathlib.Path.home() / ".cache" / "repro"


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`PersistentCache`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0  #: unusable segments + failed reads and writes

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "errors": self.errors,
            "hit_rate": round(self.hit_rate, 4),
        }


class PersistentCache:
    """One namespace of the segment store.

    ``get_many``/``put_many`` speak plain JSON-serializable dicts (a
    returned dict is the index's own: do not mutate it); callers own the
    (de)serialization of their domain objects.
    """

    def __init__(self, namespace: str, root: str | os.PathLike | None = None) -> None:
        if not namespace or "/" in namespace:
            raise ValueError(f"invalid cache namespace {namespace!r}")
        self.namespace = namespace
        self._root = pathlib.Path(root) if root is not None else None
        # the index: entries and segment names read of one directory
        self._indexed: pathlib.Path | None = None
        self._entries: dict[str, dict] = {}
        self._segments: set[str] = set()
        self.stats = CacheStats()

    # -- location -----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return not os.environ.get(NO_CACHE_ENV, "").strip()

    def directory(self) -> pathlib.Path:
        root = self._root if self._root is not None else default_cache_root()
        return root / self.namespace

    # -- the index ----------------------------------------------------------

    def _index(self, directory: pathlib.Path) -> dict[str, dict]:
        """The digest index of ``directory``; a new one when it moved."""
        if directory != self._indexed:
            self._indexed, self._entries, self._segments = directory, {}, set()
        return self._entries

    def _refresh(self) -> None:
        """Index the segments not seen yet: one listing (not a ``stat``: a
        coarse mtime hides a publish in the same tick), one read each."""
        try:
            names = os.listdir(self._indexed)
        except OSError:  # no directory yet, or an unusable root
            return
        for name in names:
            if (not name.startswith("seg-") or not name.endswith(".jsonl")
                    or name in self._segments):
                continue
            path = self._indexed / name
            try:
                entries, bad = res_atomic.read_jsonl(path, accept=lambda e: (
                    type(e) is list and len(e) == 2
                    and type(e[0]) is str and type(e[1]) is dict))
            except FileNotFoundError:  # cleared by another process
                continue
            except OSError as exc:  # no proof of bad bytes: skip, keep it
                entries, bad = [], None
                self._degrade("cache_read_errors", "cache_read_failed",
                              path=str(path), error=type(exc).__name__)
            if bad:  # trust none of the segment, and move it away
                self._degrade("cache_corrupt", "cache_corrupt",
                              path=str(path), bad=bad)
                if res_atomic.quarantine_file(path, reason="cache-corrupt"):
                    continue  # a new file of this name is read anew
            else:
                self._entries.update(entries)
            self._segments.add(name)  # not read or counted again

    def drop_index(self) -> None:
        """Forget what was read: the next lookup reads the directory anew."""
        self._indexed, self._entries, self._segments = None, {}, set()

    # -- operations ---------------------------------------------------------

    def _degrade(self, counter: str, event: str, **fields: Any) -> None:
        """Count and log a tolerated failure: degradation is never silent."""
        self.stats.errors += 1
        obs_metrics.counter(counter, namespace=self.namespace).inc()
        obs_log.warning(event, logger="repro.perf.cache",
                        namespace=self.namespace, **fields)

    def get_many(self, digests: Iterable[str]) -> list[dict | None]:
        """The stored entry of each digest, ``None`` on miss/corruption/
        disablement.  The call's first miss lists the directory, once;
        its lookups are counted once, when it returns.  The fault plan is
        resolved once per call: nothing in a call can change it."""
        if not self.enabled:
            return [None for _ in digests]
        entries, listed, values = self._index(self.directory()), False, []
        hits = errors = 0
        plan = res_faults.active_plan()
        for digest in digests:
            try:
                plan.inject("cache.get", digest)
            except InjectedFault:
                values.append(None)
                errors += 1
                continue
            value = entries.get(digest)
            if value is None and not listed:
                self._refresh()
                listed, value = True, entries.get(digest)
            # injected garbage is a failed read of a good entry: it stays put
            if value is not None and not isinstance(
                    plan.garbage("cache.get", value, digest), dict):
                value = None
                errors += 1
            hits += value is not None
            values.append(value)
        misses = len(values) - hits
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.errors += errors
        for outcome, n in (("hit", hits), ("miss", misses)):
            if n:
                obs_metrics.counter(
                    "cache_lookups", namespace=self.namespace, outcome=outcome
                ).inc(n)
        return values

    def get(self, digest: str) -> dict | None:
        """:meth:`get_many` of one digest."""
        return self.get_many([digest])[0]

    def put_many(self, items: Iterable[tuple[str, dict]]) -> bool:
        """Atomically persist ``(digest, value)`` entries as one segment
        and index them as given; failures are swallowed (False)."""
        if not self.enabled:
            return False
        items = list(items)
        if not items:
            return True
        directory = self.directory()
        try:
            text = "".join(_ENCODER.encode([digest, value]) + "\n"
                           for digest, value in items)
            name = f"seg-{hashlib.sha256(text.encode()).hexdigest()}.jsonl"
            # fsync=False: the rename alone makes segments kill-safe, and
            # one lost to power loss is a recomputable miss
            res_atomic.atomic_write_text(
                directory / name, text, site="cache.put",
                key=items[0][0] if len(items) == 1 else name, fsync=False)
        except (OSError, TypeError, ValueError, InjectedFault) as exc:
            self._degrade("cache_put_errors", "cache_put_failed",
                          path=str(directory), entries=len(items),
                          error=type(exc).__name__)
            return False
        self.stats.puts += len(items)
        obs_metrics.counter("cache_puts", namespace=self.namespace).inc(len(items))
        self._index(directory).update(items)
        self._segments.add(name)
        return True

    def put(self, digest: str, value: dict) -> bool:
        """:meth:`put_many` of one entry."""
        return self.put_many([(digest, value)])

    def clear(self) -> int:
        """Delete every file of the namespace, old-layout entries too (not
        ``.quarantine/``), and forget the index; returns the files removed."""
        self.drop_index()
        removed = 0
        try:
            paths = [p for p in self.directory().iterdir() if p.is_file()]
        except OSError:
            return 0
        for path in paths:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        """Indexed entries, after indexing any new segments."""
        entries = self._index(self.directory())
        self._refresh()
        return len(entries)

    def reset_stats(self) -> None:
        self.stats = CacheStats()
