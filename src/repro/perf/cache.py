"""Content-addressed persistent result cache (JSON on disk).

Autotune results and ARM static schedules are pure functions of (shape,
bits, device, kernel kwargs, code).  This module memoizes them across
*processes*: a cache entry is one JSON file named by the
:func:`stable_hash` of its key, stored under

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
* **The cache is an optimization, never a failure source.**  Unreadable
  directories, truncated/corrupt JSON, injected faults, or racing
  writers degrade to a cache miss; writes go through
  :func:`repro.resilience.atomic.atomic_write_text`
  (temp file + fsync + ``os.replace``) so readers never observe a
  partial entry even across ``kill -9``.  Setting ``REPRO_NO_CACHE=1``
  disables all disk traffic.
* **Corruption is quarantined, not just tolerated.**  A corrupt entry is
  moved into the ``.quarantine/`` sibling directory (keeping the
  specimen for debugging) so the next lookup is a clean
  ``FileNotFoundError`` miss instead of re-parsing garbage forever.
* **Degradation is never silent.**  Every tolerated corruption or failed
  write increments a :mod:`repro.obs.metrics` counter (``cache_corrupt``,
  ``cache_put_errors``) and emits a structured ``repro.obs.log`` warning,
  and every lookup lands in ``cache_lookups{namespace=...,outcome=...}``.
* **Chaos-testable.**  ``get``/``put`` run under the
  :mod:`repro.resilience.faults` sites ``cache.get`` / ``cache.put``
  (plus the ``cache.put.tmp`` crash window inside the atomic writer), so
  a seeded fault plan can prove every degradation path above.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import inspect
import json
import os
import pathlib
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


def code_fingerprint(modules: Iterable[Any]) -> str:
    """A short digest of the source text of ``modules``.

    Mixed into cache keys so results are re-derived after any edit to the
    code that produced them.  Modules whose source is unavailable (frozen,
    REPL) contribute their name only — weaker, but still usable.
    """
    h = hashlib.sha256()
    for mod in modules:
        try:
            src = inspect.getsource(mod)
        except (OSError, TypeError):
            src = getattr(mod, "__name__", repr(mod))
        h.update(src.encode("utf-8", "replace"))
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
    errors: int = 0  #: corrupt entries tolerated + failed writes

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
    """One namespace of the JSON-on-disk store.

    ``get``/``put`` speak plain JSON-serializable dicts; callers own the
    (de)serialization of their domain objects so this class stays generic.
    """

    def __init__(self, namespace: str, root: str | os.PathLike | None = None) -> None:
        if not namespace or "/" in namespace:
            raise ValueError(f"invalid cache namespace {namespace!r}")
        self.namespace = namespace
        self._root = pathlib.Path(root) if root is not None else None
        self.stats = CacheStats()

    # -- location -----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return not os.environ.get(NO_CACHE_ENV, "").strip()

    def directory(self) -> pathlib.Path:
        root = self._root if self._root is not None else default_cache_root()
        return root / self.namespace

    def path_for(self, digest: str) -> pathlib.Path:
        return self.directory() / f"{digest}.json"

    # -- operations ---------------------------------------------------------

    def _count_lookup(self, outcome: str) -> None:
        obs_metrics.counter(
            "cache_lookups", namespace=self.namespace, outcome=outcome
        ).inc()

    def _degrade(self, path: pathlib.Path, exc: BaseException | None,
                 reason: str) -> None:
        """A corrupt/unreadable entry tolerated as a miss — but signaled,
        and the offending file is quarantined so the next lookup misses
        cleanly instead of re-parsing the same garbage."""
        self.stats.misses += 1
        self.stats.errors += 1
        self._count_lookup("miss")
        obs_metrics.counter("cache_corrupt", namespace=self.namespace).inc()
        obs_log.warning(
            "cache_corrupt",
            logger="repro.perf.cache",
            namespace=self.namespace,
            path=str(path),
            reason=reason,
            error=type(exc).__name__ if exc is not None else "none",
        )
        if path.exists():
            res_atomic.quarantine_file(path, reason=f"cache-{reason}")

    def get(self, digest: str) -> dict | None:
        """The stored entry, or ``None`` on miss/corruption/disablement."""
        if not self.enabled:
            return None
        path = self.path_for(digest)
        try:
            res_faults.inject("cache.get", key=digest)
            with open(path, "r", encoding="utf-8") as fh:
                value = json.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            self._count_lookup("miss")
            return None
        except (OSError, ValueError, UnicodeDecodeError, InjectedFault) as exc:
            # truncated/corrupt/unreadable entry: a miss, never a crash
            self._degrade(path, exc, "unreadable-or-invalid-json")
            return None
        value = res_faults.maybe_garbage("cache.get", value, key=digest)
        if not isinstance(value, dict):
            self._degrade(path, None, "entry-not-a-dict")
            return None
        self.stats.hits += 1
        self._count_lookup("hit")
        return value

    def put(self, digest: str, value: dict) -> bool:
        """Atomically persist ``value``; failures are swallowed (False)."""
        if not self.enabled:
            return False
        path = self.path_for(digest)
        try:
            # fsync=False: rename atomicity alone makes entries kill-safe
            # (readers see old-or-new, never torn); skipping the fsync
            # keeps hot-sweep puts off the disk-flush path.  Power-loss
            # durability is not a cache's contract — a lost entry is a
            # recomputable miss.
            res_atomic.atomic_write_text(
                path, json.dumps(value, separators=(",", ":")),
                site="cache.put", key=digest, fsync=False,
            )
        except (OSError, TypeError, ValueError, InjectedFault) as exc:
            self.stats.errors += 1
            obs_metrics.counter(
                "cache_put_errors", namespace=self.namespace
            ).inc()
            obs_log.warning(
                "cache_put_failed",
                logger="repro.perf.cache",
                namespace=self.namespace,
                path=str(path),
                error=type(exc).__name__,
            )
            return False
        self.stats.puts += 1
        obs_metrics.counter("cache_puts", namespace=self.namespace).inc()
        return True

    def clear(self) -> int:
        """Delete every entry in this namespace; returns files removed."""
        removed = 0
        try:
            entries = list(self.directory().glob("*.json"))
        except OSError:
            return 0
        for path in entries:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.directory().glob("*.json"))
        except OSError:
            return 0

    def reset_stats(self) -> None:
        self.stats = CacheStats()
