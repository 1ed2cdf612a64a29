"""Content-addressed on-disk cache for experiment results.

An experiment's output is a pure function of (a) the ``repro`` source
and (b) the :class:`RunContext` it ran under (device sweep, seed,
fidelity) plus the registered specs of those devices.  The cache key
therefore hashes the experiment name together with the package
version, the context token, a digest of the context's
:class:`~repro.arch.DeviceSpec` objects and one **content key** for
the code: :func:`source_digest`, a digest of every ``.py`` file in the
``repro`` tree.  Any source edit invalidates every entry — a cache may
never serve an answer a fresh computation would not give.  The digest
is memoised per process (the code a process runs cannot change under
it), so keying costs one tree read per process, not one per lookup;
:func:`device_digest` likewise memoises each spec's ``repr`` on the
spec object.  The query service's blob tier (:mod:`repro.serve`) puts
the same tree digest in its storage keys.

Entries store the pickled :class:`~repro.core.tables.Table` and
:class:`~repro.core.checks.Check` tuple, *not* the
:class:`~repro.core.registry.ExperimentResult` itself: the result
holds the experiment (whose builder is an arbitrary callable, often
unpicklable) and is re-attached from the live registry on load.
Corrupt or truncated files are treated as misses.  Writes go through a
temp file + :func:`os.replace` so concurrent runners never observe a
partial entry.  Keys embed the context token, so the same experiment
cached under different contexts coexists on disk.

Two extensions serve the long-running query service
(:mod:`repro.serve`):

* a **size guard** — ``max_entries`` (or
  ``$HOPPERDISSECT_CACHE_MAX_ENTRIES``) bounds the entry count with
  LRU eviction (reads refresh an entry's mtime; the oldest entries
  beyond the bound are deleted on store, counted by
  ``stats.evictions`` and the ``result_cache.eviction`` provenance
  counter), so an always-on service cannot grow the cache without
  bound;
* a **blob tier** — :meth:`ResultCache.get_blob` /
  :meth:`ResultCache.put_blob` store arbitrary pickled payloads under
  caller-supplied content keys with the same atomic-write, corrupt-
  entry and eviction discipline, which is how shard-level prediction
  entries share the experiment cache's content-addressed store.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.core.context import DEFAULT_CONTEXT, RunContext
from repro.core.registry import ExperimentResult, get_experiment
from repro.obs import session as _obs


def _record_provenance(event: str, name: str) -> None:
    """Feed the active observability session one result-cache event
    (``result_cache.hit``/``miss``/``store`` counters + a marker)."""
    sess = _obs.ACTIVE
    if sess is None:
        return
    sess.counters.add(f"result_cache.{event}")
    if sess.tracer is not None:
        sess.tracer.instant(f"result_cache {event}: {name}",
                            cat="result_cache",
                            args={"experiment": name, "event": event})

__all__ = ["ResultCache", "ResultCacheStats", "default_cache_dir",
           "source_digest", "device_digest", "EntryBoundError",
           "env_entry_bound"]

#: bump when the on-disk payload layout changes
_SCHEMA = 2


def default_cache_dir() -> Path:
    """``$HOPPERDISSECT_CACHE_DIR``, else the XDG cache location."""
    env = os.environ.get("HOPPERDISSECT_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "hopperdissect"


def _read_source(path: Path) -> bytes:
    """Read one module's source.  Module-level so tests can stub the
    view of the tree without touching real files."""
    return Path(path).read_bytes()


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """Digest of every ``.py`` file in the installed ``repro`` tree —
    the content key of the code, memoised per process."""
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(_read_source(path))
        h.update(b"\0")
    return h.hexdigest()


#: ``repr`` bytes per spec object, keyed on ``id``: specs are frozen
#: (and unhashable), and each entry holds its spec, so an id is never
#: reused while its entry lives.  Re-registering a device installs a
#: new spec object, which misses here.
_SPEC_REPRS: Dict[int, Tuple[Any, bytes]] = {}


def _spec_repr(spec: Any) -> bytes:
    entry = _SPEC_REPRS.get(id(spec))
    if entry is None:
        entry = _SPEC_REPRS[id(spec)] = (spec, repr(spec).encode())
    return entry[1]


def device_digest(devices: Optional[Tuple[str, ...]] = None) -> str:
    """Digest of the named device specs (default: all registered)."""
    from repro.arch import get_device, list_devices

    names = list(devices) if devices else list_devices()
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(_spec_repr(get_device(name)))
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class ResultCacheStats:
    """Hit/miss/store counters for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class EntryBoundError(ValueError):
    """An entry-bound environment variable that is not a
    non-negative integer."""


def env_entry_bound(var: str, unset: Optional[int]) -> Optional[int]:
    """``$var`` read as a cache entry bound: unset or blank gives
    ``unset``, ``0`` gives ``None`` (unbounded), a positive integer is
    the bound.  Anything else raises :class:`EntryBoundError` naming
    the variable."""
    raw = os.environ.get(var, "").strip()
    if not raw:
        return unset
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise EntryBoundError(
            f"${var} must be a non-negative integer "
            f"(0 = unbounded), got {raw!r}")
    return value or None


def default_max_entries() -> Optional[int]:
    """``$HOPPERDISSECT_CACHE_MAX_ENTRIES`` as an int (``0`` or unset
    meaning unbounded, the historical behaviour)."""
    return env_entry_bound("HOPPERDISSECT_CACHE_MAX_ENTRIES", None)


@dataclass
class ResultCache:
    """Content-addressed store of experiment results.

    ``root=None`` resolves to :func:`default_cache_dir` at first use.
    ``max_entries=None`` reads :func:`default_max_entries`; a positive
    bound turns on LRU eviction (see the module docstring).
    """

    root: Optional[Path] = None
    stats: ResultCacheStats = field(default_factory=ResultCacheStats)
    max_entries: Optional[int] = None

    def __post_init__(self) -> None:
        if self.root is None:
            self.root = default_cache_dir()
        self.root = Path(self.root)
        if self.max_entries is None:
            self.max_entries = default_max_entries()
        if self.max_entries is not None and self.max_entries < 1:
            raise ValueError("max_entries must be positive or None")

    # -- keys ---------------------------------------------------------------

    def key_for(self, name: str,
                context: Optional[RunContext] = None) -> str:
        """The full content-address of one (experiment, context)."""
        import repro

        ctx = DEFAULT_CONTEXT if context is None else context
        h = hashlib.sha256()
        h.update(f"schema={_SCHEMA}\n".encode())
        h.update(f"version={repro.__version__}\n".encode())
        h.update(f"name={name}\n".encode())
        h.update(f"context={ctx.token()}\n".encode())
        h.update(f"devices={device_digest(ctx.devices)}\n".encode())
        h.update(f"source={source_digest()}\n".encode())
        return h.hexdigest()

    def path_for(self, name: str,
                 context: Optional[RunContext] = None) -> Path:
        return self.root / f"{name}-{self.key_for(name, context)[:20]}.pkl"

    # -- the cache protocol -------------------------------------------------

    def get(self, name: str,
            context: Optional[RunContext] = None) \
            -> Optional[ExperimentResult]:
        """Return the cached result for ``name`` under ``context``
        (default context when omitted), or ``None``."""
        ctx = DEFAULT_CONTEXT if context is None else context
        path = self.path_for(name, ctx)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if (payload["schema"] != _SCHEMA
                    or payload["name"] != name):
                raise ValueError("stale payload")
            result = ExperimentResult(
                experiment=get_experiment(name),
                table=payload["table"],
                checks=tuple(payload["checks"]),
                context=RunContext.from_payload(payload["context"]),
            )
        except (OSError, pickle.UnpicklingError, EOFError, KeyError,
                ValueError, AttributeError, ImportError):
            # missing, corrupt, or from an incompatible build: a miss
            self.stats.misses += 1
            _record_provenance("miss", name)
            return None
        self._touch(path)
        self.stats.hits += 1
        _record_provenance("hit", name)
        return result

    def put(self, name: str, result: ExperimentResult,
            context: Optional[RunContext] = None) -> Path:
        """Store ``result`` under ``name`` + context (atomic)."""
        ctx = context or result.context or DEFAULT_CONTEXT
        path = self.path_for(name, ctx)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": _SCHEMA,
            "name": name,
            "context": ctx.to_payload(),
            "table": result.table,
            "checks": tuple(result.checks),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=f".{name}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        _record_provenance("store", name)
        self._enforce_bound(keep=path)
        return path

    # -- the blob tier ------------------------------------------------------

    def blob_path(self, kind: str, key: str) -> Path:
        """Where a blob of ``kind`` under content ``key`` lives — the
        same ``{name}-{key[:20]}.pkl`` layout the experiment tier uses,
        so :meth:`clear` and the LRU bound govern both tiers."""
        return self.root / f"{kind}-{key[:20]}.pkl"

    def get_blob(self, kind: str, key: str) -> Optional[Any]:
        """The payload stored under (``kind``, ``key``), or ``None``.
        Corrupt or mismatched entries are misses, like :meth:`get`."""
        path = self.blob_path(kind, key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if (payload["schema"] != _SCHEMA
                    or payload["kind"] != kind
                    or payload["key"] != key):
                raise ValueError("stale payload")
            value = payload["value"]
        except (OSError, pickle.UnpicklingError, EOFError, KeyError,
                ValueError, AttributeError, ImportError):
            self.stats.misses += 1
            _record_provenance("miss", kind)
            return None
        self._touch(path)
        self.stats.hits += 1
        _record_provenance("hit", kind)
        return value

    def put_blob(self, kind: str, key: str, value: Any) -> Path:
        """Store a picklable ``value`` under (``kind``, ``key``)
        atomically, then enforce the LRU bound."""
        path = self.blob_path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": _SCHEMA, "kind": kind, "key": key,
                   "value": value}
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=f".{kind}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        _record_provenance("store", kind)
        self._enforce_bound(keep=path)
        return path

    # -- the size guard -----------------------------------------------------

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh an entry's mtime so reads count as recent use."""
        try:
            os.utime(path)
        except OSError:
            pass

    def _enforce_bound(self, keep: Optional[Path] = None) -> int:
        """Evict oldest-mtime entries beyond ``max_entries``.  The
        just-written ``keep`` path is never evicted, even under a
        pathological mtime tie.  Returns the eviction count."""
        if self.max_entries is None or not self.root.is_dir():
            return 0
        entries = []
        for p in self.root.glob("*.pkl"):
            try:
                entries.append((p.stat().st_mtime, str(p), p))
            except OSError:
                continue            # raced with another evictor
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return 0
        entries.sort()              # oldest first; path breaks ties
        evicted = 0
        for _, _, p in entries:
            if evicted >= excess:
                break
            if keep is not None and p == keep:
                continue
            try:
                p.unlink()
            except OSError:
                continue
            evicted += 1
            self.stats.evictions += 1
            # session side: the result_cache.eviction provenance
            # counter only — serve.* tallies belong to the service's
            # private stats bank, never the deterministic bank
            _record_provenance("eviction", p.stem)
        return evicted

    def clear(self) -> int:
        """Delete every entry under the cache root; returns a count."""
        if not self.root.is_dir():
            return 0
        n = 0
        for p in self.root.glob("*.pkl"):
            p.unlink(missing_ok=True)
            n += 1
        return n
