"""Content-addressed on-disk cache for simulation results.

Sweep experiments re-run the same (config, workload, seed) points over and
over — across CLI invocations, benchmark sessions, and notebook restarts.
Every one of those points is a pure function of its inputs (all randomness
flows from the seed recorded in :class:`~repro.config.GpuConfig`), so the
result can be cached on disk and replayed for free.

The cache key is a SHA-256 over the canonical JSON encoding of:

* the dotted path of the workload function,
* the full :class:`~repro.config.GpuConfig` (nested dataclasses included),
* the workload's keyword parameters,
* the seed, and
* a *code version* — a hash over every ``.py`` source file of the
  ``repro`` package, so editing the simulator invalidates the whole cache
  instead of silently replaying stale results.

Entries are JSON files under ``<root>/<key[:2]>/<key>.json`` written
atomically (temp file + ``os.replace``), so a crashed or parallel writer
never leaves a torn entry.  Every entry carries a content checksum of its
result; an entry that fails to parse or verify on read is *quarantined*
(moved to ``<root>/_quarantine/`` and recorded on the cache object) so
torn or corrupted state is surfaced once instead of silently re-missed.
The root defaults to ``.repro_cache`` in the working directory and can be
overridden with ``$REPRO_CACHE_DIR``.

As the shared artifact store behind the sweep service the cache is
optionally **size-bounded**: give it ``max_entries`` and/or ``max_bytes``
(or set ``$REPRO_CACHE_MAX_ENTRIES`` / ``$REPRO_CACHE_MAX_BYTES``) and
every ``put`` evicts least-recently-used entries until the store fits.
Recency is the entry file's mtime — ``get`` touches it on every hit — so
eviction order survives process restarts and is shared between concurrent
writers without any lock: writes are already atomic renames, a concurrent
eviction of a file another process is about to read is simply that
reader's miss, and two evictors racing on the same file lose nothing but
an ``unlink`` raising ``FileNotFoundError`` (ignored).  Hit/miss/put/
eviction counts are published as the ``cache_ops_total`` counter family
in the :mod:`repro.metrics` registry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Environment variables for the default store bounds (unset = unbounded).
CACHE_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"${name} must be an integer, got {raw!r}")
    if value <= 0:
        raise ValueError(f"${name} must be positive, got {value}")
    return value

_code_version: Optional[str] = None

#: Per source tree: the stat fingerprint last hashed, and its version.
_tree_versions: Dict[Path, Tuple[Tuple[Tuple[str, int, int], ...], str]] = {}


def source_version(root: Path) -> str:
    """Hash of every ``.py`` file under ``root``, rehashed only on change.

    Each call stats the tree; the files are read and hashed again only
    when the ``(relative path, st_mtime_ns, st_size)`` fingerprint
    differs from the one last hashed for ``root``.  So an in-process
    source edit is still caught, while an unchanged tree costs a
    directory walk instead of a read of every file.
    """
    paths = sorted(root.rglob("*.py"))
    fingerprint = tuple(
        (path.relative_to(root).as_posix(), stat.st_mtime_ns, stat.st_size)
        for path, stat in ((path, path.stat()) for path in paths)
    )
    memo = _tree_versions.get(root)
    if memo is not None and memo[0] == fingerprint:
        return memo[1]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    version = digest.hexdigest()[:16]
    _tree_versions[root] = (fingerprint, version)
    return version


def code_version(refresh: bool = False) -> str:
    """Hash of every ``.py`` file in the ``repro`` package (memoised).

    Any edit to the simulator changes this value and therefore every cache
    key, which is the only safe default for a cycle-level model where a
    one-line change can shift every measured latency.

    The memo exists because sweeps compute thousands of keys; it goes
    stale if the source tree changes while the process lives (a notebook
    kernel spanning an edit/reload cycle).  ``refresh=True`` checks the
    tree again through :func:`source_version` and replaces the memo —
    :class:`ResultCache` does this once per construction, so every new
    cache sees the code that is on disk *now*.
    """
    global _code_version
    if _code_version is None or refresh:
        _code_version = source_version(Path(__file__).resolve().parent.parent)
    return _code_version


def _jsonable(value: Any) -> Any:
    """Convert dataclasses/tuples to plain JSON types for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(
        _jsonable(value), sort_keys=True, separators=(",", ":")
    )


def job_key(
    fn: str,
    config: Any,
    params: Optional[Mapping[str, Any]] = None,
    seed: Optional[int] = None,
    version: Optional[str] = None,
) -> str:
    """Content-hash key for one simulation point.

    This is the single keying scheme shared by :class:`ResultCache` and
    the sweep service's in-flight dedup — the key depends only on the
    point's inputs and the code version, never on where results are
    stored.
    """
    payload = canonical_json(
        {
            "fn": fn,
            "config": config,
            "params": dict(params or {}),
            "seed": seed,
            "code_version": version or code_version(),
        }
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def result_checksum(result: Any) -> str:
    """Short content digest of a stored result (integrity check)."""
    return hashlib.sha256(canonical_json(result).encode()).hexdigest()[:16]


class ResultCache:
    """On-disk result cache keyed by content hash.

    Results must be JSON-serialisable; callers get back exactly what a
    JSON round trip of the original produces (tuples become lists), so a
    cache hit and a fresh run are type-identical.
    """

    #: Subdirectory (under the cache root) corrupt entries are moved to.
    QUARANTINE_DIR = "_quarantine"

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        *,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.root = Path(root)
        if max_entries is None:
            max_entries = _env_int(CACHE_MAX_ENTRIES_ENV)
        if max_bytes is None:
            max_bytes = _env_int(CACHE_MAX_BYTES_ENV)
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive: {max_entries}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive: {max_bytes}")
        #: LRU bounds; ``None`` means unbounded on that axis.
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Corrupt entries found by :meth:`get`, in discovery order:
        #: ``{"key", "path", "reason"}`` dicts.  The supervisor folds
        #: these into the sweep failure manifest so a poisoned cache is
        #: surfaced, never silently re-missed.
        self.quarantines: list = []
        #: Code version pinned at construction.  Forcing a refresh here
        #: (rather than trusting the module-level memo) means a cache
        #: built after an in-process source edit keys on the *current*
        #: tree, not whatever the first import hashed.
        self.code_version = code_version(refresh=True)
        # Labeled counters in the process metrics registry (or a caller
        # scoped one), so sweep manifests expose store hit rate/pressure.
        if metrics is None:
            from ..metrics.registry import get_registry

            metrics = get_registry()
        help_text = "Artifact-store operations by outcome."
        self._m_hits = metrics.counter("cache_ops_total", help_text, op="hit")
        self._m_misses = metrics.counter(
            "cache_ops_total", help_text, op="miss"
        )
        self._m_puts = metrics.counter("cache_ops_total", help_text, op="put")
        self._m_evictions = metrics.counter(
            "cache_ops_total", help_text, op="eviction"
        )

    def key(
        self,
        fn: str,
        config: Any,
        params: Optional[Mapping[str, Any]] = None,
        seed: Optional[int] = None,
    ) -> str:
        """Cache key for one simulation point."""
        return job_key(fn, config, params, seed, version=self.code_version)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantined(self) -> int:
        """Number of corrupt entries quarantined so far."""
        return len(self.quarantines)

    def _quarantine(self, key: str, path: Path, reason: str) -> None:
        """Move a corrupt entry aside and record it.

        The entry is renamed into ``<root>/_quarantine/`` (numbered on
        collision) so the evidence survives for post-mortem while the
        slot becomes a clean miss that the next ``put`` repopulates.
        """
        target_dir = self.root / self.QUARANTINE_DIR
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / path.name
        counter = 0
        while target.exists():
            counter += 1
            target = target_dir / f"{path.stem}.{counter}{path.suffix}"
        try:
            os.replace(path, target)
        except OSError:
            target = path  # unmovable: record in place, still a miss
        self.quarantines.append(
            {"key": key, "path": str(target), "reason": reason}
        )

    def _note_miss(self) -> None:
        self.misses += 1
        self._m_misses.inc()

    def _note_hit(self, path: Path) -> None:
        self.hits += 1
        self._m_hits.inc()
        # Refresh the entry's recency stamp so LRU eviction (here or in
        # any other process sharing the store) spares hot entries.
        try:
            os.utime(path)
        except OSError:
            pass  # concurrently evicted; the result we read is still good

    def get(self, key: str) -> Optional[Any]:
        """Stored result for ``key``, or None.

        A missing file is a plain miss.  A file that *exists* but cannot
        be trusted — torn/partial JSON, a well-formed document without a
        ``"result"`` key, or a result whose stored checksum no longer
        matches its content — is **quarantined**: moved into
        ``<root>/_quarantine/`` and recorded in :attr:`quarantines`, then
        reported as a miss so the point is recomputed.  Corruption is
        therefore surfaced exactly once instead of being silently
        re-missed (or worse, silently replayed) on every sweep.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except OSError:
            self._note_miss()
            return None
        except json.JSONDecodeError:
            self._quarantine(key, path, "torn or non-JSON entry")
            self._note_miss()
            return None
        try:
            result = entry["result"]
        except (KeyError, TypeError):
            self._quarantine(key, path, "entry has no 'result' field")
            self._note_miss()
            return None
        meta = entry.get("meta") if isinstance(entry, dict) else None
        stored = meta.get("checksum") if isinstance(meta, dict) else None
        if stored is not None and stored != result_checksum(result):
            self._quarantine(
                key, path,
                f"checksum mismatch (stored {stored}, "
                f"computed {result_checksum(result)})",
            )
            self._note_miss()
            return None
        self._note_hit(path)
        return result

    def meta(self, key: str) -> Optional[Dict[str, Any]]:
        """Stored metadata for ``key`` (None if absent or unreadable)."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            meta = entry.get("meta")
        except (OSError, json.JSONDecodeError, AttributeError):
            return None
        return meta if isinstance(meta, dict) else None

    def put(
        self,
        key: str,
        result: Any,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """Atomically store ``result``; returns its JSON round trip.

        The entry's ``meta`` always records the code version the result
        was produced under, so entries stay self-describing even when
        inspected outside the keying scheme.  When the store is bounded,
        the write is followed by an LRU sweep that never evicts the entry
        just written.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"result": result}
        entry["meta"] = {
            "code_version": self.code_version,
            "checksum": result_checksum(result),
            **(meta or {}),
        }
        encoded = json.dumps(entry, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(encoded)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._m_puts.inc()
        if self.max_entries is not None or self.max_bytes is not None:
            self._evict(keep=path)
        return json.loads(encoded)["result"]

    # -- LRU eviction -------------------------------------------------- #
    def _entries(self) -> List[Tuple[float, int, Path]]:
        """Live entries as ``(mtime, size, path)``, oldest first."""
        entries: List[Tuple[float, int, Path]] = []
        for path in self.root.glob("??/*.json"):
            if path.name.startswith("."):
                continue  # another writer's in-progress temp file
            try:
                stat = path.stat()
            except OSError:
                continue  # evicted by a concurrent writer mid-scan
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(key=lambda item: (item[0], item[2].name))
        return entries

    def _evict(self, keep: Optional[Path] = None) -> int:
        """Unlink least-recently-used entries until the store fits.

        ``keep`` (the entry the caller just wrote) is never a candidate,
        so a pathologically small bound still leaves every ``put``
        readable by its own writer.  Lock-free against concurrent
        writers: a racing ``unlink`` simply means someone else evicted
        the file first, which is not counted here.
        """
        entries = self._entries()
        count = len(entries)
        total = sum(size for _, size, _ in entries)
        removed = 0
        for _, size, path in entries:
            over = (
                self.max_entries is not None and count > self.max_entries
            ) or (self.max_bytes is not None and total > self.max_bytes)
            if not over:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                pass  # a concurrent evictor beat us to it
            else:
                removed += 1
                self.evictions += 1
                self._m_evictions.inc()
            count -= 1
            total -= size
        return removed

    def clear(self) -> int:
        """Delete every live entry (quarantined files are kept); returns
        the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("??/*.json"):
            if path.name.startswith("."):
                continue  # another writer's in-progress temp file
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
