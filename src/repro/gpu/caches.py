"""Set-associative cache models for the per-SM L1 and the banked L2.

Both caches are tag-only (no data payloads are simulated — the covert
channel is a *timing* channel) with LRU or seeded-random replacement.
The L1 supports the ``-dlcm=cg`` bypass mode the paper compiles with:
when bypassed, every access goes straight to the interconnect, which
raises covert-channel bandwidth ~20% (Section 4.2, footnote 6).

Tag-store sets are built on first touch: a set exists only once a line
has been installed in it.  A full Volta device has 22,784 sets across
its 80 L1s and 48 L2 slices, and a bypassed L1 is never read, so
building them up front cost most of a device's construction time and
GC-tracked objects without changing any result.  A set is a plain list
of tags in LRU order (most recent last): preloading the channels'
9,472-line probe arrays into a Volta L2 takes 373 KB of lists where
``OrderedDict`` sets took 1,191 KB.  The random-replacement rng is
built on the first random eviction, so a device that never evicts
seeds none.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..config import check_cache_geometry


class SetAssociativeCache:
    """Tag store with LRU or seeded-random replacement.

    GPU L2 caches use pseudo-random (not true-LRU) replacement; the
    distinction matters under capacity pressure — true LRU protects a hot
    working set against a streaming interferer indefinitely, random
    replacement displaces it probabilistically (the mechanism behind the
    paper's third-kernel noise discussion, Section 5).

    ``_sets`` maps a set index to its list of tags in LRU order (most
    recent last): a hit or re-install moves the tag to the end, LRU
    eviction drops index 0 and random eviction drops a uniformly drawn
    index.  A set is created by the first install or allocating access
    that lands in it; lookups that do not allocate create nothing, and
    an invalidation drops every set.  The random-replacement rng is
    built from ``seed`` on the first random eviction and dropped by
    :meth:`reset`, so LRU caches and caches that never evict hold none.

    Parameters
    ----------
    size_bytes / line_bytes / ways:
        Geometry; ``size_bytes`` must be a positive multiple of
        ``line_bytes*ways`` (anything else raises ``ValueError``).
    replacement:
        ``"lru"`` or ``"random"`` (seeded, deterministic).
    """

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int,
        ways: int,
        replacement: str = "lru",
        seed: int = 0,
    ) -> None:
        check_cache_geometry(size_bytes, line_bytes, ways)
        if replacement not in ("lru", "random"):
            raise ValueError(f"unknown replacement {replacement!r}")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        self.replacement = replacement
        #: Set index -> list of tags, most recent last; a set is present
        #: only once a line has been installed in it.
        self._sets: Dict[int, List[int]] = {}
        self.hits = 0
        self.misses = 0
        self._seed = seed
        #: Random-replacement rng, built on the first random eviction.
        self._rng: Optional[random.Random] = None

    def _evict(self, entries: List[int]) -> None:
        if self.replacement == "lru":
            del entries[0]
            return
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random((self._seed << 8) ^ 0xCACE)
        del entries[rng.randrange(len(entries))]

    def _locate(self, address: int):
        """``(set index, tag, set)``; the set is None until first touched."""
        tag = address // self.line_bytes
        index = tag % self.num_sets
        return index, tag, self._sets.get(index)

    def _fill(self, index: int, entries: Optional[List[int]],
              tag: int) -> None:
        """Install absent ``tag`` in set ``index``, evicting if full."""
        if entries is None:
            self._sets[index] = [tag]
            return
        if len(entries) >= self.ways:
            self._evict(entries)
        entries.append(tag)

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU state or counters."""
        _, tag, entries = self._locate(address)
        return entries is not None and tag in entries

    def access(self, address: int, allocate: bool = True) -> bool:
        """Look up ``address``; return True on hit.

        On a miss with ``allocate``, victimize a line and install the
        new one.  LRU order is updated on hits.
        """
        index, tag, entries = self._locate(address)
        if entries is not None and tag in entries:
            entries.remove(tag)
            entries.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        if allocate:
            self._fill(index, entries, tag)
        return False

    def install(self, address: int) -> None:
        """Install a line without counting an access (e.g. preloading)."""
        index, tag, entries = self._locate(address)
        if entries is not None and tag in entries:
            entries.remove(tag)
            entries.append(tag)
            return
        self._fill(index, entries, tag)

    def invalidate_all(self) -> None:
        self._sets.clear()
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        """Restore construction state: empty tag store AND no rng.

        ``invalidate_all`` deliberately keeps the replacement rng stream
        running (a mid-run flush must not replay eviction decisions);
        a *reset* by contrast promises a device indistinguishable from a
        freshly built one, so the rng is dropped and the next random
        eviction rebuilds it from the seed.
        """
        self.invalidate_all()
        self._rng = None

    def state_digest(self):
        """Compact comparable summary of tag-store + rng state.

        The non-empty sets are folded into one hash in index order (a
        full dump per compare would dominate oracle runtime), so an
        untouched cache and one invalidated after use digest the same.
        Hit/miss counters and the replacement rng (None until its first
        draw) are included so two caches that merely happen to hold the
        same lines after different histories still differ.
        """
        sets = self._sets
        return (
            self.hits,
            self.misses,
            hash(tuple(
                (index, tuple(sets[index])) for index in sorted(sets)
            )),
            None if self._rng is None else hash(self._rng.getstate()[1]),
        )

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0


class L1Cache:
    """Per-SM L1 with a global bypass switch (``-dlcm=cg``).

    Reads hit in ``hit_latency`` cycles when enabled; writes are
    write-through / no-allocate (GPU-style) and always reach the NoC.
    """

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int,
        ways: int,
        hit_latency: int,
        enabled: bool = True,
    ) -> None:
        self.cache = SetAssociativeCache(size_bytes, line_bytes, ways)
        self.hit_latency = hit_latency
        self.enabled = enabled

    def lookup_read(self, address: int) -> bool:
        """True if the read hits (and therefore skips the interconnect)."""
        if not self.enabled:
            return False
        return self.cache.access(address, allocate=False)

    def fill(self, address: int) -> None:
        """Install the line when a read reply returns (if enabled)."""
        if self.enabled:
            self.cache.install(address)

    def note_write(self, address: int) -> None:
        """Write-through/no-allocate: update a resident copy in place.

        A write to a line the L1 holds refreshes it to most recent; a
        write to an absent line installs nothing.
        """
        if self.enabled and self.cache.probe(address):
            self.cache.install(address)
