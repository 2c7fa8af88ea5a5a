"""Unit and property tests for the cache models."""

import gc
import random
import tracemalloc
from collections import OrderedDict

import pytest
from hypothesis import given, strategies as st

from repro.config import VOLTA_V100, small_config
from repro.gpu.caches import L1Cache, SetAssociativeCache
from repro.gpu.device import GpuDevice
from repro.gpu.workloads import make_streaming_kernel


class TestSetAssociative:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(1024, 64, 2)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        # 2-way cache: set has room for two lines; third evicts the LRU.
        cache = SetAssociativeCache(128, 64, 2)  # 1 set, 2 ways
        cache.access(0)
        cache.access(64)
        cache.access(0)          # refresh line 0: line 64 is now LRU
        cache.access(128)        # evicts 64
        assert cache.probe(0)
        assert not cache.probe(64)
        assert cache.probe(128)

    def test_no_allocate_mode_does_not_install(self):
        cache = SetAssociativeCache(1024, 64, 2)
        cache.access(0, allocate=False)
        assert not cache.probe(0)

    def test_install_counts_nothing(self):
        cache = SetAssociativeCache(1024, 64, 2)
        cache.install(0)
        assert cache.accesses == 0
        assert cache.probe(0)

    def test_install_refreshes_lru(self):
        cache = SetAssociativeCache(128, 64, 2)
        cache.install(0)
        cache.install(64)
        cache.install(0)        # refresh
        cache.install(128)      # evict 64
        assert cache.probe(0)
        assert not cache.probe(64)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(100, 64, 3)
        with pytest.raises(ValueError):
            SetAssociativeCache(32, 64, 2)

    def test_size_must_be_a_whole_number_of_sets(self):
        # 98,400 B is 768.75 lines: a whole line count would not be
        # enough, the size must hold a whole number of 16-way sets.
        with pytest.raises(ValueError, match="98400B / 128B lines / 16 ways"):
            SetAssociativeCache(98400, 128, 16)
        with pytest.raises(ValueError):
            SetAssociativeCache(192, 64, 2)  # 3 lines, 1.5 sets
        assert SetAssociativeCache(98304, 128, 16).num_sets == 48

    def test_invalidate_all(self):
        cache = SetAssociativeCache(1024, 64, 2)
        cache.access(0)
        cache.invalidate_all()
        assert not cache.probe(0)
        assert cache.accesses == 0

    def test_hit_rate(self):
        cache = SetAssociativeCache(1024, 64, 2)
        cache.access(0)
        cache.access(0)
        cache.access(0)
        assert cache.hit_rate == pytest.approx(2 / 3)
        assert SetAssociativeCache(1024, 64, 2).hit_rate == 0.0

    @given(
        st.lists(st.integers(min_value=0, max_value=63), max_size=200)
    )
    def test_occupancy_never_exceeds_ways(self, lines):
        cache = SetAssociativeCache(512, 64, 2)  # 4 sets x 2 ways
        for line in lines:
            cache.access(line * 64)
        for entries in cache._sets.values():
            assert len(entries) <= 2

    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=100))
    def test_hits_plus_misses_equals_accesses(self, lines):
        cache = SetAssociativeCache(512, 64, 2)
        for line in lines:
            cache.access(line * 64)
        assert cache.hits + cache.misses == len(lines)


class TestRandomReplacement:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(512, 64, 2, replacement="plru")

    def test_random_replacement_deterministic_per_seed(self):
        def resident_after_storm(seed):
            cache = SetAssociativeCache(
                512, 64, 2, replacement="random", seed=seed
            )
            for line in range(40):
                cache.access(line * 64)
            return [cache.probe(line * 64) for line in range(40)]

        assert resident_after_storm(3) == resident_after_storm(3)

    def test_random_replacement_can_evict_hot_lines(self):
        """The property the third-kernel noise study depends on: under
        streaming pressure, random replacement eventually displaces even
        a constantly-touched line, where true LRU never would."""
        def hot_line_survives(replacement):
            cache = SetAssociativeCache(
                128, 64, 2, replacement=replacement, seed=5
            )  # 1 set, 2 ways
            cache.install(0)
            for step in range(1, 200):
                cache.access(0)           # keep the hot line MRU
                cache.access(step * 64)   # streaming interferer
                if not cache.probe(0):
                    return False
            return True

        assert hot_line_survives("lru")
        assert not hot_line_survives("random")

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=150))
    def test_random_mode_occupancy_invariant(self, lines):
        cache = SetAssociativeCache(512, 64, 2, replacement="random")
        for line in lines:
            cache.access(line * 64)
        for entries in cache._sets.values():
            assert len(entries) <= 2


class _OrderedDictCache:
    """Reference model of the tag store with ``OrderedDict`` sets.

    Encodes the semantics the list-backed sets must keep: tag -> True in
    LRU order, a random victim found by an ``enumerate`` scan, an rng
    seeded at construction and reseeded by ``reset`` but kept running by
    ``invalidate_all``.
    """

    def __init__(self, size_bytes, line_bytes, ways, replacement, seed):
        self.line_bytes, self.ways = line_bytes, ways
        self.num_sets = size_bytes // (line_bytes * ways)
        self.replacement, self.seed = replacement, seed
        self.reset()

    def reset(self):
        self.invalidate_all()
        self.rng = (random.Random((self.seed << 8) ^ 0xCACE)
                    if self.replacement == "random" else None)

    def invalidate_all(self):
        self.sets, self.hits, self.misses = {}, 0, 0

    def _set(self, address):
        tag = address // self.line_bytes
        return tag, self.sets.setdefault(tag % self.num_sets, OrderedDict())

    def probe(self, address):
        tag, entries = self._set(address)
        return tag in entries

    def install(self, address):
        tag, entries = self._set(address)
        if tag in entries:
            entries.move_to_end(tag)
            return
        if len(entries) >= self.ways:
            if self.rng is None:
                entries.popitem(last=False)
            else:
                victim = self.rng.randrange(len(entries))
                del entries[next(k for i, k in enumerate(entries)
                                 if i == victim)]
        entries[tag] = True

    def access(self, address, allocate=True):
        tag, entries = self._set(address)
        if tag in entries:
            entries.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        if allocate:
            self.install(address)
        return False


_ADDRESSES = st.integers(min_value=0, max_value=4095)
_CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("access"), _ADDRESSES, st.booleans()),
        st.tuples(st.just("install"), _ADDRESSES),
        st.tuples(st.just("probe"), _ADDRESSES),
        st.tuples(st.just("invalidate_all")),
        st.tuples(st.just("reset")),
    ),
    max_size=300,
)


class TestMatchesOrderedDictModel:
    @given(
        geometry=st.sampled_from(
            [(64, 64, 1), (128, 64, 2), (512, 64, 2), (384, 32, 3),
             (1024, 64, 4)]
        ),
        replacement=st.sampled_from(["lru", "random"]),
        seed=st.integers(min_value=0, max_value=2**16),
        ops=_CACHE_OPS,
    )
    def test_victim_for_victim(self, geometry, replacement, seed, ops):
        cache = SetAssociativeCache(*geometry, replacement=replacement,
                                    seed=seed)
        model = _OrderedDictCache(*geometry, replacement, seed)
        for op in ops:
            name, args = op[0], op[1:]
            assert getattr(cache, name)(*args) == getattr(model, name)(*args)
            assert (cache.hits, cache.misses) == (model.hits, model.misses)
            assert cache._sets == {
                index: list(entries)
                for index, entries in model.sets.items() if entries
            }
            if cache._rng is not None:
                assert cache._rng.getstate() == model.rng.getstate()


class TestL1Cache:
    def make(self, enabled=True):
        return L1Cache(4096, 128, 4, hit_latency=28, enabled=enabled)

    def test_bypassed_l1_never_hits(self):
        """-dlcm=cg behaviour: every access goes to the interconnect."""
        l1 = self.make(enabled=False)
        l1.fill(0)
        assert not l1.lookup_read(0)

    def test_fill_then_hit(self):
        l1 = self.make()
        assert not l1.lookup_read(0)
        l1.fill(0)
        assert l1.lookup_read(0)

    def test_read_lookup_does_not_allocate(self):
        l1 = self.make()
        l1.lookup_read(256)
        assert not l1.lookup_read(256)

    def test_write_through_keeps_line_fresh(self):
        l1 = self.make()
        l1.fill(0)
        l1.note_write(0)
        assert l1.lookup_read(0)

    def test_write_to_absent_line_does_not_allocate(self):
        l1 = self.make()
        l1.note_write(512)
        assert not l1.lookup_read(512)

    def test_disabled_fill_is_noop(self):
        l1 = self.make(enabled=False)
        l1.fill(0)
        assert not l1.cache.probe(0)


def _materialised_sets(device):
    caches = [sm.l1.cache for sm in device.sms]
    caches += [l2.cache for l2 in device.l2_slices]
    return sum(len(cache._sets) for cache in caches)


class TestLazySets:
    """Tag-store sets are built on first touch, never up front."""

    def test_fresh_volta_device_builds_no_sets(self):
        GpuDevice(VOLTA_V100)  # first build pays the module imports
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            device = GpuDevice(VOLTA_V100)
            created = len(gc.get_objects()) - before
        finally:
            if enabled:
                gc.enable()
        assert _materialised_sets(device) == 0
        # 80 L1s + 48 L2 slices used to allocate 22,784 empty sets.
        assert created < 5_000

    def test_reset_returns_device_to_zero_sets(self):
        device = GpuDevice(VOLTA_V100)
        device.preload_region(0, 64 * 1024)
        device.sms[0].l1.cache.install(0)
        assert _materialised_sets(device) > 0
        device.engine.reset()
        assert _materialised_sets(device) == 0

    @pytest.mark.parametrize("replacement", ["lru", "random"])
    def test_untouched_and_invalidated_digest_equal(self, replacement):
        untouched = SetAssociativeCache(512, 64, 2, replacement=replacement)
        touched = SetAssociativeCache(512, 64, 2, replacement=replacement)
        for line in range(3):
            touched.install(line * 64)
        assert touched.state_digest() != untouched.state_digest()
        touched.invalidate_all()
        assert touched.state_digest() == untouched.state_digest()

    def test_digest_tracks_contents(self):
        a = SetAssociativeCache(128, 64, 2)  # 1 set, 2 ways
        b = SetAssociativeCache(128, 64, 2)
        a.install(0)
        a.install(64)
        b.install(64)
        b.install(0)
        assert a.state_digest() != b.state_digest()  # LRU order differs
        b.install(64)
        assert a.state_digest() == b.state_digest()

    def test_lookups_that_do_not_allocate_build_no_set(self):
        cache = SetAssociativeCache(1024, 64, 2)
        assert not cache.probe(0)
        assert not cache.access(64, allocate=False)
        assert cache._sets == {}
        cache.access(128)
        assert list(cache._sets) == [128 // 64 % cache.num_sets]

    def test_bypassed_l1_builds_no_set(self):
        l1 = L1Cache(4096, 128, 4, hit_latency=28, enabled=False)
        l1.lookup_read(0)
        l1.fill(0)
        l1.note_write(0)
        assert l1.cache._sets == {}

    def test_enabled_l1_joins_the_sm_digest(self):
        config = VOLTA_V100.replace(num_gpcs=1, tpcs_per_gpc=(1,))
        enabled = GpuDevice(config, l1_enabled=True).sms[0]
        before = enabled.state_digest()
        enabled.l1.fill(0)
        assert enabled.state_digest() != before
        bypassed = GpuDevice(config).sms[0]
        before = bypassed.state_digest()
        bypassed.l1.fill(0)
        assert bypassed.state_digest() == before

    def test_only_random_replacement_builds_an_rng(self):
        """An rng is built on the first random eviction, from the seed,
        and a reset drops it so the next eviction starts the stream over."""
        lru = SetAssociativeCache(128, 64, 2)
        for line in range(8):
            lru.install(line * 64)
        assert lru._rng is None

        ways, seed = 4, 7
        cache = SetAssociativeCache(
            64 * ways, 64, ways, replacement="random", seed=seed
        )  # 1 set
        stream = random.Random((seed << 8) ^ 0xCACE)
        resident = list(range(ways))
        expected = []
        for line in range(ways, ways + 20):
            expected.append(resident.pop(stream.randrange(len(resident))))
            resident.append(line)
        for _ in range(2):
            assert cache._rng is None
            for line in range(ways):
                cache.install(line * 64)
            assert cache._rng is None  # installs that evict nothing draw nothing
            victims = []
            for line in range(ways, ways + 20):
                before = list(cache._sets[0])
                cache.install(line * 64)
                victims += [tag for tag in before if tag not in cache._sets[0]]
            assert victims == expected
            assert cache._rng is not None
            cache.reset()

    def test_fresh_volta_device_holds_no_rng(self):
        """Only the clock system, which draws its skew offsets at build
        time, holds an rng; the 80 SM jitter and 48 L2 replacement rngs
        wait for their first draw."""
        GpuDevice(VOLTA_V100)  # first build pays the module imports
        gc.collect()
        before = {
            id(o) for o in gc.get_objects() if isinstance(o, random.Random)
        }
        device = GpuDevice(VOLTA_V100)
        built = [
            o for o in gc.get_objects()
            if isinstance(o, random.Random) and id(o) not in before
        ]
        assert built == [device.clocks._rng]
        assert all(sm._rng is None for sm in device.sms)
        assert all(l2.cache._rng is None for l2 in device.l2_slices)

    def test_reset_device_digests_like_a_fresh_one(self):
        config = small_config(timing_noise=16)
        assert config.l2_replacement == "random"
        device = GpuDevice(config)
        fresh = [c.state_digest() for c in device.engine.components]
        capacity = config.num_l2_slices * config.l2_slice_bytes
        device.preload_region(0, 2 * capacity)  # evicts at random
        device.launch(make_streaming_kernel(
            config, "read", ops=6, num_blocks=config.num_sms,
        ))
        device.run()
        assert all(l2.cache._rng is not None for l2 in device.l2_slices)
        assert any(sm._rng is not None for sm in device.sms)
        assert [c.state_digest() for c in device.engine.components] != fresh
        device.engine.reset()
        assert all(sm._rng is None for sm in device.sms)
        assert all(l2.cache._rng is None for l2 in device.l2_slices)
        assert [c.state_digest() for c in device.engine.components] == fresh
        assert [
            c.state_digest() for c in GpuDevice(config).engine.components
        ] == fresh


#: tracemalloc KB for a fresh Volta device plus the channels' 9,472-line
#: L2 preload on CPython 3.11: 2,721 with ``OrderedDict`` sets and eager
#: rngs, 1,541 with list sets and rngs built on first draw.  The bound is
#: the latter plus about 15%.
FOOTPRINT_BOUND_KB = 1_775


class TestFootprint:
    def test_preloaded_volta_device_fits_the_bound(self):
        GpuDevice(VOLTA_V100).preload_region(0, 9472 * 128)  # imports
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            device = GpuDevice(VOLTA_V100)
            device.preload_region(0, 9472 * 128)
            footprint_kb = (tracemalloc.get_traced_memory()[0] - before) / 1024
        finally:
            tracemalloc.stop()
        assert footprint_kb < FOOTPRINT_BOUND_KB
        caches = [sm.l1.cache for sm in device.sms]
        caches += [l2.cache for l2 in device.l2_slices]
        assert sum(len(cache._sets) for cache in caches) == 2304
        assert not any(
            isinstance(entries, OrderedDict)
            for cache in caches for entries in cache._sets.values()
        )
