"""Unit and property tests for the cache models."""

import gc

import pytest
from hypothesis import given, strategies as st

from repro.config import VOLTA_V100
from repro.gpu.caches import L1Cache, SetAssociativeCache
from repro.gpu.device import GpuDevice


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
        assert SetAssociativeCache(512, 64, 2)._rng is None
        cache = SetAssociativeCache(512, 64, 2, replacement="random")
        assert cache._rng is not None
        cache.reset()
        assert cache._rng is not None
