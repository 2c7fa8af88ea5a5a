"""Unit tests for repro.config: topology maps and derived parameters."""

import dataclasses

import pytest

from repro.config import (
    ARBITRATION_POLICIES,
    ARCHITECTURES,
    ClockSkewModel,
    DramTiming,
    GpuConfig,
    VOLTA_V100,
    medium_config,
    small_config,
)


class TestVoltaDefaults:
    def test_table1_core_parameters(self):
        assert VOLTA_V100.core_clock_mhz == 1200
        assert VOLTA_V100.simt_width == 32
        assert VOLTA_V100.num_tpcs == 40
        assert VOLTA_V100.sms_per_tpc == 2
        assert VOLTA_V100.num_sms == 80

    def test_table1_memory_parameters(self):
        assert VOLTA_V100.num_l2_slices == 48
        assert VOLTA_V100.l2_slice_bytes == 96 * 1024
        assert VOLTA_V100.l1_size_bytes == 128 * 1024
        assert VOLTA_V100.num_memory_controllers == 24

    def test_table1_interconnect_parameters(self):
        assert VOLTA_V100.flit_bytes == 40
        assert VOLTA_V100.num_vcs == 1
        assert VOLTA_V100.num_subnets == 2

    def test_table1_dram_timings(self):
        dram = VOLTA_V100.dram
        assert dram.t_cl == 12
        assert dram.t_rp == 12
        assert dram.t_rc == 40
        assert dram.t_ras == 28
        assert dram.t_rcd == 12
        assert dram.t_rrd == 3

    def test_six_gpcs_with_two_disabled_tpcs(self):
        # V100: 4 GPCs of 7 TPCs + 2 GPCs of 6 TPCs = 40 (Section 3.3).
        assert VOLTA_V100.num_gpcs == 6
        assert sorted(VOLTA_V100.tpcs_per_gpc) == [6, 6, 7, 7, 7, 7]


class TestTopologyMaps:
    def test_tpc_interleaving_across_gpcs(self):
        mapping = VOLTA_V100.tpc_to_gpc_map()
        # The first num_gpcs TPCs land on distinct GPCs in order.
        assert mapping[:6] == [0, 1, 2, 3, 4, 5]
        # And the next round repeats while capacity remains.
        assert mapping[6:12] == [0, 1, 2, 3, 4, 5]

    def test_small_gpcs_skip_penultimate_round(self):
        members = VOLTA_V100.gpc_members()
        # GPC4/5 hold 6 TPCs; GPC0..3 hold 7.
        assert [len(members[g]) for g in range(6)] == [7, 7, 7, 7, 6, 6]
        # The paper's Figure 4 detail: GPC5 ends with TPC 39 (not 35,
        # which lands in GPC1) — the interleave is imperfect at the tail.
        assert members[5] == [5, 11, 17, 23, 29, 39]
        assert 35 in members[1]
        assert members[4] == [4, 10, 16, 22, 28, 38]

    def test_gpc_members_partition_all_tpcs(self):
        members = VOLTA_V100.gpc_members()
        seen = sorted(tpc for tpcs in members.values() for tpc in tpcs)
        assert seen == list(range(40))

    def test_sm_to_tpc_pairs_consecutive(self):
        for tpc in range(VOLTA_V100.num_tpcs):
            assert VOLTA_V100.tpc_sms(tpc) == [2 * tpc, 2 * tpc + 1]
        assert VOLTA_V100.sm_to_tpc(0) == 0
        assert VOLTA_V100.sm_to_tpc(1) == 0
        assert VOLTA_V100.sm_to_tpc(79) == 39

    def test_sm_to_gpc_consistent_with_tpc_map(self):
        mapping = VOLTA_V100.tpc_to_gpc_map()
        for sm in range(VOLTA_V100.num_sms):
            assert VOLTA_V100.sm_to_gpc(sm) == mapping[sm // 2]

    def test_sm_bounds_checked(self):
        with pytest.raises(ValueError):
            VOLTA_V100.sm_to_tpc(80)
        with pytest.raises(ValueError):
            VOLTA_V100.sm_to_tpc(-1)
        with pytest.raises(ValueError):
            VOLTA_V100.tpc_sms(40)


class TestValidation:
    def test_mismatched_tpcs_per_gpc_rejected(self):
        with pytest.raises(ValueError):
            GpuConfig(num_gpcs=3, tpcs_per_gpc=(2, 2))

    def test_unknown_arbitration_rejected(self):
        with pytest.raises(ValueError):
            GpuConfig(arbitration="lottery")

    def test_all_registered_policies_accepted(self):
        for policy in ARBITRATION_POLICIES:
            assert GpuConfig(arbitration=policy).arbitration == policy

    @pytest.mark.parametrize("field,value", [
        ("l2_slice_bytes", 98400),  # 48.05 sets of 16 x 128 B
        ("l2_slice_bytes", 0),
        ("l2_ways", 0),
        ("l1_size_bytes", 100_000),
        ("l1_line_bytes", 96),  # 128 KB is not whole 4 x 96 B sets
    ])
    def test_cache_geometry_must_be_whole_sets(self, field, value):
        level = field[:2].upper()
        with pytest.raises(ValueError, match=f"invalid {level} cache geometry"):
            small_config(**{field: value})

    def test_every_shipped_preset_constructs(self):
        presets = [*ARCHITECTURES.values(), small_config(), medium_config()]
        for preset in presets:
            assert dataclasses.replace(preset) == preset


class TestDerived:
    def test_cycles_to_seconds(self):
        assert VOLTA_V100.cycles_to_seconds(1_200_000_000) == pytest.approx(1.0)

    def test_replace_returns_modified_copy(self):
        changed = VOLTA_V100.replace(arbitration="srr")
        assert changed.arbitration == "srr"
        assert VOLTA_V100.arbitration == "rr"

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            VOLTA_V100.arbitration = "srr"  # type: ignore[misc]

    def test_address_to_slice_line_interleaved(self):
        line = VOLTA_V100.l2_line_bytes
        assert VOLTA_V100.address_to_slice(0) == 0
        assert VOLTA_V100.address_to_slice(line) == 1
        assert VOLTA_V100.address_to_slice(line * 48) == 0
        # Within one line, same slice.
        assert VOLTA_V100.address_to_slice(line - 1) == 0

    def test_dram_latency_ordering(self):
        dram = DramTiming()
        assert dram.row_hit_latency < dram.row_miss_latency
        assert dram.row_miss_latency <= dram.row_conflict_latency


class TestScaledConfigs:
    def test_small_config_topology(self):
        cfg = small_config()
        assert cfg.num_tpcs == 4
        assert cfg.num_sms == 8
        assert cfg.num_gpcs == 2

    def test_small_config_overrides(self):
        cfg = small_config(arbitration="srr", timing_noise=0)
        assert cfg.arbitration == "srr"
        assert cfg.timing_noise == 0

    def test_medium_config_topology(self):
        cfg = medium_config()
        assert cfg.num_tpcs == 9
        assert cfg.num_sms == 18
        assert [len(v) for v in cfg.gpc_members().values()] == [5, 4]

    def test_clock_skew_model_defaults(self):
        skew = ClockSkewModel()
        assert skew.sm_jitter < skew.tpc_jitter
        assert skew.gpc_base_max > skew.gpc_base_min
