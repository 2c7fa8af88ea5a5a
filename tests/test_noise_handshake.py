"""Tests for the Section-5 noise study and the handshake sync fallback."""

import random

import pytest

from repro.config import small_config
from repro.channel.handshake import (
    DEFAULT_PREAMBLE,
    HandshakeTpcChannel,
    fit_preamble,
    decode_waveform,
    waveform_timeline,
)
from repro.channel.noise import InterferedTpcChannel, run_noise_study
from repro.channel.tpc_channel import TpcCovertChannel


def random_bits(count, seed=4):
    rng = random.Random(seed)
    return [rng.randint(0, 1) for _ in range(count)]


class TestNoiseStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_noise_study(
            small_config(),
            footprint_fractions=(0.0, 0.05, 2.0),
            payload_bits=32,
            channels=[0, 1],
        )

    def test_no_interferer_is_clean(self, study):
        assert study[0].error_rate <= 0.05

    def test_small_interferer_tolerated(self, study):
        """A small-footprint third kernel only adds bandwidth noise."""
        assert study[1].error_rate <= 0.15

    def test_l2_thrashing_degrades_channel(self, study):
        """The paper's infeasibility point: an L2-scale third kernel
        pushes channel traffic to DRAM and the noise dominates."""
        assert study[2].error_rate > study[0].error_rate
        assert study[2].error_rate > 0.1

    def test_occupying_all_tpcs_excludes_interferer(self):
        """The attacker's own mitigation: claim every TPC (Section 5)."""
        config = small_config()
        channel = InterferedTpcChannel(
            config,
            channels=list(range(config.num_tpcs)),
            interferer_footprint_bytes=1 << 20,
        )
        assert channel._interferer_kernel() is None
        channel.calibrate()
        result = channel.transmit(random_bits(24))
        assert result.error_rate <= 0.1


class TestWaveformTools:
    def test_timeline_is_cumulative_midpoints(self):
        assert waveform_timeline([10, 20, 30]) == [5.0, 20.0, 45.0]

    @staticmethod
    def _synthetic_wave(symbols, slot, start, low=100.0, high=160.0,
                        total_time=None):
        """Back-to-back probe durations over a symbol schedule.

        A sample's *value is its duration*, so the waveform is built by
        walking wall time: probes inside a '1' slot take ``high`` cycles,
        everything else ``low``.
        """
        wave = []
        now = 0.0
        total = total_time or (start + slot * (len(symbols) + 4))
        while now < total:
            index = int((now - start) // slot) if now >= start else -1
            contended = 0 <= index < len(symbols) and symbols[index]
            duration = high if contended else low
            wave.append(duration)
            now += duration
        return wave

    def test_fit_preamble_locates_known_offset(self):
        slot = 400
        start = 800
        preamble = list(DEFAULT_PREAMBLE)
        wave = self._synthetic_wave(preamble, slot, start)
        fit = fit_preamble(wave, preamble, slot, payload_symbols=0)
        assert fit.score > 0
        assert abs(fit.offset_cycles - start) <= slot / 2

    def test_decode_waveform_recovers_payload(self):
        slot = 400
        preamble = list(DEFAULT_PREAMBLE)
        payload = [1, 0, 1, 1, 0]
        frame = preamble + payload
        wave = self._synthetic_wave(frame, slot, start=400)
        fit = fit_preamble(wave, preamble, slot, len(payload))
        decoded = decode_waveform(
            wave, fit, len(preamble), len(payload), slot, threshold=130.0
        )
        assert decoded == payload


class TestHandshakeChannel:
    @pytest.fixture(scope="class")
    def fuzzed_config(self):
        # Fuzz large enough to defeat the clock-synchronized channel.
        return small_config(clock_fuzz=8192)

    def test_clocked_channel_breaks_under_fuzz(self, fuzzed_config):
        channel = TpcCovertChannel(fuzzed_config)
        channel.calibrate()
        result = channel.transmit(random_bits(24))
        assert result.error_rate > 0.2

    def test_handshake_channel_survives_fuzz(self, fuzzed_config):
        """Section 6: clock fuzzing does not remove the channel because
        handshake-style synchronization remains available."""
        channel = HandshakeTpcChannel(fuzzed_config)
        channel.calibrate()
        result = channel.transmit(random_bits(24))
        assert result.error_rate <= 0.15

    def test_handshake_works_without_fuzz_too(self):
        channel = HandshakeTpcChannel(small_config())
        channel.calibrate()
        result = channel.transmit(random_bits(24))
        assert result.error_rate <= 0.15

    def test_preamble_needs_both_symbols(self):
        with pytest.raises(ValueError):
            HandshakeTpcChannel(small_config(), preamble=(1, 1, 1))

    def test_empty_payload_rejected(self):
        channel = HandshakeTpcChannel(small_config())
        with pytest.raises(ValueError):
            channel.transmit([])


class TestMpsMode:
    def test_launch_skew_tolerated_with_wide_initial_mask(self):
        from repro.channel.protocol import ChannelParams

        params = ChannelParams(initial_sync_mask=(1 << 16) - 1)
        bits = random_bits(24)
        for skew in (1000, 10000):
            channel = TpcCovertChannel(small_config(), params=params)
            channel.mps_launch_skew = skew
            channel.calibrate()
            result = channel.transmit(bits)
            assert result.error_rate <= 0.05, skew

    def test_zero_skew_is_stream_mode(self):
        channel = TpcCovertChannel(small_config())
        assert channel.mps_launch_skew == 0
