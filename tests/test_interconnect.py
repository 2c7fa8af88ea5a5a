"""Multi-GPU fabric tests: topology, link timing, determinism, lockstep.

The determinism tests mirror the single-device oracle suite
(``test_validate_oracle.py``) at system scope: a 2-device ring must be
bit-identical after ``reset()`` and digest-identical across all engine
strategies under a bidirectional remote-traffic stimulus.
"""

import pytest

from repro.config import LinkConfig, small_config
from repro.channel.link_channel import LinkCovertChannel
from repro.gpu.coalescer import lane_addresses_uncoalesced
from repro.gpu.kernel import Kernel
from repro.gpu.warp import MemOp, READ, WRITE
from repro.interconnect import (
    FabricTopology,
    MultiGpuSystem,
    build_topology,
)
from repro.validate import verify_equivalence


def quiet_cfg(**overrides):
    return small_config(timing_noise=0, **overrides)


def remote_program(context):
    """Stream ``ops`` accesses at ``device``'s L2 over the fabric."""
    args = context.args
    line = 64
    base = args["base"] + context.warp_id * args["ops"] * 32 * line
    latencies = args.get("latencies")
    for op in range(args["ops"]):
        addresses = lane_addresses_uncoalesced(
            base + op * 32 * line, line, 32
        )
        latency = yield MemOp(
            args["kind"], addresses,
            wait_for_completion=args.get("wait"),
            device=args["device"],
        )
        if latencies is not None:
            latencies.append(latency)


def remote_kernel(kind, device, ops=4, base=0, warps=1, wait=None,
                  latencies=None):
    return Kernel(
        remote_program,
        num_blocks=1,
        warps_per_block=warps,
        args={
            "kind": kind, "ops": ops, "base": base,
            "device": device, "wait": wait, "latencies": latencies,
        },
        name=f"remote-{kind}",
    )


class TestTopology:
    def test_ring_two_devices(self):
        topo = build_topology(LinkConfig(num_devices=2, topology="ring"))
        assert topo.num_devices == 2
        assert topo.num_nodes == 2
        assert topo.next_hop[0][1] == 1
        assert topo.next_hop[1][0] == 0
        assert topo.next_hop[0][0] == -1  # local: no hop

    def test_ring_shortest_direction(self):
        topo = build_topology(LinkConfig(num_devices=4, topology="ring"))
        # 0 -> 1 goes clockwise, 0 -> 3 counter-clockwise.
        assert topo.next_hop[0][1] == 1
        assert topo.next_hop[0][3] == 3
        # Opposite corner: either direction is 2 hops; the tie breaks
        # clockwise so routing stays deterministic.
        assert topo.next_hop[0][2] == 1

    def test_full_is_single_hop(self):
        topo = build_topology(LinkConfig(num_devices=4, topology="full"))
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    assert topo.next_hop[src][dst] == dst

    def test_switch_routes_through_hub(self):
        topo = build_topology(LinkConfig(num_devices=3, topology="switch"))
        hub = 3  # one extra node: the switch
        assert topo.num_nodes == 4
        assert topo.switch_nodes == (hub,)
        for src in range(3):
            for dst in range(3):
                if src != dst:
                    assert topo.next_hop[src][dst] == hub
            assert topo.next_hop[hub][src] == src

    def test_single_device_degenerates(self):
        topo = build_topology(LinkConfig(num_devices=1))
        assert isinstance(topo, FabricTopology)
        assert topo.num_nodes == 1
        assert topo.links == ()


class TestRemotePath:
    def test_remote_read_slower_than_local(self):
        system = MultiGpuSystem(quiet_cfg(), LinkConfig(num_devices=2))
        system.devices[1].preload_region(0, 1 << 16)
        system.devices[0].preload_region(0, 1 << 16)
        remote, local = [], []
        k_remote = remote_kernel(READ, 1, latencies=remote)
        k_local = remote_kernel(READ, None, latencies=local)
        system.devices[0].launch(k_remote)
        system.engine.run_until(
            lambda: k_remote.done, max_cycles=200_000, check_every=16
        )
        system.devices[0].launch(k_local)
        system.engine.run_until(
            lambda: k_local.done, max_cycles=200_000, check_every=16
        )
        # The remote trip pays two link serializations + flight latency.
        assert min(remote) > max(local) + 2 * 150

    def test_switch_pays_two_hops(self):
        def mean_latency(topology, devices):
            system = MultiGpuSystem(
                quiet_cfg(), LinkConfig(num_devices=devices,
                                        topology=topology),
            )
            system.devices[1].preload_region(0, 1 << 16)
            latencies = []
            kernel = remote_kernel(READ, 1, latencies=latencies)
            system.devices[0].launch(kernel)
            system.engine.run_until(
                lambda: kernel.done, max_cycles=400_000, check_every=16
            )
            return sum(latencies) / len(latencies)

        direct = mean_latency("ring", 2)
        hubbed = mean_latency("switch", 2)
        # Device -> hub -> device: roughly double the link latency.
        assert hubbed > direct + 100

    def test_posted_remote_writes_complete(self):
        system = MultiGpuSystem(quiet_cfg(), LinkConfig(num_devices=2))
        system.devices[1].preload_region(0, 1 << 16)
        kernel = remote_kernel(WRITE, 1, ops=8, wait=False)
        system.devices[0].launch(kernel)
        system.engine.run_until(
            lambda: kernel.done and system.all_idle,
            max_cycles=400_000, check_every=16,
        )
        assert kernel.done
        assert system.all_idle


class TestLinkBufferDepth:
    """A link buffer counts flits and takes whole packets, so one smaller
    than the largest fabric packet would hold that packet forever."""

    def test_depth_below_largest_packet_is_refused(self):
        config = quiet_cfg()
        largest = max(config.read_request_flits, config.write_request_flits,
                      config.read_reply_flits, config.write_reply_flits)
        with pytest.raises(ValueError) as excinfo:
            MultiGpuSystem(
                config,
                LinkConfig(num_devices=2, link_buffer_depth=largest - 1),
            )
        message = str(excinfo.value)
        assert f"link_buffer_depth {largest - 1}" in message
        assert f"({largest} flits)" in message

    @pytest.mark.parametrize("kind", [WRITE, READ])
    def test_depth_equal_to_largest_packet_drains(self, kind):
        config = quiet_cfg()
        largest = max(config.read_request_flits, config.write_request_flits,
                      config.read_reply_flits, config.write_reply_flits)
        system = MultiGpuSystem(
            config, LinkConfig(num_devices=2, link_buffer_depth=largest)
        )
        system.devices[1].preload_region(0, 1 << 16)
        kernel = remote_kernel(kind, 1, ops=2, wait=kind == READ)
        system.devices[0].launch(kernel)
        queues = [system.devices[0].fabric_inject,
                  system.devices[1].fabric_reply,
                  *system._tx.values(), *system._rx.values(),
                  *system.delivery_queues]
        system.engine.run_until(
            lambda: kernel.done and not any(queues),
            max_cycles=20_000, check_every=16,
        )
        assert kernel.done


def bidirectional_stimulus(system):
    """Remote traffic both ways plus local background on device 0."""
    system.devices[0].preload_region(0, 1 << 16)
    system.devices[1].preload_region(0, 1 << 16)
    system.devices[0].launch(
        remote_kernel(WRITE, 1, ops=6, warps=2, wait=False)
    )
    system.devices[0].launch(
        remote_kernel(READ, 1, ops=4, base=1 << 12)
    )
    system.devices[1].launch(
        remote_kernel(READ, 0, ops=4, base=1 << 13)
    )


def three_device_stimulus(system):
    """Bidirectional traffic plus device 2 writing to 0 and read by 1."""
    bidirectional_stimulus(system)
    system.devices[2].preload_region(0, 1 << 16)
    system.devices[2].launch(
        remote_kernel(WRITE, 0, ops=6, warps=2, wait=False, base=1 << 14)
    )
    system.devices[1].launch(
        remote_kernel(READ, 2, ops=4, base=1 << 14)
    )


#: The smallest link buffer a 4-flit write fits in: every RX holds one
#: write at a time, so links credit-stall and routers park behind them.
#: A short flight time keeps the naive reference run small.
_STALL_LINK = dict(num_devices=3, link_buffer_depth=4, link_latency=20)


class TestMultiDeviceDeterminism:
    def _digests(self, system):
        return [
            (component.name, component.state_digest())
            for component in system.engine.components
            if component.state_digest() is not None
        ]

    def test_reset_bit_identity(self):
        """Run, reset, run again: cycle counts and digests identical."""
        system = MultiGpuSystem(quiet_cfg(), LinkConfig(num_devices=2))

        def run_once():
            bidirectional_stimulus(system)
            system.run(max_cycles=400_000)
            assert system.all_idle
            return system.cycle, self._digests(system)

        first_cycle, first_digests = run_once()
        system.reset()
        assert system.cycle == 0
        assert system.all_idle
        second_cycle, second_digests = run_once()
        assert second_cycle == first_cycle
        assert second_digests == first_digests

    @pytest.mark.parametrize("topology", ["ring", "full", "switch"])
    def test_lockstep_naive_vs_active(self, topology):
        assert verify_equivalence(
            quiet_cfg(),
            bidirectional_stimulus,
            strategies=("naive", "active"),
            builder=lambda config: MultiGpuSystem(
                config, LinkConfig(num_devices=2, topology=topology),
            ),
            max_cycles=100_000,
        ) is None

    @pytest.mark.parametrize("topology", ["full", "switch"])
    def test_lockstep_with_credit_stalls(self, topology):
        link = LinkConfig(topology=topology, **_STALL_LINK)
        assert verify_equivalence(
            quiet_cfg(),
            three_device_stimulus,
            strategies=("naive", "active"),
            builder=lambda config: MultiGpuSystem(config, link),
            max_cycles=200_000,
        ) is None

    def test_credit_stalls_park_links_and_routers(self):
        """The stall case really parks: pipes stall and routers block."""
        system = MultiGpuSystem(
            quiet_cfg(), LinkConfig(topology="switch", **_STALL_LINK)
        )
        assert all(router._sparse for router in system.routers)
        three_device_stimulus(system)
        stalled_pipes = blocked_routers = 0
        while not system.all_idle:
            system.engine.step(1)
            stalled_pipes += sum(pipe._blocked for pipe in system.link_pipes)
            blocked_routers += sum(
                router._blocked
                and router._engine_index not in system.engine._active
                for router in system.routers
            )
        assert stalled_pipes and blocked_routers

    def test_link_channel_naive_vs_active(self):
        """Calibrate + transmit: identical cycles, symbols, measurements."""

        def run(strategy):
            channel = LinkCovertChannel(
                small_config(engine_strategy=strategy), seed_salt=3
            )
            threshold = channel.calibrate(training_symbols=4)
            result = channel.transmit([1, 0, 0, 1])
            return (threshold, result.cycles, result.received_symbols,
                    result.measurements)

        assert run("naive") == run("active")


class TestLinkChannel:
    def test_transmits_with_low_error(self):
        channel = LinkCovertChannel(quiet_cfg(), seed_salt=7)
        channel.calibrate(training_symbols=8)
        result = channel.transmit([1, 0, 1, 1, 0, 0, 1, 0])
        assert result.error_rate < 0.5
        assert result.bandwidth_bps > 0

    def test_rejects_unreachable_target(self):
        with pytest.raises(ValueError):
            LinkCovertChannel(quiet_cfg(), target_device=0)
        with pytest.raises(ValueError):
            LinkCovertChannel(
                quiet_cfg(), LinkConfig(num_devices=2), target_device=2
            )
