"""Every queue wakes the consumer its pipeline position implies.

Components register with the queues around them in their own
constructors, and that registration is the only wake wiring (see
``repro.noc.buffer``).  These tests rebuild the expected consumer of
every queue from the device and fabric topology and compare it with
what the queues hold, so a component that forgets to register (and
would then never be woken) fails here before any run times out.
"""

import pytest

from repro.config import LinkConfig, VOLTA_V100, small_config
from repro.gpu.device import GpuDevice
from repro.interconnect import MultiGpuSystem
from repro.noc.buffer import PacketQueue


def _device_consumers(device):
    """``{id(queue): (queue, consumer, port)}`` from the device layout."""
    config = device.config
    members = config.gpc_members()
    expected = {}

    def expect(queue, consumer, port=None):
        assert id(queue) not in expected, f"{queue.name} listed twice"
        expected[id(queue)] = (queue, consumer, port)

    for tpc, mux in enumerate(device.tpc_muxes):
        for port, sm in enumerate(config.tpc_sms(tpc)):
            expect(device.inject_queues[sm], mux, port)
    for gpc, mux in enumerate(device.gpc_muxes):
        for port, tpc in enumerate(members[gpc]):
            expect(device.tpc_queues[tpc], mux, port)
    for port, queue in enumerate(device.gpc_queues):
        expect(queue, device.request_xbar, port)
    for l2_slice, queue in zip(device.l2_slices, device.l2_request_queues):
        expect(queue, l2_slice)
    for s, voqs in enumerate(device.l2_reply_voqs):
        if config.reply_voq:
            for gpc in range(config.num_gpcs):
                expect(voqs[gpc], device.reply_muxes[gpc], s)
        else:
            expect(voqs[0], device.reply_muxes[0], s)
        if device.remote_reply_mux is not None:
            expect(voqs[device._remote_voq_index], device.remote_reply_mux, s)
    for distributor, queue in zip(device.reply_distributors,
                                  device.gpc_reply_queues):
        expect(queue, distributor)
    return expected


def _system_consumers(system):
    expected = {}
    for device in system.devices:
        expected.update(_device_consumers(device))
    topo = system.topology
    for edge, pipe in zip(topo.links, system.link_pipes):
        expected[id(system._tx[edge])] = (system._tx[edge], pipe, None)
    for node, router in enumerate(system.routers):
        inputs = []
        if node < topo.num_devices:
            device = system.devices[node]
            inputs += [device.fabric_inject, device.fabric_reply]
        inputs += [system._rx[e] for e in topo.links if e[1] == node]
        for port, queue in enumerate(inputs):
            expected[id(queue)] = (queue, router, port)
    for ingress, queue in zip(system.ingress, system.delivery_queues):
        expected[id(queue)] = (queue, ingress, None)
    return expected


def _queues_of(engine):
    """Every PacketQueue any registered component holds."""
    found = {}

    def collect(value):
        if isinstance(value, PacketQueue):
            found[id(value)] = value
        elif isinstance(value, (list, tuple)):
            for item in value:
                collect(item)

    for component in engine.components:
        for value in vars(component).values():
            collect(value)
    return found


def _assert_wiring(engine, expected):
    assert set(_queues_of(engine)) == set(expected)
    for queue, consumer, port in expected.values():
        assert queue._consumer is consumer, queue.name
        assert consumer._engine is engine, consumer.name
        if port is None:
            assert queue._switch is None, queue.name
        else:
            assert (queue._switch, queue._port) == (consumer, port), queue.name


@pytest.mark.parametrize("config", [
    small_config(),
    small_config(reply_voq=False, engine_strategy="naive"),
    VOLTA_V100,
], ids=["small", "small-single-fifo-naive", "volta"])
def test_every_device_queue_wakes_its_pipeline_consumer(config):
    device = GpuDevice(config)
    _assert_wiring(device.engine, _device_consumers(device))
    for sm in device.sms:
        assert sm.inject_queue._producer is sm
        assert sm.inject_queue._more_producers == ()
        assert sm.on_warp_done == device.scheduler.wake


def test_every_fabric_queue_wakes_its_pipeline_consumer():
    system = MultiGpuSystem(
        small_config(), LinkConfig(num_devices=3, topology="full")
    )
    _assert_wiring(system.engine, _system_consumers(system))
    for device in system.devices:
        # Every SM of a device shares its fabric egress queue.
        queue = device.fabric_inject
        assert (queue._producer, *queue._more_producers) == tuple(device.sms)
