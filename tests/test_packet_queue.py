"""Unit tests for PacketQueue flit accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.config import small_config
from repro.gpu.sm import StreamingMultiprocessor
from repro.interconnect.link import LinkPipe
from repro.noc.arbiter import make_policy
from repro.noc.buffer import PacketQueue
from repro.noc.crossbar import Crossbar
from repro.noc.mux import Mux
from repro.noc.packet import Packet, READ
from repro.sim.engine import FOREVER, Component, Engine


def make_packet(flits=1, uid_kind=READ):
    return Packet(kind=uid_kind, address=0, flits=flits, src_sm=0, slice_id=0)


class TestBasics:
    def test_push_pop_fifo_order(self):
        queue = PacketQueue("q", 16)
        first = make_packet(2)
        second = make_packet(3)
        assert queue.push(first)
        assert queue.push(second)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_capacity_enforced_in_flits(self):
        queue = PacketQueue("q", 4)
        assert queue.push(make_packet(3))
        assert not queue.push(make_packet(2))  # 3 + 2 > 4
        assert queue.push(make_packet(1))

    def test_head_peeks_without_removal(self):
        queue = PacketQueue("q", 8)
        packet = make_packet()
        queue.push(packet)
        assert queue.head() is packet
        assert len(queue) == 1

    def test_empty_head_is_none(self):
        assert PacketQueue("q", 4).head() is None

    def test_bool_and_len(self):
        queue = PacketQueue("q", 8)
        assert not queue
        queue.push(make_packet())
        assert queue
        assert len(queue) == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PacketQueue("q", 0)


class TestReservations:
    def test_reserve_blocks_other_traffic(self):
        queue = PacketQueue("q", 4)
        queue.reserve(3)
        assert not queue.can_reserve(2)
        assert queue.can_reserve(1)

    def test_commit_consumes_reservation(self):
        queue = PacketQueue("q", 4)
        packet = make_packet(3)
        queue.reserve(3)
        queue.commit(packet)
        assert queue.used_flits == 3
        assert queue.free_flits == 1

    def test_commit_without_reservation_raises(self):
        queue = PacketQueue("q", 4)
        with pytest.raises(RuntimeError):
            queue.commit(make_packet(2))

    def test_over_reserve_raises(self):
        queue = PacketQueue("q", 4)
        with pytest.raises(OverflowError):
            queue.reserve(5)

    def test_pop_releases_space(self):
        queue = PacketQueue("q", 4)
        queue.push(make_packet(4))
        assert queue.free_flits == 0
        queue.pop()
        assert queue.free_flits == 4

    def test_clear_resets_everything(self):
        queue = PacketQueue("q", 8)
        queue.push(make_packet(2))
        queue.reserve(3)
        queue.clear()
        assert queue.free_flits == 8
        assert not queue


class TestConsumer:
    """The one component a commit wakes; a switch also tracks heads."""

    def _mux(self, name, inputs):
        return Mux(name, inputs, PacketQueue(f"{name}.out", 16), width=1,
                   policy=make_policy("rr", len(inputs)))

    def test_second_consumer_rejected(self):
        shared = PacketQueue("shared", 8)
        first = self._mux("first", [PacketQueue("other", 8), shared])
        with pytest.raises(ValueError, match="first port 1"):
            self._mux("second", [shared])
        with pytest.raises(ValueError):
            Crossbar("x", [shared], [PacketQueue("out", 8)],
                     route=lambda packet: 0, width=1)
        # The rejected registrations left the first consumer in charge.
        shared.push(make_packet(2))
        assert first._live == [1]
        assert first._heads == [None, shared.head()]

    def test_head_changes_reach_the_consumer(self):
        queues = [PacketQueue(f"in{i}", 16) for i in range(3)]
        mux = self._mux("m", queues)
        small, big = make_packet(1), make_packet(5)
        queues[2].push(small)
        queues[2].push(big)
        queues[0].push(make_packet(2))
        assert mux._live == [0, 2]
        assert mux._heads[2] is small and mux._max_flits == 2
        queues[2].pop()
        assert mux._heads[2] is big and mux._max_flits == 5
        queues[2].pop()
        assert mux._live == [0] and mux._heads[2] is None
        queues[0].clear()
        assert mux._live == [] and mux._heads == [None, None, None]

    def test_commit_wakes_a_portless_consumer(self):
        queue = PacketQueue("q", 8)
        consumer = _ReactiveComponent()
        queue.attach_consumer(consumer)
        queue.push(make_packet(2))  # no engine yet: nothing to wake
        engine = Engine([consumer], strategy="active")
        index = consumer._engine_index
        engine.step(1)
        assert index not in engine._active
        queue.push(make_packet(2))
        assert index in engine._active
        engine.step(1)
        queue.reserve(2)
        assert index not in engine._active
        queue.commit(make_packet(2))
        assert index in engine._active
        engine.step(1)
        queue.pop()  # a pop frees space: it wakes producers, not consumers
        queue.clear()
        assert index not in engine._active
        assert consumer.ticks == [0, 1, 2]
        with pytest.raises(ValueError, match="consumed by reactive$"):
            queue.attach_consumer(_StubComponent())

    def test_consumer_built_over_nonempty_queues(self):
        queue = PacketQueue("q", 8)
        packet = make_packet(3)
        queue.push(packet)
        mux = self._mux("m", [PacketQueue("idle", 8), queue])
        assert mux._live == [1]
        assert mux._heads == [None, packet]
        assert mux._max_flits == 3


def _mux_into(output, policy="rr", num_inputs=1):
    inputs = [PacketQueue(f"mux.in{i}", 8) for i in range(num_inputs)]
    return Mux("mux", inputs, output, width=1,
               policy=make_policy(policy, num_inputs))


def _crossbar_into(output):
    return Crossbar("xbar", [PacketQueue("xbar.in", 8)],
                    [PacketQueue("xbar.out0", 8), output],
                    route=lambda packet: 1, width=1)


def _sm_into(output):
    return StreamingMultiprocessor(0, small_config(), output,
                                   read_clock=lambda sm: 0)


def _pipe_into(output):
    return LinkPipe("pipe", PacketQueue("pipe.tx", 8), output,
                    width=1, latency=1)


class _ReactiveComponent(Component):
    """Parks after every tick until its input queue wakes it."""

    name = "reactive"

    def __init__(self):
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)
        self._until = FOREVER


class _StubComponent:
    name = "stub"

    def __init__(self):
        self._blocked = False
        self.wakes = 0

    def wake(self):
        self.wakes += 1


class TestProducer:
    """The components a queue wakes when a pop frees space."""

    @pytest.mark.parametrize("build", [
        _mux_into, _crossbar_into, _sm_into, _pipe_into,
    ], ids=["mux", "crossbar", "sm", "link-pipe"])
    def test_producers_register_in_build_order(self, build):
        shared = PacketQueue("shared", 8)
        first = build(shared)
        second = build(shared)
        assert shared._producer is first
        assert shared._more_producers == (second,)

    def test_pop_wakes_only_blocked_producers(self):
        queue = PacketQueue("q", 8)
        first, second = _StubComponent(), _StubComponent()
        queue.attach_producer(first)
        queue.attach_producer(second)
        for _ in range(3):
            queue.push(make_packet(2))
        queue.pop()
        assert first.wakes == second.wakes == 0
        second._blocked = True
        queue.pop()
        assert (first.wakes, second.wakes) == (0, 1)
        assert not second._blocked
        queue.pop()  # the flag was cleared: no second wake
        assert (first.wakes, second.wakes) == (0, 1)

    @pytest.mark.parametrize("build", [_mux_into, _crossbar_into],
                             ids=["mux", "crossbar"])
    def test_blocked_switch_parks_until_output_pops(self, build):
        output = PacketQueue("out", 4)
        switch = build(output)
        switch._sparse = True
        (queue,) = switch.inputs
        engine = Engine([switch], strategy="active")
        output.push(make_packet(3))  # one free flit left
        queue.push(make_packet(2))
        engine.step(1)
        assert switch._blocked
        assert switch._until == FOREVER
        assert switch._engine_index not in engine._active
        engine.step(10)  # parked: no retry ticks
        assert engine.ticks_executed == 1 and len(queue) == 1
        output.pop()
        assert switch._engine_index in engine._active
        assert not switch._blocked
        engine.step(2)  # two flits at width 1
        assert not queue and len(output) == 1
        assert engine.ticks_executed == 3

    def test_srr_slot_wait_is_not_blocked(self):
        # The head fits, but cycle 0 belongs to port 0's SRR slot: the mux
        # must keep ticking until port 1's slot comes round.
        mux = _mux_into(PacketQueue("out", 8), policy="srr", num_inputs=2)
        mux._sparse = True
        engine = Engine([mux], strategy="active")
        mux.inputs[1].push(make_packet(1))
        engine.step(1)
        assert not mux._blocked and mux._until is None
        engine.step(1)
        assert not mux.inputs[1] and len(mux.output) == 1


class TestInvariants:
    @given(st.lists(st.integers(min_value=1, max_value=5), max_size=30))
    def test_occupancy_never_exceeds_capacity(self, sizes):
        queue = PacketQueue("q", 10)
        accepted = []
        for flits in sizes:
            if queue.push(make_packet(flits)):
                accepted.append(flits)
            assert 0 <= queue.used_flits <= 10
        assert queue.used_flits == sum(accepted)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=4)),
            max_size=40,
        )
    )
    def test_push_pop_sequence_conserves_flits(self, operations):
        queue = PacketQueue("q", 12)
        expected = []
        for is_push, flits in operations:
            if is_push:
                if queue.push(make_packet(flits)):
                    expected.append(flits)
            elif expected:
                queue.pop()
                expected.pop(0)
            assert queue.used_flits == sum(expected)
            assert len(queue) == len(expected)
