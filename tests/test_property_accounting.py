"""Property-based accounting tests for PacketQueue, Mux and Crossbar.

Seeded ``random`` only (no extra dependencies): each property runs a few
hundred randomized operation sequences against a trivially-correct model
and asserts the flit accounting the whole NoC depends on.
"""

import random

import pytest

from repro.config import ARBITRATION_POLICIES
from repro.noc.arbiter import make_policy
from repro.noc.buffer import PacketQueue
from repro.noc.crossbar import Crossbar
from repro.noc.mux import Mux
from repro.noc.packet import Packet, READ, WRITE
from repro.sim.engine import Engine


def make_packet(rng, src_sm=0, group_id=-1, birth_cycle=0):
    kind = rng.choice([READ, WRITE])
    return Packet(
        kind=kind,
        address=rng.randrange(0, 1 << 16) * 128,
        flits=rng.randint(1, 4),
        src_sm=src_sm,
        slice_id=rng.randrange(0, 8),
        group_id=group_id,
        birth_cycle=birth_cycle,
    )


class QueueModel:
    """Reference model: a plain list plus the documented capacity rule."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.packets = []
        self.reserved = 0

    @property
    def used(self):
        return sum(p.flits for p in self.packets)

    def can_reserve(self, flits):
        return self.used + self.reserved + flits <= self.capacity


class TestPacketQueueProperties:
    """reserve/commit/pop/clear accounting vs the reference model."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_op_sequences_match_model(self, seed):
        rng = random.Random(seed)
        capacity = rng.randint(4, 32)
        queue = PacketQueue("prop.q", capacity)
        model = QueueModel(capacity)
        pending = []  # reservations not yet committed, FIFO

        for _ in range(200):
            op = rng.choice(["reserve", "commit", "push", "pop", "clear"])
            if op == "reserve":
                packet = make_packet(rng)
                if model.can_reserve(packet.flits):
                    assert queue.can_reserve(packet.flits)
                    queue.reserve(packet.flits)
                    model.reserved += packet.flits
                    pending.append(packet)
                else:
                    assert not queue.can_reserve(packet.flits)
                    with pytest.raises(OverflowError):
                        queue.reserve(packet.flits)
            elif op == "commit" and pending:
                packet = pending.pop(0)
                queue.commit(packet)
                model.reserved -= packet.flits
                model.packets.append(packet)
            elif op == "push":
                packet = make_packet(rng)
                expected = model.can_reserve(packet.flits)
                assert queue.push(packet) is expected
                if expected:
                    model.packets.append(packet)
            elif op == "pop" and model.packets:
                expected = model.packets.pop(0)
                assert queue.pop() is expected
            elif op == "clear":
                queue.clear()
                model.packets.clear()
                model.reserved = 0
                pending.clear()

            # The invariants, every step:
            assert queue.free_flits + queue.used_flits \
                + queue._reserved_flits == capacity
            assert queue.used_flits == model.used
            assert queue._reserved_flits == model.reserved
            assert len(queue) == len(model.packets)
            assert queue.used_flits + queue._reserved_flits \
                <= queue.capacity_flits
            assert queue.free_flits == (
                capacity - model.used - model.reserved
            )
            head = queue.head()
            assert head is (model.packets[0] if model.packets else None)

    def test_commit_without_reservation_raises(self):
        queue = PacketQueue("q", 16)
        with pytest.raises(RuntimeError):
            queue.commit(make_packet(random.Random(0)))


def _build_switch(kind, inputs):
    if kind == "mux":
        return Mux("prop.mux", inputs, PacketQueue("prop.out", 8), width=1,
                   policy=make_policy("rr", len(inputs)))
    return Crossbar("prop.xbar", inputs, [PacketQueue("prop.out", 8)],
                    route=lambda packet: 0, width=1)


class TestLiveInputsProperties:
    """The queues keep their switch's live list exactly current.

    A switch never rescans its inputs: every ``push``, ``commit``,
    ``pop`` and ``clear`` of an input queue updates its ``_live``,
    ``_heads`` and ``_max_flits`` inline.  After every step of a random
    sequence over several inputs, those must equal a rescan.
    """

    @pytest.mark.parametrize("kind", ["mux", "crossbar"])
    @pytest.mark.parametrize("seed", range(20))
    def test_live_list_matches_a_rescan(self, kind, seed):
        rng = random.Random(seed)
        inputs = [
            PacketQueue(f"prop.in{i}", rng.randint(4, 16))
            for i in range(rng.randint(1, 5))
        ]
        # Packets already queued when the switch attaches count too.
        inputs[0].push(make_packet(rng))
        switch = _build_switch(kind, inputs)
        pending = [[] for _ in inputs]  # reserved, not yet committed

        for _ in range(300):
            port = rng.randrange(len(inputs))
            queue = inputs[port]
            op = rng.choice(["reserve", "commit", "push", "pop", "pop",
                             "clear"])
            if op == "reserve":
                packet = make_packet(rng)
                if queue.can_reserve(packet.flits):
                    queue.reserve(packet.flits)
                    pending[port].append(packet)
            elif op == "commit" and pending[port]:
                queue.commit(pending[port].pop(0))
            elif op == "push":
                queue.push(make_packet(rng))
            elif op == "pop" and queue:
                queue.pop()
            elif op == "clear":
                queue.clear()
                pending[port].clear()

            for q in inputs:
                assert q.free_flits + q.used_flits + q._reserved_flits \
                    == q.capacity_flits
                assert q.used_flits == sum(p.flits for p in q._queue)
            heads = [q.head() for q in inputs]
            assert switch._live == [
                p for p, head in enumerate(heads) if head is not None
            ]
            assert all(
                cached is head for cached, head in zip(switch._heads, heads)
            )
            assert all(
                head.flits <= switch._max_flits
                for head in heads if head is not None
            )


class TestMuxFlitConservation:
    """Flits in == flits out across random policies, widths and inputs."""

    @pytest.mark.parametrize("policy_name", ARBITRATION_POLICIES)
    @pytest.mark.parametrize("seed", range(5))
    def test_everything_offered_is_delivered_exactly_once(
        self, policy_name, seed
    ):
        rng = random.Random(seed * 97 + sum(policy_name.encode()))
        num_inputs = rng.randint(1, 4)
        width = rng.randint(1, 3)
        engine = Engine(strategy="naive")
        inputs = [
            PacketQueue(f"in{i}", 64) for i in range(num_inputs)
        ]
        output = PacketQueue("out", 64)
        mux = Mux(
            "prop.mux", inputs, output, width=width,
            policy=make_policy(policy_name, num_inputs, seed=seed),
        )
        engine.register(mux)

        offered = []  # (port, packet) in offer order
        delivered = []
        group = 0
        for cycle in range(400):
            # Randomly offer packets on random ports.
            if rng.random() < 0.5:
                port = rng.randrange(num_inputs)
                packet = make_packet(
                    rng, src_sm=port, group_id=group, birth_cycle=cycle
                )
                group += 1
                if inputs[port].push(packet):
                    offered.append((port, packet))
            engine.step(1)
            while output:
                delivered.append(output.pop())
            # Accounting invariants hold mid-flight.
            for port, queue in enumerate(inputs):
                assert 0 <= queue.used_flits <= queue.capacity_flits
                assert mux._reserved[port] == (mux._progress[port] > 0)
        # Drain: no new offers, let in-flight packets finish.  srr only
        # serves each input 1/N of the time, so the budget is generous.
        for _ in range(2000):
            engine.step(1)
            while output:
                delivered.append(output.pop())
            if not any(inputs) and not any(mux._reserved):
                break

        assert len(delivered) == len(offered)
        # Conservation: exactly the offered packets come out, each once.
        assert sorted(p.uid for p in delivered) == sorted(
            p.uid for _, p in offered
        )
        # Per-port FIFO order is preserved.
        for port in range(num_inputs):
            sent = [p.uid for q, p in offered if q == port]
            received = [p.uid for p in delivered if p.src_sm == port]
            assert received == sent
        # All flit state drained.
        assert all(q.used_flits == 0 for q in inputs)
        assert all(not r for r in mux._reserved)
        assert output._reserved_flits == 0
