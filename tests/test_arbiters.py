"""Unit and property tests for the arbitration policies (Sections 2.3, 6)."""

import copy

import pytest
from hypothesis import given, strategies as st

from repro.noc.arbiter import (
    AgeBased,
    CoarseRoundRobin,
    FixedPriority,
    RandomArbiter,
    RoundRobin,
    StrictRoundRobin,
    make_policy,
)
from repro.noc.buffer import PacketQueue
from repro.noc.mux import Mux
from repro.noc.packet import Packet, READ, WRITE


def packet(flits=1, group=0, birth=0):
    return Packet(
        kind=READ, address=0, flits=flits, src_sm=0, slice_id=0,
        group_id=group, birth_cycle=birth,
    )


def build_mux(policy, num_inputs=2, width=1, capacity=64):
    inputs = [PacketQueue(f"in{i}", capacity) for i in range(num_inputs)]
    output = PacketQueue("out", 10_000)
    mux = Mux("mux", inputs, output, width=width, policy=policy)
    return mux, inputs, output


class TestRoundRobin:
    def test_alternates_between_busy_inputs(self):
        mux, inputs, output = build_mux(RoundRobin(2))
        for _ in range(4):
            inputs[0].push(packet())
            inputs[1].push(packet())
        for cycle in range(8):
            mux.tick(cycle)
        sources = []
        # Reconstruct grant order from output order via packet identity.
        while output:
            sources.append(output.pop().uid)
        assert len(sources) == 8

    def test_lone_requester_gets_full_bandwidth(self):
        mux, inputs, output = build_mux(RoundRobin(2))
        for _ in range(5):
            inputs[0].push(packet())
        for cycle in range(5):
            mux.tick(cycle)
        assert len(output) == 5  # nothing wasted on the idle input

    def test_fair_split_under_contention(self):
        mux, inputs, output = build_mux(RoundRobin(2), capacity=1024)
        for _ in range(50):
            inputs[0].push(packet())
            inputs[1].push(packet())
        for cycle in range(60):
            mux.tick(cycle)
        # 60 cycles of width 1: each input should have moved ~30 packets.
        assert 50 - len(inputs[0]) == pytest.approx(30, abs=1)
        assert 50 - len(inputs[1]) == pytest.approx(30, abs=1)

    def test_multiflit_packets_not_interleaved(self):
        mux, inputs, output = build_mux(RoundRobin(2))
        inputs[0].push(packet(flits=3))
        inputs[1].push(packet(flits=1))
        for cycle in range(4):
            mux.tick(cycle)
        assert len(output) == 2  # both complete; no deadlock from locking


class TestCoarseRoundRobin:
    def test_holds_grant_within_group(self):
        mux, inputs, output = build_mux(CoarseRoundRobin(2), capacity=64)
        # Input 0 has a 3-packet warp group; input 1 has singles.
        for _ in range(3):
            inputs[0].push(packet(group=7))
        for i in range(3):
            inputs[1].push(packet(group=100 + i))
        order = []
        for cycle in range(6):
            before = len(output)
            mux.tick(cycle)
            for _ in range(len(output) - before):
                pass
        # All six packets eventually cross.
        assert len(output) == 6

    def test_bandwidth_share_matches_rr(self):
        """CRR changes arbitration granularity, not bandwidth — the reason
        it fails as a countermeasure (Figure 15)."""
        for policy_cls in (RoundRobin, CoarseRoundRobin):
            mux, inputs, output = build_mux(policy_cls(2), capacity=2048)
            for i in range(40):
                inputs[0].push(packet(group=i // 4))
                inputs[1].push(packet(group=1000 + i // 4))
            for cycle in range(40):
                mux.tick(cycle)
            moved_0 = 40 - len(inputs[0])
            moved_1 = 40 - len(inputs[1])
            assert moved_0 == pytest.approx(20, abs=4)
            assert moved_1 == pytest.approx(20, abs=4)


class TestStrictRoundRobin:
    def test_slot_ownership_by_cycle(self):
        policy = StrictRoundRobin(2)
        assert policy.allowed_inputs(0) == (0,)
        assert policy.allowed_inputs(1) == (1,)
        assert policy.allowed_inputs(2) == (0,)

    def test_idle_slot_bandwidth_is_wasted(self):
        mux, inputs, output = build_mux(StrictRoundRobin(2))
        for _ in range(10):
            inputs[0].push(packet())
        for cycle in range(10):
            mux.tick(cycle)
        # Input 0 only owns even cycles: 5 packets in 10 cycles.
        assert len(output) == 5

    def test_service_rate_independent_of_other_input(self):
        """The isolation property that kills the covert channel."""
        moved = {}
        for other_busy in (False, True):
            mux, inputs, output = build_mux(StrictRoundRobin(2), capacity=512)
            for _ in range(30):
                inputs[0].push(packet())
                if other_busy:
                    inputs[1].push(packet())
            for cycle in range(30):
                mux.tick(cycle)
            moved[other_busy] = 30 - len(inputs[0])
        assert moved[False] == moved[True]


class TestAgeBased:
    def test_oldest_packet_wins(self):
        mux, inputs, output = build_mux(AgeBased(2))
        inputs[0].push(packet(birth=10))
        inputs[1].push(packet(birth=2))
        mux.tick(0)
        first = output.pop()
        assert first.birth_cycle == 2

    def test_does_not_isolate_inputs(self):
        """Age-based fairness does NOT remove the channel (Section 6)."""
        moved = {}
        for other_busy in (False, True):
            mux, inputs, output = build_mux(AgeBased(2), capacity=512)
            for i in range(30):
                inputs[0].push(packet(birth=i))
                if other_busy:
                    inputs[1].push(packet(birth=i))
            for cycle in range(30):
                mux.tick(cycle)
            moved[other_busy] = 30 - len(inputs[0])
        assert moved[True] < moved[False]


class TestFixedAndRandom:
    def test_fixed_priority_starves_high_index(self):
        mux, inputs, output = build_mux(FixedPriority(2), capacity=512)
        for _ in range(20):
            inputs[0].push(packet())
            inputs[1].push(packet())
        for cycle in range(10):
            mux.tick(cycle)
        assert len(inputs[0]) == 10
        assert len(inputs[1]) == 20  # fully starved

    def test_random_arbiter_deterministic_per_seed(self):
        a = RandomArbiter(4, seed=9)
        b = RandomArbiter(4, seed=9)
        candidates = [0, 1, 2, 3]
        picks_a = [a.choose(candidates, [None] * 4, c) for c in range(20)]
        picks_b = [b.choose(candidates, [None] * 4, c) for c in range(20)]
        assert picks_a == picks_b

    def test_random_arbiter_reset_replays(self):
        arbiter = RandomArbiter(3, seed=1)
        first = [arbiter.choose([0, 1, 2], [None] * 3, c) for c in range(10)]
        arbiter.reset()
        again = [arbiter.choose([0, 1, 2], [None] * 3, c) for c in range(10)]
        assert first == again


class TestFactory:
    def test_make_policy_names(self):
        for name, cls in [
            ("rr", RoundRobin),
            ("crr", CoarseRoundRobin),
            ("srr", StrictRoundRobin),
            ("age", AgeBased),
            ("fixed", FixedPriority),
            ("random", RandomArbiter),
        ]:
            assert isinstance(make_policy(name, 2), cls)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_policy("tdm", 2)

    def test_mux_rejects_mismatched_policy(self):
        with pytest.raises(ValueError):
            build_mux(RoundRobin(3), num_inputs=2)


class TestProperties:
    @given(
        policy_name=st.sampled_from(["rr", "crr", "srr", "age", "fixed"]),
        pattern=st.lists(
            st.tuples(st.integers(0, 2), st.integers(1, 4)), max_size=40
        ),
    )
    def test_conservation_no_loss_no_duplication(self, policy_name, pattern):
        """Whatever the policy, every pushed packet crosses exactly once."""
        mux, inputs, output = build_mux(
            make_policy(policy_name, 3), num_inputs=3, width=2,
            capacity=4096,
        )
        pushed = []
        for port, flits in pattern:
            pkt = packet(flits=flits, group=port)
            inputs[port].push(pkt)
            pushed.append(pkt.uid)
        for cycle in range(400):
            mux.tick(cycle)
        crossed = []
        while output:
            crossed.append(output.pop().uid)
        assert sorted(crossed) == sorted(pushed)


def _rotation_reference(candidates, pointer, num_inputs):
    """The round-robin winner by definition: nearest port at/after pointer."""
    return min(candidates, key=lambda port: (port - pointer) % num_inputs)


@st.composite
def _port_subsets(draw):
    """A port count and an ascending non-empty subset of its ports."""
    num_inputs = draw(st.integers(1, 48))
    ports = draw(st.lists(st.integers(0, num_inputs - 1), min_size=1,
                          unique=True))
    return num_inputs, sorted(ports)


class TestRotationMatchesReference:
    """RR/CRR ``choose`` against the rotation rule, pointer by pointer.

    The naive and active strategies share the policy objects, so the
    lockstep oracle cannot catch a wrong pick; this pins it against an
    independent definition.  Every pointer is tried, so the subsets
    include ones that lie wholly before the pointer (the wrap).
    """

    @given(_port_subsets(), st.data())
    def test_round_robin(self, subset, data):
        num_inputs, candidates = subset
        heads = [packet() for _ in range(num_inputs)]
        locked = data.draw(st.none() | st.integers(0, num_inputs - 1))
        for pointer in range(num_inputs):
            policy = RoundRobin(num_inputs)
            # Completing a packet on the port before ``pointer`` moves
            # the pointer there and leaves no port locked.
            policy.note_flit((pointer - 1) % num_inputs, heads[0], True)
            if locked is not None:
                policy.note_flit(locked, heads[locked], False)  # mid-packet
            if locked is not None and locked in candidates:
                expected = locked
            else:
                expected = _rotation_reference(
                    candidates, pointer, num_inputs
                )
            assert policy.choose(candidates, heads, 0) == expected

    @given(_port_subsets(), st.data())
    def test_coarse_round_robin(self, subset, data):
        num_inputs, candidates = subset
        held = data.draw(st.integers(0, num_inputs - 1))
        held_group = data.draw(st.integers(0, 2))
        heads = [
            packet(group=data.draw(st.integers(0, 2)))
            for _ in range(num_inputs)
        ]
        for pointer in range(num_inputs):
            policy = CoarseRoundRobin(num_inputs)
            policy.note_flit(
                (pointer - 1) % num_inputs, packet(group=held_group), True
            )
            # Hold ``held``'s port on ``held_group`` without moving the
            # pointer (a mid-packet flit).
            policy.note_flit(held, packet(group=held_group), False)
            if held in candidates and heads[held].group_id == held_group:
                expected = held
            else:
                expected = _rotation_reference(
                    candidates, pointer, num_inputs
                )
            assert policy.choose(candidates, heads, 0) == expected


#: Every policy name, and those that claim ``flit_invariant``.
ALL_POLICIES = ("rr", "crr", "srr", "age", "fixed", "random")
FLIT_INVARIANT = [
    name for name in ALL_POLICIES if make_policy(name, 2).flit_invariant
]


@st.composite
def _arbitrated_state(draw, name):
    """A policy with a random grant history, its heads and candidates."""
    num_inputs = draw(st.integers(1, 8))
    heads = [
        packet(flits=draw(st.integers(1, 6)), group=draw(st.integers(0, 2)),
               birth=draw(st.integers(0, 20)))
        for _ in range(num_inputs)
    ]
    policy = make_policy(name, num_inputs)
    for _ in range(draw(st.integers(0, 4))):
        port = draw(st.integers(0, num_inputs - 1))
        policy.note_flit(port, heads[port], draw(st.booleans()))
    ports = draw(st.lists(st.integers(0, num_inputs - 1), min_size=1,
                          unique=True))
    return policy, heads, sorted(ports)


class TestFlitInvariantContract:
    """What ``flit_invariant`` promises, for every policy claiming it.

    The sparse mux grants a chosen packet every flit of budget it needs
    at once, and the sparse crossbar collapses runs of identical rounds;
    both rely on these promises instead of calling the policy per flit.
    """

    def test_claimants(self):
        assert FLIT_INVARIANT == ["rr", "crr", "age", "fixed"]
        # RANDOM draws its rng on every choose; SRR's slot owner moves
        # every cycle.
        assert not make_policy("random", 4).flit_invariant
        assert not make_policy("srr", 4).flit_invariant

    @pytest.mark.parametrize("name", FLIT_INVARIANT)
    @given(st.data())
    def test_mid_packet_port_keeps_the_grant(self, name, data):
        policy, heads, candidates = data.draw(_arbitrated_state(name))
        assert policy.allowed_inputs(data.draw(st.integers(0, 99))) is None
        port = policy.choose(candidates, heads, 0)
        pkt = heads[port]
        for sent in range(1, pkt.flits + 1):
            policy.note_flit(port, pkt, sent == pkt.flits)
            if sent == pkt.flits:
                break
            # The candidate set stays the same or shrinks, keeping port.
            keep = data.draw(st.lists(st.booleans(), min_size=len(candidates),
                                      max_size=len(candidates)))
            candidates = [
                p for p, kept in zip(candidates, keep) if kept or p == port
            ]
            assert policy.choose(candidates, heads, 0) == port

    @pytest.mark.parametrize("name", FLIT_INVARIANT)
    @given(st.data())
    def test_repeated_mid_packet_notes_change_nothing(self, name, data):
        policy, heads, candidates = data.draw(_arbitrated_state(name))
        port = data.draw(st.sampled_from(candidates))
        policy.note_flit(port, heads[port], False)
        digest = policy.state_digest()
        for _ in range(data.draw(st.integers(1, 5))):
            policy.note_flit(port, heads[port], False)
            assert policy.state_digest() == digest

    @pytest.mark.parametrize("name", FLIT_INVARIANT)
    @given(st.data())
    def test_last_note_ignores_mid_packet_notes_before_it(self, name, data):
        # A run that ends its packet reports note_flit(True) alone.
        policy, heads, candidates = data.draw(_arbitrated_state(name))
        port = data.draw(st.sampled_from(candidates))
        noted = copy.deepcopy(policy)
        for _ in range(data.draw(st.integers(1, 3))):
            noted.note_flit(port, heads[port], False)
        noted.note_flit(port, heads[port], True)
        policy.note_flit(port, heads[port], True)
        assert noted.state_digest() == policy.state_digest()
