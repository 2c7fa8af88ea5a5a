"""Unit tests for the cycle engine."""

import pytest

from repro.sim.engine import Component, Engine


class Recorder(Component):
    def __init__(self, log, tag):
        self.log = log
        self.tag = tag
        self.reset_calls = 0

    def tick(self, cycle):
        self.log.append((self.tag, cycle))

    def reset(self):
        self.reset_calls += 1


class TestEngine:
    def test_ticks_in_registration_order(self):
        log = []
        engine = Engine([Recorder(log, "a"), Recorder(log, "b")])
        engine.step()
        assert log == [("a", 0), ("b", 0)]

    def test_step_advances_cycle_counter(self):
        engine = Engine()
        assert engine.step(5) == 5
        assert engine.cycle == 5
        engine.step()
        assert engine.cycle == 6

    def test_run_until_stops_when_condition_met(self):
        engine = Engine()
        final = engine.run_until(lambda: engine.cycle >= 10)
        assert final >= 10

    def test_run_until_respects_check_every(self):
        engine = Engine()
        engine.run_until(lambda: engine.cycle >= 5, check_every=4)
        assert engine.cycle in (8, 4 + 4)

    def test_run_until_times_out(self):
        engine = Engine()
        with pytest.raises(TimeoutError):
            engine.run_until(lambda: False, max_cycles=100)

    @pytest.mark.parametrize("check_every", [0, -1])
    @pytest.mark.parametrize("strategy", ["naive", "active"])
    def test_run_until_rejects_nonpositive_check_every(
        self, strategy, check_every
    ):
        # step(0) makes no progress, so this used to spin forever.
        engine = Engine(strategy=strategy)
        with pytest.raises(ValueError, match="check_every"):
            engine.run_until(lambda: False, max_cycles=100,
                             check_every=check_every)
        assert engine.cycle == 0

    def test_reset_zeros_cycle_and_resets_components(self):
        log = []
        component = Recorder(log, "a")
        engine = Engine([component])
        engine.step(3)
        engine.reset()
        assert engine.cycle == 0
        assert component.reset_calls == 1

    def test_register_returns_component(self):
        engine = Engine()
        component = Recorder([], "a")
        assert engine.register(component) is component
        assert component in engine.components

    def test_register_all(self):
        engine = Engine()
        components = [Recorder([], str(i)) for i in range(3)]
        engine.register_all(components)
        assert engine.components == components
