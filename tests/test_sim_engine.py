"""Tests for the cycle engine."""

import pytest

from repro.sim.engine import SimulationEngine


class Counter:
    """A Clocked component recording the cycles it is stepped at."""

    def __init__(self):
        self.steps: list[int] = []

    def step(self, cycle: int) -> None:
        self.steps.append(cycle)


class TestEngine:
    def test_tick_advances_cycle(self):
        engine = SimulationEngine()
        engine.tick()
        assert engine.cycle == 1

    def test_components_see_monotonic_cycles(self):
        engine = SimulationEngine()
        counter = Counter()
        engine.register(counter)
        engine.run(5)
        assert counter.steps == [0, 1, 2, 3, 4]

    def test_rejects_non_clocked_component(self):
        engine = SimulationEngine()
        with pytest.raises(TypeError):
            engine.register(object())

    def test_run_negative_rejected(self):
        with pytest.raises(ValueError):
            SimulationEngine().run(-1)

    def test_run_until_stops_at_predicate(self):
        engine = SimulationEngine()
        assert engine.run_until(lambda: engine.cycle >= 3, max_cycles=10)
        assert engine.cycle == 3

    def test_run_until_timeout_returns_false(self):
        engine = SimulationEngine()
        assert not engine.run_until(lambda: False, max_cycles=5)
        assert engine.cycle == 5

    def test_run_until_presatisfied_costs_nothing(self):
        engine = SimulationEngine()
        assert engine.run_until(lambda: True, max_cycles=10)
        assert engine.cycle == 0

    def test_watcher_called_after_each_cycle(self):
        engine = SimulationEngine()
        seen = []
        engine.add_watcher(seen.append)
        engine.run(3)
        assert seen == [0, 1, 2]
