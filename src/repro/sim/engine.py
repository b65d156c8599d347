"""The cycle-driven simulation engine.

Every simulator in this repository is a clocked design evaluated once per
network cycle, so the kernel is a synchronous loop rather than a general
discrete-event queue: each cycle it calls ``step(cycle)`` on every
registered :class:`Clocked` component, then its watchers.  A backend
applies a cycle's effects inside its own ``step``; where an effect lands a
cycle later (a link traversal, a credit), the backend queues it by cycle
itself, so one call per cycle is the whole clock.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable


@runtime_checkable
class Clocked(Protocol):
    """A component evaluated every cycle by the engine."""

    def step(self, cycle: int) -> None:
        """Advance the component by one cycle."""


class SimulationEngine:
    """Synchronous engine stepping a list of :class:`Clocked` components
    in registration order, once per cycle."""

    def __init__(self) -> None:
        self._components: list[Clocked] = []
        self.cycle = 0
        self._watchers: list[Callable[[int], None]] = []

    def register(self, component: Clocked) -> None:
        if not isinstance(component, Clocked):
            raise TypeError(f"{component!r} does not implement the Clocked protocol")
        self._components.append(component)

    def add_watcher(self, watcher: Callable[[int], None]) -> None:
        """Call ``watcher(cycle)`` after each cycle (an obs session)."""
        self._watchers.append(watcher)

    def tick(self) -> None:
        """Advance the simulation by one cycle."""
        cycle = self.cycle
        for component in self._components:
            component.step(cycle)
        self.cycle += 1
        for watcher in self._watchers:
            watcher(cycle)

    def run(self, cycles: int) -> None:
        """Advance by ``cycles`` cycles."""
        if cycles < 0:
            raise ValueError(f"cannot run a negative number of cycles ({cycles})")
        tick = self.tick  # bound once: this loop is the simulators' hot path
        for _ in range(cycles):
            tick()

    def run_until(self, predicate: Callable[[], bool], max_cycles: int) -> bool:
        """Tick until ``predicate()`` is true; returns False on timeout.

        The predicate is evaluated before each tick, so a pre-satisfied
        condition costs zero cycles.
        """
        if max_cycles < 0:
            raise ValueError("max_cycles must be non-negative")
        for _ in range(max_cycles):
            if predicate():
                return True
            self.tick()
        return predicate()
