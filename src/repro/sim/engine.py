"""The cycle-driven simulation engine.

Both simulators in this repository (the Phastlane optical network and the
electrical baseline) are clocked designs evaluated once per network cycle, so
the kernel is a synchronous two-phase engine rather than a general
discrete-event queue:

- ``step`` phase: every registered :class:`Clocked` component computes its
  next state from the current state (combinational evaluation);
- ``commit`` phase: components atomically adopt the next state (the clock
  edge).

The two-phase split means component evaluation order within a cycle cannot
change simulation results, which keeps the simulators deterministic and the
tests meaningful.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable


@runtime_checkable
class Clocked(Protocol):
    """A component evaluated every cycle by the engine."""

    def step(self, cycle: int) -> None:
        """Compute next state from current state (no visible mutation)."""

    def commit(self, cycle: int) -> None:
        """Adopt the computed next state (the clock edge)."""


class SimulationEngine:
    """Synchronous engine driving a list of :class:`Clocked` components.

    Components are stepped in registration order and then committed in
    registration order; correctness must not depend on that order (the
    two-phase protocol enforces it as long as ``step`` does not mutate
    state visible to other components).
    """

    def __init__(self) -> None:
        self._components: list[Clocked] = []
        self.cycle = 0
        self._watchers: list[Callable[[int], None]] = []

    def register(self, component: Clocked) -> None:
        if not isinstance(component, Clocked):
            raise TypeError(f"{component!r} does not implement the Clocked protocol")
        self._components.append(component)

    def add_watcher(self, watcher: Callable[[int], None]) -> None:
        """Call ``watcher(cycle)`` after each committed cycle (an obs session)."""
        self._watchers.append(watcher)

    def tick(self) -> None:
        """Advance the simulation by one cycle."""
        cycle = self.cycle
        for component in self._components:
            component.step(cycle)
        for component in self._components:
            component.commit(cycle)
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
