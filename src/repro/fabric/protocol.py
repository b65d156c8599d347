"""The network-backend contract shared by every simulator in the repo.

The paper's evaluation hinges on running identical workloads through
interchangeable network implementations (the Phastlane optical network,
the electrical VC baseline, and any future hybrid-NoC design point).  This
module pins down what "a network backend" *is*, as structural protocols:

- :class:`NetworkConfig` — a frozen, dataclass-like description of one
  network design point (a mesh plus a figure label); the registry maps
  config types to backend factories, so the config *is* the selector;
- :class:`FabricNic` — the per-node interface between a traffic source and
  a backend (one FIFO, idle detection);
- :class:`NetworkBackend` — the simulator itself: a
  :class:`~repro.sim.engine.Clocked` component with a traffic source, a
  stats ledger, a shared :class:`~repro.obs.events.TraceHub` and an
  ``idle(cycle)`` drain predicate.

Everything in the harness (runner, executor, sweeps, CLI) is written
against these protocols; nothing above :mod:`repro.fabric` names a
concrete simulator class.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import TraceHub
    from repro.obs.tracers import Tracer
    from repro.sim.stats import NetworkStats
    from repro.traffic.schedule import Injection
    from repro.traffic.trace import TrafficSource
    from repro.util.geometry import MeshGeometry


@runtime_checkable
class NetworkConfig(Protocol):
    """A frozen description of one network design point.

    Concrete configs are frozen dataclasses (hashable, ``==`` by value,
    ``dataclasses.fields`` introspectable — the executor's spec
    serialisation relies on that) carrying at least a mesh geometry and
    the figure-style label used throughout the paper's tables.
    """

    mesh: "MeshGeometry"

    @property
    def label(self) -> str:
        """Figure-style configuration label, e.g. ``Optical4``."""
        ...  # pragma: no cover - protocol


class FabricNic(Protocol):
    """One node's interface between the traffic source and the network.

    Every backend NIC owns one unbounded FIFO (the open-loop source never
    blocks); the backend drains its head into the network at its own
    injection discipline.
    """

    node: int
    stats: "NetworkStats"
    trace_hub: "TraceHub"

    def generate(self, injections: list["Injection"], cycle: int) -> None:
        """Expand this node's injections into queued packets/flits."""
        ...  # pragma: no cover - protocol

    @property
    def backlog(self) -> int:
        """Entries waiting in this NIC."""
        ...  # pragma: no cover - protocol

    def idle(self) -> bool:
        """True when nothing is queued at this NIC."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class NetworkBackend(Protocol):
    """A cycle-accurate network simulator driven by the engine.

    A backend is a :class:`~repro.sim.engine.Clocked` component (one
    ``step`` per cycle) built from a :class:`NetworkConfig`,
    pulling injections from an optional traffic source, accounting into a
    :class:`~repro.sim.stats.NetworkStats` ledger, and emitting packet
    lifecycle events through a :class:`~repro.obs.events.TraceHub` shared
    by reference with its NICs.
    """

    config: "NetworkConfig"
    mesh: "MeshGeometry"
    source: "TrafficSource | None"
    stats: "NetworkStats"
    trace_hub: "TraceHub"

    def step(self, cycle: int) -> None:
        """Advance one cycle."""
        ...  # pragma: no cover - protocol

    def idle(self, cycle: int) -> bool:
        """True when no packet is queued, buffered or in flight."""
        ...  # pragma: no cover - protocol

    def add_tracer(self, tracer: "Tracer") -> None:
        """Attach a packet-lifecycle tracer (see :mod:`repro.obs`)."""
        ...  # pragma: no cover - protocol
