"""Shared backend machinery: the mesh-network and NIC base classes.

Both cycle-accurate simulators (and the analytic ideal backend) share a
lot of lifecycle scaffolding that used to be duplicated per backend:
finite-buffer NIC admission with an unbounded open-loop generation queue,
the per-cycle source pull, TraceHub plumbing, end-of-cycle stats stamping
and the idle-detection skeleton.  This module hoists all of it.

:class:`MeshNetworkBase` fixes the per-cycle template::

    step(cycle):
        _step_cycle(cycle)        # backend-specific simulation phases
        _end_of_cycle(cycle)      # leakage accrual / occupancy sampling
        stats.final_cycle = cycle + 1
        trace_hub.on_cycle(...)   # when tracers are attached

and the idle skeleton (backend pending work, then source exhaustion, then
NIC queues, then router business).  Subclasses implement ``_step_cycle``
and the :meth:`MeshNetworkBase._pending_work` / ``_inject_from_nic`` hooks.

:class:`BaseNic` fixes event expansion (``generate`` validates the
source-node invariant, delegates each event to ``_expand_event`` and then
refills the finite buffer) plus the occupancy/backlog/idle accessors.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs.events import TraceHub
from repro.sim.stats import NetworkStats
from repro.topology import Topology, topology_of
from repro.util.errors import FabricError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.schedule import FaultSchedule
    from repro.obs.tracers import Tracer
    from repro.traffic.trace import TraceEvent, TrafficSource
    from repro.util.geometry import MeshGeometry


class BaseNic:
    """Generation queue + finite NIC buffer shared by every backend NIC.

    Trace events enter an unbounded generation queue (the open-loop source
    never blocks, matching Booksim measurement methodology); up to
    ``config.nic_buffer_entries`` of the queued items wait in the NIC
    proper.  Subclasses implement :meth:`_expand_event` to turn one trace
    event into queued packets/flits, and their own injection discipline to
    drain the buffer into the network.
    """

    def __init__(
        self,
        node: int,
        config: Any,
        stats: NetworkStats,
        trace_hub: TraceHub | None = None,
        uids: Iterator[int] | None = None,
    ) -> None:
        self.node = node
        self.config = config
        self.stats = stats
        self.trace_hub = trace_hub if trace_hub is not None else TraceHub()
        #: Where this NIC's packets draw their uids: the owning network's
        #: counter, shared like the hub (a standalone NIC counts alone).
        self.uids = uids if uids is not None else itertools.count()
        self._generation_queue: deque[Any] = deque()
        self._buffer: deque[Any] = deque()

    def generate(self, events: list["TraceEvent"], cycle: int) -> None:
        """Expand trace events onto the generation queue, then refill."""
        for event in events:
            if event.source != self.node:
                raise ValueError(
                    f"event for node {event.source} delivered to NIC {self.node}"
                )
            self._expand_event(event, cycle)
        self._refill()

    def _expand_event(self, event: "TraceEvent", cycle: int) -> None:
        """Append the packets/flits for one trace event to the queue."""
        raise NotImplementedError

    def _refill(self) -> None:
        """Move queued items into the finite buffer while space remains."""
        while (
            self._generation_queue
            and len(self._buffer) < self.config.nic_buffer_entries
        ):
            self._buffer.append(self._generation_queue.popleft())

    @property
    def occupancy(self) -> int:
        return len(self._buffer)

    @property
    def backlog(self) -> int:
        """Packets still waiting anywhere in this NIC."""
        return len(self._buffer) + len(self._generation_queue)

    def idle(self) -> bool:
        return not self._buffer and not self._generation_queue


class MeshNetworkBase:
    """Common lifecycle of a mesh network backend (see module docstring).

    Subclasses populate :attr:`routers` and :attr:`nics` in their
    constructors (router/NIC types differ per backend) and implement:

    - ``_step_cycle(cycle)`` — the backend's simulation phases;
    - ``_inject_from_nic(node, nic, cycle)`` — drain one NIC into the
      network at the backend's injection discipline;
    - ``_pending_work()`` — backend-private in-flight state that must
      block :meth:`idle` (drop signals, scheduled events, ...);
    - ``_end_of_cycle(cycle)`` — per-cycle accounting accrual (leakage,
      occupancy sampling); defaults to nothing.
    """

    def __init__(
        self,
        config: Any,
        source: "TrafficSource | None" = None,
        stats: NetworkStats | None = None,
        faults: "FaultSchedule | None" = None,
    ) -> None:
        self.config = config
        self.mesh: "MeshGeometry" = config.mesh
        #: The resolved topology instance (the config's ``topology`` name
        #: over its mesh; bare-mesh configs resolve to ``Mesh2D``).  All
        #: port/link enumeration and route computation go through this.
        self.topology: Topology = topology_of(config)
        if source is not None and source.num_nodes not in (None, self.mesh.num_nodes):
            # Ids past the grid would alias other pairs' plan keys.
            raise FabricError(
                f"the traffic source addresses {source.num_nodes} nodes but "
                f"{config.label} runs on {self.mesh.num_nodes} ({self.topology})"
            )
        self.source = source
        self.stats = stats or NetworkStats()
        #: Packet-lifecycle emit hub, shared by reference with the NICs so
        #: tracers attached later see generation/injection events too.
        self.trace_hub = TraceHub()
        #: Packet uids count from zero per network, so the same spec writes
        #: the same trace whatever else ran in the process before it.
        self.uids: Iterator[int] = itertools.count()
        self.routers: list[Any] = []
        self.nics: list[Any] = []
        #: Compiled fault timeline, or None for fault-free physics.  NIC
        #: stall windows are honoured here in the shared injection path;
        #: crossing faults are each backend's business.
        self._faults = faults if faults is not None and faults.enabled else None
        #: Whether that timeline has NIC stall windows at all, and the
        #: nodes inside one now (a window is counted once, on entry).
        self._nic_stalls = (
            self._faults is not None and self._faults.config.nic_stall_prob > 0.0
        )
        self._stalled_nodes: set[int] = set()
        #: Packets hit by at least one fault, for delivered-despite-faults
        #: accounting at the backend's delivery sites.
        self._fault_hit: set[int] = set()

    def add_tracer(self, tracer: "Tracer") -> None:
        """Attach a packet-lifecycle tracer (see :mod:`repro.obs`)."""
        self.trace_hub.add(tracer)

    # -- Clocked protocol ------------------------------------------------------

    def step(self, cycle: int) -> None:
        self._step_cycle(cycle)
        self._end_of_cycle(cycle)
        self.stats.final_cycle = cycle + 1
        if self.trace_hub:
            self.trace_hub.on_cycle(self, cycle)

    def commit(self, cycle: int) -> None:
        """All backends apply effects in step(); events/signals carry any
        cycle split, so the clock edge itself is a no-op."""

    # -- per-cycle hooks -------------------------------------------------------

    def _step_cycle(self, cycle: int) -> None:
        """The backend's simulation phases for one cycle."""
        raise NotImplementedError

    def _end_of_cycle(self, cycle: int) -> None:
        """End-of-cycle accrual (leakage, occupancy sampling)."""

    def _generate_and_inject(self, cycle: int) -> None:
        """Pull this cycle's injections from the source into every NIC,
        then give each NIC its injection opportunity.

        A NIC inside a fault-schedule stall window keeps accepting source
        traffic (the open-loop source never blocks) but injects nothing;
        the stall is counted and traced once per window, on entry.
        """
        stalls = self._nic_stalls
        for node, nic in enumerate(self.nics):
            if self.source is not None:
                events = self.source.injections(node, cycle)
                if events:
                    nic.generate(events, cycle)
            if stalls and self._nic_stalled(node, cycle):
                continue
            self._inject_from_nic(node, nic, cycle)

    def _nic_stalled(self, node: int, cycle: int) -> bool:
        """True while ``node``'s NIC sits in a stall window of the fault
        schedule; counts and traces the window on the cycle it opens."""
        assert self._faults is not None  # callers gate on ``_nic_stalls``
        if not self._faults.nic_stalled(node, cycle):
            self._stalled_nodes.discard(node)
            return False
        if node not in self._stalled_nodes:
            self._stalled_nodes.add(node)
            self.stats.record_fault("nic_stall")
            if self.trace_hub:
                self.trace_hub.emit(
                    "fault_injected", cycle, node, -1,
                    extra={"fault": "nic_stall"},
                )
        return True

    def _inject_from_nic(self, node: int, nic: Any, cycle: int) -> None:
        """Move work from one NIC into the network, space permitting."""
        raise NotImplementedError

    def _note_fault_delivery(self, uid: int) -> None:
        """Count a delivery of a packet that survived at least one fault.

        Backends call this from every delivery site; it is a no-op unless
        fault injection is active and the packet was actually hit.
        """
        if self._faults is not None and uid in self._fault_hit:
            self.stats.record_fault_survivor()

    # -- run control -----------------------------------------------------------

    def idle(self, cycle: int) -> bool:
        """True when nothing is queued, pending or in flight anywhere."""
        if self._pending_work():
            return False
        if self.source is not None and not self.source.exhausted(cycle):
            return False
        if any(not nic.idle() for nic in self.nics):
            return False
        return all(not router.busy for router in self.routers)

    def _pending_work(self) -> bool:
        """Backend-private in-flight state that must block :meth:`idle`."""
        raise NotImplementedError
