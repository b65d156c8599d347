"""Shared backend machinery: the mesh-network and NIC base classes.

Both cycle-accurate simulators (and the analytic ideal backend) share a
lot of lifecycle scaffolding that used to be duplicated per backend:
the NIC's one open-loop FIFO, the injection schedule
(:mod:`repro.traffic.schedule`, built once per source) and the per-cycle
NIC visits it drives, TraceHub plumbing, end-of-cycle stats stamping and
the idle-detection skeleton.  This module hoists all of it.

:class:`MeshNetworkBase` fixes the per-cycle template::

    step(cycle):
        _step_cycle(cycle)        # backend-specific simulation phases
        _end_of_cycle(cycle)      # leakage accrual / occupancy sampling
        stats.final_cycle = cycle + 1

and the idle skeleton (unconsumed schedule, NIC queues and backend pending
work, then source exhaustion, then router business).  Subclasses implement
``_step_cycle`` and the :meth:`MeshNetworkBase._pending_work` /
``_inject_from_nic`` hooks.

:class:`BaseNic` fixes event expansion (``_expand`` turns one injection
into queued packets; ``generate`` checks a node's injections against the
source-node invariant and expands them) plus the backlog/idle accessors.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.obs.events import TraceHub
from repro.sim.stats import NetworkStats
from repro.topology.base import Topology
from repro.topology.registry import topology_of
from repro.traffic.schedule import (
    Injection,
    Schedule,
    drain_trace,
    replay_synthetic,
    synthetic_key,
)
from repro.traffic.trace import SyntheticSource, TraceSource
from repro.util.errors import FabricError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.schedule import FaultSchedule
    from repro.obs.tracers import Tracer
    from repro.traffic.trace import TrafficSource
    from repro.util.geometry import MeshGeometry

#: Synthetic schedules by their pure key (``synthetic_key`` and the
#: generator), so the points of a sweep that share traffic (one seed,
#: pattern, grid, rates and window over several backends or fault rates)
#: build it once per process.  A run pops buckets from its own copy of the
#: outer dict and never mutates a bucket, so sharing them is safe.
_SCHEDULES: dict[tuple[Any, ...], Schedule] = {}


class BaseNic:
    """The one FIFO every backend NIC queues its packets in.

    The open-loop source never blocks (Booksim measurement methodology), so
    the queue is unbounded and Table 1/2's 50 NIC entries
    (:data:`~repro.photonics.constants.NIC_BUFFER_ENTRIES`) bound nothing a
    result can see.  Subclasses implement :meth:`_expand` to turn one
    injection into queued packets/flits, and their own injection discipline
    to drain the head into the network.
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
        self._queue: deque[Any] = deque()

    def generate(self, injections: list[Injection], cycle: int) -> None:
        """Expand this node's ``(node, destination, generated_cycle)``
        injections onto the queue."""
        for node, destination, generated_cycle in injections:
            if node != self.node:
                raise ValueError(f"injection for node {node} handed to NIC {self.node}")
            self._expand(destination, generated_cycle, cycle)

    def _expand(
        self, destination: int | None, generated_cycle: int, cycle: int
    ) -> None:
        """Append the packets/flits of one injection to the queue; a
        broadcast's ``destination`` is None."""
        raise NotImplementedError

    @property
    def backlog(self) -> int:
        """Packets waiting in this NIC."""
        return len(self._queue)

    def idle(self) -> bool:
        return not self._queue


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
        #: Compiled fault timeline, or None for fault-free physics; crossing
        #: faults are each backend's business.
        self._faults = faults if faults is not None and faults.enabled else None
        #: Packets hit by at least one fault, for delivered-despite-faults
        #: accounting at the backend's delivery sites.
        self._fault_hit: set[int] = set()
        #: The injection schedule by cycle, built from ``_ingested_source``
        #: on the first step that sees it (swapping ``source`` rebuilds it);
        #: None for a source with no bounded window, pulled cycle by cycle.
        self._events: dict[int, list[Injection]] | None = {}
        self._ingested_source: "TrafficSource | None" = None
        #: Scheduled injections not yet handed to a NIC.
        self._unconsumed = 0
        #: Nodes whose NIC holds packets: with the cycle's arrivals, the
        #: only nodes a cycle visits (an idle NIC's visit does nothing).
        self._nic_pending: set[int] = set()

    def add_tracer(self, tracer: "Tracer") -> None:
        """Attach a packet-lifecycle tracer (see :mod:`repro.obs`)."""
        self.trace_hub.add(tracer)

    # -- Clocked protocol ------------------------------------------------------

    def step(self, cycle: int) -> None:
        self._step_cycle(cycle)
        self._end_of_cycle(cycle)
        self.stats.final_cycle = cycle + 1

    # -- per-cycle hooks -------------------------------------------------------

    def _step_cycle(self, cycle: int) -> None:
        """The backend's simulation phases for one cycle."""
        raise NotImplementedError

    def _end_of_cycle(self, cycle: int) -> None:
        """End-of-cycle accrual (leakage, occupancy sampling)."""

    def _injections_at(self, cycle: int) -> list[Injection] | None:
        """This cycle's injections, node-ascending, or None for none.

        The schedule is built on the first cycle that sees the current
        source (see :mod:`repro.traffic.schedule`); a source with no
        bounded window is pulled node by node now, as it always was.
        """
        source = self.source
        if source is not self._ingested_source:
            self._ingested_source = source
            self._events, self._unconsumed = self._schedule(source, cycle)
        events = self._events
        if events is None:
            assert source is not None  # only a source makes ``_events`` None
            return [
                (node, event.destination, event.cycle)
                for node in range(len(self.nics))
                for event in source.injections(node, cycle)
            ] or None
        arrivals = events.pop(cycle, None)
        if arrivals is not None:
            self._unconsumed -= len(arrivals)
        return arrivals

    def _schedule(
        self, source: "TrafficSource | None", cycle: int
    ) -> tuple[dict[int, list[Injection]] | None, int]:
        """Materialise ``source`` from ``cycle`` on; None when it has no
        bounded window."""
        if source is None:
            return {}, 0
        if isinstance(source, TraceSource):
            return drain_trace(source, cycle)
        if isinstance(source, SyntheticSource) and source.stop_cycle is not None:
            generate = self._synthetic_generator(source)
            key = synthetic_key(source, cycle)
            if key is None:
                return generate(source, cycle)
            key += (generate,)
            schedule = _SCHEDULES.get(key)
            if schedule is None:
                if len(_SCHEDULES) >= 64:  # differential sweeps: bound the memo
                    _SCHEDULES.clear()
                schedule = _SCHEDULES[key] = generate(source, cycle)
            events, count = schedule
            return dict(events), count
        return None, 0

    def _synthetic_generator(
        self, source: SyntheticSource
    ) -> Callable[[SyntheticSource, int], Schedule]:
        """What builds a bounded synthetic source's schedule: the reference
        draws."""
        return replay_synthetic

    def _generate_and_inject(self, cycle: int) -> None:
        """Hand this cycle's injections to their NICs, then give every NIC
        that holds packets its injection opportunity."""
        arrivals = self._injections_at(cycle)
        if arrivals is not None or self._nic_pending:
            self._visit_nics(arrivals, cycle)

    def _visit_nics(self, arrivals: list[Injection] | None, cycle: int) -> None:
        """Visit, lowest node first, every node with arrivals or a non-idle
        NIC.  Skipping the rest is exact: a visit to an idle NIC emits,
        counts and draws nothing."""
        by_node: dict[int, list[Injection]] = {}
        if arrivals is not None:
            for injection in arrivals:
                run = by_node.get(injection[0])
                if run is None:
                    by_node[injection[0]] = [injection]
                else:
                    run.append(injection)
        for node in sorted(self._nic_pending.union(by_node)):
            self._visit(node, by_node.get(node), cycle)

    def _visit(self, node: int, run: list[Injection] | None, cycle: int) -> None:
        """One node's cycle: expand its arrivals onto the NIC queue, then
        give the NIC its injection opportunity."""
        nic = self.nics[node]
        if run:
            nic.generate(run, cycle)
        self._inject_from_nic(node, nic, cycle)
        if nic.idle():
            self._nic_pending.discard(node)
        else:
            self._nic_pending.add(node)

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
        if self._unconsumed or self._nic_pending or self._pending_work():
            return False
        if self.source is not None and not self.source.exhausted(cycle):
            return False
        return all(not router.busy for router in self.routers)

    def _pending_work(self) -> bool:
        """Backend-private in-flight state that must block :meth:`idle`."""
        raise NotImplementedError
