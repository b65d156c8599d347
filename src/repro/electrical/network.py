"""The electrical baseline mesh network: routers, NICs, links and events.

The network is a single :class:`~repro.sim.engine.Clocked` component; all
cross-router effects (flit arrivals, credits, ejections) travel through
cycle-stamped event queues and apply at the *start* of their target cycle,
so per-cycle router evaluation order cannot affect results.

Per-cycle order of operations:

1. apply events due this cycle (arrivals into input VCs, credit returns,
   ejection completions -> deliveries);
2. pull trace/synthetic injections into the NICs;
3. inject up to one flit per node into a free local-port VC;
4. run each router's VC allocation, switch allocation and departures;
5. accrue leakage.
"""

from __future__ import annotations

from collections import defaultdict

from repro.electrical.config import CREDIT_DELAY_CYCLES, ElectricalConfig
from repro.electrical.flit import Flit
from repro.electrical.nic import ElectricalNic
from repro.electrical.power import event_energies_pj
from repro.electrical.router import LOCAL_PORT, MESH_PORTS, ElectricalRouter
from repro.electrical.vctm import VirtualCircuitTreeCache
from repro.fabric.base import MeshNetworkBase
from repro.faults.schedule import FaultSchedule
from repro.sim.stats import NetworkStats
from repro.traffic.trace import TrafficSource


class ElectricalNetwork(MeshNetworkBase):
    """A mesh of :class:`ElectricalRouter` driven by a traffic source."""

    def __init__(
        self,
        config: ElectricalConfig | None = None,
        source: TrafficSource | None = None,
        stats: NetworkStats | None = None,
        faults: FaultSchedule | None = None,
    ):
        super().__init__(config or ElectricalConfig(), source, stats, faults)
        #: Energy of one event of each category, priced once: the kernel
        #: charges an event as one ``+=`` of its constant.  One addition per
        #: event, never ``n * e``: the ledger's floats are chains of
        #: additions and must stay the same chains.
        self.event_pj = event_energies_pj(self.mesh.num_nodes)
        self.vctm = VirtualCircuitTreeCache()
        self.routers = [
            ElectricalRouter(node, self.config, topology=self.topology)
            for node in self.mesh.nodes()
        ]
        self.nics = [
            ElectricalNic(
                node,
                self.config,
                self.stats,
                self.vctm,
                trace_hub=self.trace_hub,
                uids=self.uids,
            )
            for node in self.mesh.nodes()
        ]
        self._arrivals: dict[int, list[tuple[int, int, int, Flit]]] = defaultdict(list)
        self._credits: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        self._ejections: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        #: Whether the hub has tracers this cycle (they attach between
        #: cycles only), read once per cycle rather than at every emit site.
        self._traced = False
        #: Link-level retries after a faulted crossing, keyed by the cycle
        #: the nack round trip completes: (sender, neighbor, port, vc,
        #: flit, attempts so far).
        self._link_retries: dict[
            int, list[tuple[int, int, int, int, Flit, int]]
        ] = defaultdict(list)

    # -- link faults and ejections -------------------------------------------

    def _handle_link_fault(
        self,
        cycle: int,
        sender: int,
        neighbor: int,
        port: int,
        vc: int,
        flit: Flit,
        kind: str,
        attempts: int,
    ) -> None:
        """One faulted crossing: nack/resend, or give up at the retry limit.

        The baseline's recovery is link-level retry: the downstream CRC
        check nacks the lost flit and the sender re-drives it after a nack
        round trip (two link delays).  The downstream VC
        reserved at allocation stays reserved across retries — the resent
        flit lands in it — and is explicitly re-credited when the flit is
        abandoned, since no drain-credit will ever come back for a flit
        that never arrived.
        """
        assert self._faults is not None
        self.stats.record_fault(kind)
        self._fault_hit.add(flit.uid)
        if self.trace_hub:
            self.trace_hub.emit(
                "fault_injected", cycle, sender, flit.uid,
                extra={
                    "fault": kind,
                    # Topology-derived label of the faulted crossing (the
                    # sender's output port), correct on wrapped graphs.
                    "port": self.topology.port_label(sender, port),
                },
            )
        if attempts > self._faults.config.retry_limit:
            self.stats.record_fault_loss(len(flit.destinations))
            if self.trace_hub:
                self.trace_hub.emit(
                    "fault_dropped", cycle, sender, flit.uid,
                    extra={"lost": len(flit.destinations), "attempts": attempts},
                )
            self.routers[sender].restore_credit(port, vc)
            return
        self.stats.record_retransmission()
        if self.trace_hub:
            self.trace_hub.emit(
                "retransmitted", cycle, sender, flit.uid,
                extra={"attempts": attempts},
            )
        retry_cycle = cycle + 2 * self.config.router_delay_cycles
        self._link_retries[retry_cycle].append(
            (sender, neighbor, port, vc, flit, attempts)
        )

    def schedule_ejection(self, cycle: int, node: int, port: int, vc: int) -> None:
        """The flit in that VC reaches ``node``'s processor at ``cycle``."""
        self._ejections[cycle].append((node, port, vc))

    # -- per-cycle hooks (MeshNetworkBase) --------------------------------------

    def _step_cycle(self, cycle: int) -> None:
        # The queues this cycle's departures and freed VCs join, dropped
        # again if nothing did: ``_pending_work`` reads their keys.
        landing = cycle + self.config.router_delay_cycles
        credit_cycle = cycle + CREDIT_DELAY_CYCLES
        arrivals, credits = self._arrivals[landing], self._credits[credit_cycle]
        self._traced = bool(self.trace_hub)
        self._apply_events(cycle, credits)
        self._generate_and_inject(cycle)
        for router in self.routers:
            if router._active:  # an idle router costs no call
                router.tick(cycle, self, arrivals, credits)
        if not arrivals:
            del self._arrivals[landing]
        if not credits:
            del self._credits[credit_cycle]

    def _end_of_cycle(self, cycle: int) -> None:
        self.stats.energy_pj["leakage"] += self.event_pj["leakage"]

    # -- internals ---------------------------------------------------------------

    def _apply_events(self, cycle: int, credits: list[tuple[int, int, int]]) -> None:
        """Apply the events due at ``cycle``; an ejection that frees its VC
        queues the credit on ``credits``."""
        hub, traced = self.trace_hub, self._traced
        for sender, neighbor, port, vc, flit, attempts in self._link_retries.pop(
            cycle, ()
        ):
            assert self._faults is not None
            kind = self._faults.crossing_fault(sender, port, cycle)
            if kind is not None:
                self._handle_link_fault(
                    cycle, sender, neighbor, port, vc, flit, kind, attempts + 1
                )
                continue
            self.stats.record_fault_masked()
            landing = cycle + self.config.router_delay_cycles
            self._arrivals[landing].append((neighbor, port, vc, flit))
            if traced:
                hub.emit("fault_masked", cycle, sender, flit.uid)
                hub.emit("hop", landing, neighbor, flit.uid)
        routers, stats = self.routers, self.stats
        for node, port, vc, flit in self._arrivals.pop(cycle, ()):
            routers[node].accept_flit(port, vc, flit, cycle, self)
            if traced:
                hub.emit("buffered", cycle, node, flit.uid)
        for node, input_port, vc in self._credits.pop(cycle, ()):
            upstream = routers[node].upstream[input_port]
            if upstream is None:
                raise RuntimeError(
                    f"credit from node {node} port {input_port} has no upstream"
                )
            routers[upstream].restore_credit(input_port, vc)
        for node, port, vc in self._ejections.pop(cycle, ()):
            flit = routers[node].complete_ejection(port, vc, self, credits)
            stats.record_delivered(flit.generated_cycle, cycle)
            self._note_fault_delivery(flit.uid)
            if traced:
                hub.emit("delivered", cycle, node, flit.uid)

    def _inject_from_nic(self, node: int, nic: ElectricalNic, cycle: int) -> None:
        """Inject the head flit into a free local-port VC, if any."""
        flit = nic.next_injectable(cycle)
        if flit is None:
            return
        router = self.routers[node]
        vc = router.find_free_vc(LOCAL_PORT)
        if vc is None:
            # All local-port VCs busy; retry next cycle.
            if self.trace_hub:
                self.trace_hub.emit("blocked", cycle, node, flit.uid)
            return
        nic.consume_head(cycle)
        router.accept_flit(LOCAL_PORT, vc, flit, cycle, self)

    # -- health audit -------------------------------------------------------------

    def credit_audit(self, limit: int) -> list[tuple[int, str]]:
        """The first ``limit`` credit violations, as ``(node, message)``.

        For every mesh output port and VC, a withheld credit (bit ``vc`` of
        ``router.free_vcs[port]`` clear) must be *explained* by exactly the
        mechanisms that legitimately hold one: a local VC-allocation
        reservation, a flit in flight on the link, an occupied downstream
        input VC, a credit return still queued, or a pending link-level
        retry.  An unexplained clear bit is a leaked credit: the port's
        capacity silently shrank.  An *available* credit while the
        downstream VC is occupied is a double credit in the making.
        Violations come in router, port, VC order; the audit only reads.
        """
        routers = self.routers
        occupied: set[tuple[int, int, int]] = set()
        explained: set[tuple[int, int, int]] = set()
        for router in routers:
            for line, flit in enumerate(router.flits):
                if flit is None:
                    continue
                for output in MESH_PORTS:
                    out_vc = router.out_vc[output][line]
                    if out_vc >= 0:
                        explained.add((router.node, output, out_vc))
                port, vc = divmod(line, router.num_vcs)
                if port != LOCAL_PORT and router.upstream[port] is not None:
                    occupied.add((router.upstream[port], port, vc))
        in_transit = [
            (node, port, vc)
            for events in self._arrivals.values()
            for node, port, vc, _flit in events
        ] + [event for events in self._credits.values() for event in events]
        for node, port, vc in in_transit:
            upstream = routers[node].upstream[port]
            if upstream is not None:
                explained.add((upstream, port, vc))
        for events in self._link_retries.values():
            for sender, _neighbor, port, vc, _flit, _attempts in events:
                explained.add((sender, port, vc))
        explained |= occupied

        violations: list[tuple[int, str]] = []
        for router in routers:
            node = router.node
            for port in MESH_PORTS:
                for vc in range(router.num_vcs):
                    key = (node, port, vc)
                    if not router.free_vcs[port] >> vc & 1:
                        if key in explained:
                            continue
                        problem = (
                            "credit leaked on port {} vc {}: withheld with no "
                            "reservation, in-flight flit, occupied VC or "
                            "pending return"
                        )
                    elif key in occupied:
                        problem = (
                            "double credit on port {} vc {}: available while "
                            "the downstream VC is occupied"
                        )
                    else:
                        continue
                    label = self.topology.port_label(node, port)
                    violations.append((node, problem.format(label, vc)))
                    if len(violations) == limit:
                        return violations
        return violations

    # -- run control ----------------------------------------------------------------

    def _pending_work(self) -> bool:
        """In-flight link traversals and scheduled events block :meth:`idle`."""
        return bool(
            self._arrivals
            or self._ejections
            or self._credits
            or self._link_retries
        )
