"""The vectorized batched Phastlane engine.

A fourth fabric backend that reproduces the physics of the reference
oracle (``PhastlaneNetwork``, ``tests/oracle``) — resolve / inject /
launch / waves, the rotating arbiter, drop-signal retransmission with
exponential backoff, the fault schedule, and the full energy ledger — at
10×+ the cycle rate.  The reference burns its wall time dispatching into
every router and NIC every cycle regardless of occupancy; this engine is
*sparse and event-driven over the same schedule*:

- traffic arrives through the injection schedule every mesh backend
  builds (:mod:`repro.traffic.schedule`; Philox in fast mode,
  :mod:`.traffic`), and an uncontended arrival skips the NIC queue;
- only routers in the ``_active`` set (non-empty queues or pending
  transmissions) are visited by the launch phase, in node order, so phase
  results are identical to the reference's visit-everyone loops; a router
  whose queue heads all wait out a backoff sleeps until the first is
  eligible, and resolve walks the packets of a router only when a drop
  signal names it;
- the rotating arbiter pointer is stored lazily (:class:`.components.VecRouter`),
  reproducing the reference's every-cycle advance without touching idle
  routers;
- a route is compiled once per pair into a flat
  :class:`~repro.vectorized.plans.PlanInfo`, looked up in a
  :class:`~repro.vectorized.plans.PlanTable` shared by every network on the
  same grid, and a packet keeps it for life: its position is ``(plan,
  origin, hop)`` and a flight stops at the final router or on the last wave;
- a snoopy broadcast is the section 2.1.4 fan-out: one multicast packet per
  column sweep whose plan carries a tap mask, a power-tap delivery at every
  marked router (first tap wins per broadcast and node), the marks of passed
  routers cleared on a resend, and the taps still ahead kept when an interim
  router takes the packet over;
- same-wave contenders for an output port are ranked by the paper's fixed
  priority, or by footnote 3's round-robin when a ``PhastlaneConfig`` asks
  for it: one pointer over the input ports per contention key, which every
  winner moves;
- an event's energy is one ``+=`` of its price in the reference's own
  price list (:func:`~repro.photonics.power.optical_prices`), in the
  reference's exact order, so the energy ledger is float-bit-identical,
  not just close.

Calibration claims (proven by ``tests/test_differential.py``):

- ``mode="exact"`` and all trace workloads in either mode: every stats
  field is bit-identical to the Phastlane backend;
- ``mode="fast"`` on supported synthetic workloads: the engine is the
  same, only the traffic schedule comes from the documented Philox stream
  (:func:`~repro.vectorized.traffic.philox_key`), so stats agree within
  tolerance bands, not bitwise.

Like the reference grid pipelines, non-grid topologies are refused with a
one-line ``FabricError``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.config import (
    BACKOFF_CAP_LOG2,
    BACKOFF_SEED,
    RETRY_PENALTY_CYCLES,
    PhastlaneConfig,
)
from repro.fabric.base import MeshNetworkBase
from repro.faults.schedule import FaultSchedule
from repro.obs.events import TraceHub
from repro.photonics.power import optical_prices
from repro.sim.rng import DeterministicRng
from repro.sim.stats import NetworkStats
from repro.traffic.schedule import Schedule
from repro.traffic.trace import SyntheticSource, TrafficSource

from repro.vectorized.components import (
    LOCAL_QUEUE,
    SCAN_ORDER,
    VecNic,
    VecPacket,
    VecRouter,
)
from repro.vectorized.config import VectorizedConfig
from repro.vectorized.plans import (
    RANK16,
    STOP,
    TAP_FLY,
    TAP_STOP,
    PlanInfo,
    PlanTable,
)
from repro.vectorized.traffic import philox_events, philox_supported

#: Pinned calibration stamp.  Bump when the engine's identity/tolerance
#: claims or the fast-mode traffic stream change; pinned byte-identical in
#: ``tests/test_fabric_regression.py``.
VECTORIZED_CALIBRATION = (
    "vectorized-1 exact=bit-identical "
    "fast=philox(sha256('{seed}/vectorized/{pattern}')[:8]) traces=bit-identical"
)

#: Plan tables shared across network instances: a plan is a pure function
#: of (grid kind, shape, source, destination, taps), so bench repeats,
#: hop-budget sweeps and differential sweeps re-use each other's routes
#: instead of recompiling them.  The plans in them are immutable.
_PLAN_CACHES: dict[tuple[str, int, int], PlanTable] = {}


class VectorizedNetwork(MeshNetworkBase):
    """Sparse event-driven Phastlane engine (see module docstring)."""

    def __init__(
        self,
        config: VectorizedConfig | PhastlaneConfig | None = None,
        source: TrafficSource | None = None,
        stats: NetworkStats | None = None,
        faults: FaultSchedule | None = None,
    ) -> None:
        super().__init__(config or VectorizedConfig(), source, stats, faults)
        config = self.config
        #: The two fields the config types do not share.  Philox traffic is
        #: a ``VectorizedConfig`` request; a ``PhastlaneConfig`` is exact
        #: replay.  Round-robin arbitration (paper footnote 3) is a
        #: ``PhastlaneConfig`` request: one pointer over the input ports per
        #: output port, by contention key, ``None`` under fixed priority.
        self._fast = isinstance(config, VectorizedConfig) and config.mode == "fast"
        self._rr_pointers: dict[int, int] | None = (
            {}
            if isinstance(config, PhastlaneConfig)
            and config.network_arbitration == "round_robin"
            else None
        )
        self.routers: list[VecRouter] = [
            VecRouter(node) for node in self.mesh.nodes()
        ]
        self.nics: list[VecNic] = [
            VecNic(node, self) for node in self.mesh.nodes()
        ]
        self._drop_signals: dict[int, int] = {}
        self._fault_drop_uids: set[int] = set()
        #: Routers whose pending transmissions a drop signal names.
        self._signalled: set[int] = set()
        #: Routers with queued packets or pending transmissions, except those
        #: whose queue heads all wait out a backoff; the only ones the launch
        #: phase visits.
        self._active: set[int] = set()
        #: Routers asleep in a backoff, by the cycle they rejoin ``_active``
        #: (an entry may be stale: the router woke early, and a visit to it
        #: that launches nothing is harmless).
        self._wakes: dict[int, list[int]] = {}
        self._next_uid = 0
        table_key = (self.topology.name, self.topology.width, self.topology.height)
        plans = _PLAN_CACHES.get(table_key)
        if plans is None:
            plans = _PLAN_CACHES[table_key] = PlanTable(self.topology)
        #: ``plans[source * num_nodes + destination]`` is the untapped route.
        self._plans = plans
        self._num_nodes = self.mesh.num_nodes
        #: Nodes each live broadcast still owes a delivery, as a bitmask by
        #: broadcast id; the entry goes when the last of them is tapped.  A
        #: tap at a node already served (the turn row lies on both vertical
        #: sweeps of a column) or of a finished broadcast delivers nothing.
        self._owed_taps: dict[int, int] = {}
        self._capacity = config.buffer_entries
        #: Routers that launched this cycle — exactly the ones with pending
        #: transmissions at the next resolve (appended in node order).
        self._pending_routers: list[VecRouter] = []
        #: The optical price list (the reference holds the same object).
        self.prices = optical_prices(self._num_nodes, config.max_hops_per_cycle)
        #: Laser charge of a launch, by its first segment's hops and taps.
        self._laser = self.prices.laser
        #: Output-port claims this cycle, as ``node * 4 + port`` ints.
        self._claims: set[int] = set()
        #: Total buffered packets across all routers (incremental; the
        #: reference recomputes this sum every cycle for occupancy stats).
        self._occupancy = 0

    # -- shared plumbing for the NICs ------------------------------------------

    def plan(self, source: int, destination: int) -> PlanInfo:
        """The compiled route (cached; raises ValueError on self-traffic)."""
        return self._plans.plan(source, destination)

    def begin_broadcast(self, broadcast_id: int, source: int) -> tuple[PlanInfo, ...]:
        """Open the delivery ledger of one broadcast from ``source`` — every
        other node is owed it — and return its tapped plans (cached)."""
        self._owed_taps[broadcast_id] = ((1 << self._num_nodes) - 1) ^ (1 << source)
        return self._plans.broadcast(source)

    def take_uid(self) -> int:
        uid = self._next_uid
        self._next_uid = uid + 1
        return uid

    # -- traffic (MeshNetworkBase) ----------------------------------------------

    def _synthetic_generator(
        self, source: SyntheticSource
    ) -> Callable[[SyntheticSource, int], Schedule]:
        """Fast mode draws the Philox stream where it can."""
        if self._fast and philox_supported(source):
            return philox_events
        return super()._synthetic_generator(source)

    # -- per-cycle hooks (MeshNetworkBase) --------------------------------------

    def _step_cycle(self, cycle: int) -> None:
        hub = self.trace_hub if self.trace_hub else None
        self._resolve_drop_signals(cycle, hub)
        self._sparse_inject(cycle, hub)
        flights = self._launch_transmissions(cycle, hub)
        if flights:
            self._run_waves(flights, cycle, hub)

    def _end_of_cycle(self, cycle: int) -> None:
        stats = self.stats
        stats.energy_pj["static"] += self.prices.static
        stats.buffer_occupancy_samples.add(self._occupancy)

    # -- cycle phases -----------------------------------------------------------

    def _resolve_drop_signals(self, cycle: int, hub: TraceHub | None) -> None:
        signals = self._drop_signals
        fault_uids = self._fault_drop_uids
        signalled = self._signalled
        pending_routers = self._pending_routers
        if signals:
            self._drop_signals = {}
            self._fault_drop_uids = set()
            self._signalled = set()
        active = self._active
        retry_limit = (
            self._faults.config.retry_limit if self._faults is not None else None
        )
        stats = self.stats
        # Launch appends in ascending node order, so this visit order
        # matches the reference's every-router sweep.
        for router in pending_routers:
            node = router.node
            if node not in signalled:
                # No drop signal names this router: every pending
                # transmission silently confirms (resolve runs before
                # launch, so nothing in pending was launched this cycle),
                # and no RNG draws, stats or emits happen on confirmation.
                router.pending.clear()
                router.pending_by_queue[:] = (0, 0, 0, 0, 0)
                if router.queued == 0:
                    # Fully drained: retire here so the launch scan never
                    # has to visit it again.
                    active.discard(node)
                continue
            pending = router.pending
            still_pending: list[VecPacket] = []
            retries: list[VecPacket] = []
            abandoned: list[VecPacket] = []
            pending_by_queue = router.pending_by_queue
            for packet in pending:
                if packet.launched >= cycle:
                    still_pending.append(packet)  # launched this very cycle
                    continue
                queue_id = packet.queue_id
                drop_index = signals.get(packet.uid)
                if drop_index is None:
                    # Delivered or responsibility transferred: the pending
                    # slot frees, releasing its buffer hold.
                    pending_by_queue[queue_id] -= 1
                    continue
                packet.attempts += 1
                if retry_limit is not None and packet.attempts > retry_limit:
                    pending_by_queue[queue_id] -= 1
                    abandoned.append(packet)
                    continue
                rng = router.rng
                if rng is None:
                    rng = router.rng = DeterministicRng(
                        BACKOFF_SEED, f"router{node}/backoff"
                    )
                window = 1 << min(packet.attempts - 1, BACKOFF_CAP_LOG2)
                packet.eligible = cycle + (
                    RETRY_PENALTY_CYCLES * window
                    + rng.randrange(RETRY_PENALTY_CYCLES)
                )
                router.queues[queue_id].appendleft(packet)
                router.mask |= 1 << queue_id
                pending_by_queue[queue_id] -= 1
                router.queued += 1
                self._occupancy += 1
                retries.append(packet)
            router.pending = still_pending
            if retries:
                active.add(node)
            for packet in retries:
                stats.record_retransmission()
                if hub:
                    hub.emit(
                        "retransmitted", cycle, node, packet.uid,
                        extra={"attempts": packet.attempts},
                    )
                if packet.uid in fault_uids:
                    stats.record_fault_masked()
                    if hub:
                        hub.emit("fault_masked", cycle, node, packet.uid)
                if packet.plan.taps:
                    # Section 2.1.4: the routers before the dropper were
                    # tapped; the resend does not tap them again.
                    packet.plan = self._plans.cleared(
                        packet.plan, signals[packet.uid]
                    )
            if retry_limit is not None:
                for packet in abandoned:
                    # An abandoned multicast loses the taps it never reached.
                    lost = (
                        1
                        if packet.broadcast_id < 0
                        else (packet.plan.taps >> signals[packet.uid]).bit_count()
                    )
                    stats.record_fault_loss(lost)
                    if hub:
                        hub.emit(
                            "fault_dropped", cycle, node, packet.uid,
                            extra={"lost": lost, "attempts": packet.attempts},
                        )
        pending_routers.clear()

    def _sparse_inject(self, cycle: int, hub: TraceHub | None) -> None:
        """Per-node injection over the schedule.

        When no NIC carries a backlog, the common case — one arrival for a
        node whose LOCAL queue has space — goes straight into the router
        without touching the NIC queue; broadcasts and multi-arrival runs
        take the shared per-node visit
        (:meth:`~repro.fabric.base.MeshNetworkBase._visit`).  Otherwise every
        node with work takes it (:meth:`_visit_nics`)."""
        injections = self._injections_at(cycle)
        nic_pending = self._nic_pending
        if nic_pending:
            self._visit_nics(injections, cycle)
            return
        if injections is None:
            return
        stats = self.stats
        routers = self.routers
        plans = self._plans
        num_nodes = self._num_nodes
        capacity = self.config.buffer_entries
        active = self._active
        uid = self._next_uid
        generated = 0
        injected = 0
        index = 0
        total = len(injections)
        while index < total:
            node, destination, generated_cycle = injections[index]
            index += 1
            if destination is None or (
                index < total and injections[index][0] == node
            ):
                # A broadcast, or a multi-arrival run for one node
                # (bursty traces): hand the node's whole run to the
                # generic NIC path.
                end = index
                while end < total and injections[end][0] == node:
                    end += 1
                self._next_uid = uid
                stats.packets_generated += generated
                stats.packets_injected += injected
                generated = injected = 0
                self._visit(node, injections[index - 1 : end], cycle)
                uid = self._next_uid
                index = end
                continue
            route = plans[node * num_nodes + destination]
            # Generation/injection tallies are plain integer adds, so
            # batching them per cycle is exact (unlike the float ledger).
            generated += 1
            packet = VecPacket(uid, route, generated_cycle)
            uid += 1
            if hub:
                hub.emit(
                    "generated", cycle, node, packet.uid,
                    extra={"dst": route.final},
                )
            router = routers[node]
            local = router.queues[LOCAL_QUEUE]
            if (
                capacity is None
                or len(local) + router.pending_by_queue[LOCAL_QUEUE]
                < capacity
            ):
                packet.eligible = cycle
                local.append(packet)
                router.mask |= 16
                router.queued += 1
                self._occupancy += 1
                active.add(node)
                injected += 1
                if hub:
                    hub.emit("injected", cycle, node, packet.uid)
            else:
                self.nics[node]._queue.append(packet)
                nic_pending.add(node)
        self._next_uid = uid
        stats.packets_generated += generated
        stats.packets_injected += injected

    def _inject_from_nic(self, node: int, nic: VecNic, cycle: int) -> None:
        """One packet per cycle from the NIC into the LOCAL queue, space
        permitting (mirrors ``PhastlaneNic.feed_router``)."""
        queue = nic._queue
        if queue:
            router = self.routers[node]
            capacity = self.config.buffer_entries
            if (
                capacity is None
                or len(router.queues[LOCAL_QUEUE])
                + router.pending_by_queue[LOCAL_QUEUE]
                < capacity
            ):
                packet: VecPacket = queue.popleft()
                packet.eligible = cycle
                router.queues[LOCAL_QUEUE].append(packet)
                router.mask |= 16
                router.queued += 1
                self._occupancy += 1
                self._active.add(node)
                self.stats.record_injected(cycle)
                if self.trace_hub:
                    self.trace_hub.emit("injected", cycle, node, packet.uid)

    def _launch_transmissions(
        self, cycle: int, hub: TraceHub | None
    ) -> list[VecPacket]:
        claims: set[int] = set()
        self._claims = claims
        flights: list[VecPacket] = []
        active = self._active
        woken = self._wakes.pop(cycle, None)
        if woken is not None:
            active.update(woken)
        if not active:
            return flights
        routers = self.routers
        energy = self.stats.energy_pj
        e_modulator = self.prices.modulator
        e_buffer_read = self.prices.buffer_read
        laser = self._laser
        max_hops = self.config.max_hops_per_cycle
        pending_routers = self._pending_routers
        scan_order = SCAN_ORDER
        wakes = self._wakes
        retired: list[int] | None = None
        # Ledger keys this loop touches, accumulated locally in the exact
        # per-launch add order (same float sequence, fewer dict hits) and
        # stored back only if something launched (so no zero entries
        # appear that the reference would not have created).
        modulator_sum = energy["modulator"]
        buffer_read_sum = energy["buffer_read"]
        laser_sum = energy["laser"]
        total_launched = 0
        for node in sorted(active):
            router = routers[node]
            if router.queued == 0:
                if not router.pending:
                    if retired is None:
                        retired = [node]
                    else:
                        retired.append(node)
                continue
            queues = router.queues
            pointer = (
                router.pointer + cycle - router.pointer_cycle - 1
            ) % 5
            first_served = -1
            claimed_outputs = 0
            launched = 0
            for queue_id in scan_order[pointer][router.mask]:
                queue = queues[queue_id]
                packet = queue[0]
                if packet.eligible > cycle:
                    continue
                plan = packet.plan
                origin = packet.origin
                claim = plan.route[origin]
                bit = 1 << (claim & 3)
                if claimed_outputs & bit:
                    continue
                queue.popleft()
                if not queue:
                    router.mask &= ~(1 << queue_id)
                claimed_outputs |= bit
                launched += 1
                packet.queue_id = queue_id
                packet.launched = cycle
                packet.hop = origin
                router.pending.append(packet)
                router.pending_by_queue[queue_id] += 1
                if first_served < 0:
                    first_served = queue_id
                # Network-side per-selection effects, in reference order:
                # transmit charges, port claim, transit record.
                modulator_sum += e_modulator
                buffer_read_sum += e_buffer_read
                # The laser feeds the segment this launch can fly (to the
                # last wave or the final router) and the taps on it: the
                # reference's ``_first_segment``, indexed as the price list is.
                segment = plan.length - 1 - origin
                if segment > max_hops:
                    segment = max_hops
                charge = segment * (segment + 1) // 2
                if plan.taps:
                    charge += (
                        plan.taps >> (origin + 1) & ((1 << segment) - 1)
                    ).bit_count()
                laser_sum += laser[charge]
                claims.add(claim)
                flights.append(packet)
            if launched:
                total_launched += launched
                router.queued -= launched
                self._occupancy -= launched
                pending_routers.append(router)
            else:
                # Every head waits out a backoff: the router sleeps until
                # the first of them is eligible, or until a packet joins
                # one of its queues.  The lazy pointer advances over the
                # cycles it is not scanned, as this scan would advance it.
                wake = min(
                    queues[queue_id][0].eligible
                    for queue_id in scan_order[0][router.mask]
                )
                sleepers = wakes.get(wake)
                if sleepers is None:
                    wakes[wake] = [node]
                else:
                    sleepers.append(node)
                if retired is None:
                    retired = [node]
                else:
                    retired.append(node)
            router.pointer = (
                (first_served + 1) % 5 if first_served >= 0 else (pointer + 1) % 5
            )
            router.pointer_cycle = cycle
        if retired:
            active.difference_update(retired)
        if total_launched:
            energy["modulator"] = modulator_sum
            energy["buffer_read"] = buffer_read_sum
            energy["laser"] = laser_sum
        return flights

    def _run_waves(
        self, flights: list[VecPacket], cycle: int, hub: TraceHub | None
    ) -> None:
        """Advance ``flights`` up to ``max_hops_per_cycle`` optical waves.

        One loop serves every run.  The fault-free, untraced unicast bench
        path pays two ``is not None`` tests per crossing, for the cycle's
        fault lookup (a faulted run's crossing is one dict lookup) and the
        emits, and one bool for the last wave: every flight
        launched at wave 0, so whatever still flies there is
        ``max_hops_per_cycle`` routers from its origin — the reference's
        periodic Local mark, which the shared plan does not carry — and
        stops as if its key said so.  A power tap is found by the same
        ``key < 0`` test that finds a stop.  Everything else is shared, so
        there is no second copy to keep in step with the reference.
        """
        faults = self._faults
        fault_at = faults.cycle_lookup(cycle) if faults is not None else None
        fault_hit = self._fault_hit
        stats = self.stats
        energy = stats.energy_pj
        claims = self._claims
        claims_add = claims.add
        e_receive_control = self.prices.receive_control
        e_receive_packet = self.prices.receive_packet
        buffer_or_drop = self._buffer_or_drop
        # Delivery accounting inlined from ``NetworkStats.record_delivered``
        # / ``LatencyStats.record``: the float running-mean updates keep
        # their per-delivery order; the integer hop and delivered tallies
        # are batched at the end (exact for ints).  The receiver ledger —
        # which nothing called from here touches — is likewise summed
        # locally in per-event order and stored once.
        measurement_start = stats.measurement_start
        mean = stats.latency.mean
        histogram = stats.latency.histogram
        buckets = histogram._buckets
        delivered = 0
        hops = 0
        receiver_sum = energy["receiver"]
        owed_taps = self._owed_taps
        record_tap_delivery = stats.record_delivered
        pointers = self._rr_pointers
        active = flights
        last_wave = self.config.max_hops_per_cycle - 1
        for wave in range(last_wave + 1):
            stopping = wave == last_wave
            # Contention groups in arrival order: a lone contender is
            # stored bare; a second arrival promotes the slot to a list
            # (collisions are rare, so most keys never allocate one).
            contenders: dict[int, Any] = {}
            contenders_get = contenders.get
            hops += len(active)  # minus the crossings that fault, below
            for packet in active:
                index = packet.hop + 1
                packet.hop = index
                plan = packet.plan
                if fault_at is not None:
                    kind = fault_at(plan.route[index - 1])
                    if kind is not None:
                        hops -= 1
                        self._fault_crossing(packet, plan, index, kind, cycle, hub)
                        continue
                if hub is not None:
                    node = plan.route[index] >> 2
                    hub.emit("hop", cycle, plan.final if node < 0 else node, packet.uid)
                receiver_sum += e_receive_control
                key = plan.keys[index]
                if stopping:
                    if key >= 0:
                        key = STOP
                    elif key <= TAP_FLY:
                        key = TAP_STOP
                if key < 0:
                    if key == STOP:
                        receiver_sum += e_receive_packet
                        if index != plan.length - 1:
                            buffer_or_drop(packet, cycle, hub)
                            continue
                        if packet.broadcast_id >= 0:
                            continue  # a multicast records at its taps only
                        delivered += 1
                        generated_cycle = packet.generated_cycle
                        if generated_cycle >= measurement_start:
                            latency = cycle - generated_cycle + 1
                            count = mean.count + 1
                            mean.count = count
                            mean.mean += (latency - mean.mean) / count
                            if latency < mean.min:
                                mean.min = latency
                            if latency > mean.max:
                                mean.max = latency
                            buckets[latency] += 1
                            histogram.count += 1
                        if faults is not None and packet.uid in fault_hit:
                            stats.record_fault_survivor()
                        if hub is not None:
                            hub.emit("delivered", cycle, plan.final, packet.uid)
                        continue
                    # A power tap (``PlanInfo.keys``), in the reference's
                    # order: the tap is a second receiver, the first tap
                    # wins per broadcast and node, then the Local stop or
                    # the next crossing.
                    receiver_sum += e_receive_packet
                    node = plan.route[index] >> 2
                    if node < 0:
                        node = plan.final
                    broadcast_id = packet.broadcast_id
                    owed = owed_taps.get(broadcast_id, 0)
                    bit = 1 << node
                    if owed & bit:
                        if owed == bit:
                            del owed_taps[broadcast_id]
                        else:
                            owed_taps[broadcast_id] = owed ^ bit
                        record_tap_delivery(packet.generated_cycle, cycle)
                        if faults is not None and packet.uid in fault_hit:
                            stats.record_fault_survivor()
                        if hub is not None:
                            hub.emit("delivered", cycle, node, packet.uid)
                    if key == TAP_STOP:
                        # The final stop records nothing more: its tap did.
                        receiver_sum += e_receive_packet
                        if index != plan.length - 1:
                            buffer_or_drop(packet, cycle, hub)
                        continue
                    key = TAP_FLY - key
                group = contenders_get(key)
                if group is None:
                    contenders[key] = packet
                elif type(group) is list:
                    group.append(packet)
                else:
                    contenders[key] = [group, packet]
            # Resolving contention only reads and extends the claims, so
            # the losers can be handled after it, in the same order.
            continuing: list[VecPacket] = []
            blocked: list[VecPacket] = []
            for key, group in contenders.items():
                if type(group) is list:
                    if key in claims:
                        blocked += group
                        continue
                    if pointers is None:
                        group.sort(key=_priority_key)
                    else:
                        pointer = pointers.get(key, 0)
                        group.sort(
                            key=lambda packet: (
                                (packet.plan.route[packet.hop - 1] & 3) - pointer
                            ) % 4
                        )
                    claims_add(key)
                    continuing.append(group[0])
                    blocked += group[1:]
                elif key in claims:
                    blocked.append(group)
                else:
                    claims_add(key)
                    continuing.append(group)
            if pointers is not None:
                # Every winner, a lone one too, moves its port's pointer to
                # the input after the one it came in by.
                for packet in continuing:
                    route = packet.plan.route
                    index = packet.hop
                    pointers[route[index]] = ((route[index - 1] & 3) + 1) % 4
            for packet in blocked:
                if hub is not None:
                    hub.emit(
                        "blocked", cycle, packet.plan.route[packet.hop] >> 2, packet.uid
                    )
                receiver_sum += e_receive_packet
                buffer_or_drop(packet, cycle, hub)
            active = continuing
            if not active:
                break
        if hops:
            # Every counted crossing charged the receiver; with none (all
            # flights faulted on the first wave) the ledger key must not
            # appear, as in the reference.
            energy["receiver"] = receiver_sum
            stats.hops_traversed += hops
        stats.packets_delivered += delivered
        if active:  # pragma: no cover - plans guarantee termination
            raise RuntimeError(
                f"transits exceeded the {self.config.max_hops_per_cycle}-hop "
                f"budget: {[packet.uid for packet in active]}"
            )

    def _fault_crossing(
        self,
        packet: VecPacket,
        plan: PlanInfo,
        index: int,
        kind: str,
        cycle: int,
        hub: TraceHub | None,
    ) -> None:
        """Drop ``packet``, whose crossing out of router ``index - 1`` the
        fault schedule failed with ``kind``."""
        previous_node, previous_exit = divmod(plan.route[index - 1], 4)
        stats = self.stats
        stats.record_fault(kind)
        self._fault_hit.add(packet.uid)
        stats.record_dropped()
        self._drop_signals[packet.uid] = index
        self._signalled.add(plan.route[packet.origin] >> 2)
        self._fault_drop_uids.add(packet.uid)
        stats.energy_pj["drop_network"] += self.prices.drop_signal
        if hub:
            hub.emit(
                "fault_injected", cycle, previous_node, packet.uid,
                extra={
                    "fault": kind,
                    "port": self.topology.port_label(previous_node, previous_exit),
                },
            )
            hub.emit("dropped", cycle, previous_node, packet.uid)

    # -- transit outcomes -------------------------------------------------------

    def _buffer_or_drop(
        self, packet: VecPacket, cycle: int, hub: TraceHub | None
    ) -> None:
        route = packet.plan.route
        index = packet.hop
        # Never the final router: a packet buffers or drops short of it.
        node = route[index] >> 2
        queue_id = route[index - 1] & 3
        router = self.routers[node]
        capacity = self._capacity
        if (
            capacity is None
            or len(router.queues[queue_id]) + router.pending_by_queue[queue_id]
            < capacity
        ):
            # The buffering router assumes responsibility and resends on
            # the rest of this route (what ``replan_from`` builds afresh).
            packet.origin = index
            packet.eligible = cycle + 1
            router.queues[queue_id].append(packet)
            router.mask |= 1 << queue_id
            router.queued += 1
            self._occupancy += 1
            self._active.add(node)
            self.stats.energy_pj["buffer_write"] += self.prices.buffer_write
            if hub:
                hub.emit("buffered", cycle, node, packet.uid)
            return
        self.stats.record_dropped()
        self._drop_signals[packet.uid] = index
        self._signalled.add(route[packet.origin] >> 2)
        self.stats.energy_pj["drop_network"] += self.prices.drop_signal
        if hub:
            hub.emit("dropped", cycle, node, packet.uid)

    # -- run control ------------------------------------------------------------

    def _pending_work(self) -> bool:
        """Drop signals in flight, routers with pending packets, and queued
        packets, asleep or not (so the base's router scan runs only once
        all are idle)."""
        return bool(self._drop_signals or self._active or self._occupancy)


def _priority_key(packet: VecPacket) -> tuple[int, int]:
    """Fixed-priority rank: straight beats turns, then input-port order."""
    route = packet.plan.route
    index = packet.hop
    arrival = route[index - 1] & 3
    return (RANK16[arrival * 4 + (route[index] & 3)], arrival)
