"""System-level property-based tests (hypothesis).

These drive both simulators with randomized workloads, mesh shapes and
configurations and check conservation invariants the architecture must
uphold regardless of contention: no packet is lost or duplicated, buffers
never exceed capacity, and delivery latency is bounded below by the
physical minimum.
"""

from contextlib import nullcontext
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle.network import PhastlaneNetwork
from oracle.routing import max_segment_hops
from repro.core.config import PhastlaneConfig
from repro.core.routing import build_plan
from repro.electrical.config import ElectricalConfig
from repro.electrical.network import ElectricalNetwork
from repro.fabric.ideal import IdealConfig
from repro.fabric.registry import BACKENDS, make_network
from repro.faults.config import FaultConfig
from repro.sim.engine import SimulationEngine
from repro.traffic.trace import Trace, TraceEvent, TraceSource
from repro.util.errors import FabricError
from repro.util.geometry import MeshGeometry
from repro.vectorized.config import VectorizedConfig

from helpers import mesh_hop_count, reference_oracle

SLOW = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

mesh_shapes = st.sampled_from([(2, 2), (4, 4), (4, 2), (8, 8), (3, 5)])
hop_budgets = st.sampled_from([1, 2, 4, 5, 8])
buffer_sizes = st.sampled_from([1, 2, 10, None])
#: Topologies the cycle-accurate pipelines support (grid graphs).
grid_topologies = st.sampled_from(["mesh", "torus"])


def burst_trace(mesh: MeshGeometry, seed: int, packets: int) -> Trace:
    """A deterministic all-at-once burst: maximal transient contention."""
    events = []
    n = mesh.num_nodes
    for index in range(packets):
        src = (seed + index) % n
        dst = (seed + 3 * index + 1) % n
        if src != dst:
            events.append(TraceEvent(0, src, dst))
    return Trace("burst", n, events=events)


def build(kind, config, source, faults):
    """``make_network``, on the oracle for the ``"reference"`` kind."""
    with reference_oracle() if kind == "reference" else nullcontext():
        network = make_network(config, source, faults=faults)
    assert (type(network) is PhastlaneNetwork) == (kind == "reference")
    return network


def run_network(network, trace, max_extra=100_000):
    engine = SimulationEngine()
    engine.register(network)
    engine.run(trace.last_cycle + 1)
    assert engine.run_until(lambda: network.idle(engine.cycle), max_extra)
    return engine


class TestOpticalConservation:
    @SLOW
    @given(
        mesh_shapes, hop_budgets, buffer_sizes, grid_topologies,
        st.integers(0, 1000),
    )
    def test_every_packet_delivered_exactly_once(
        self, shape, max_hops, buffers, topology, seed
    ):
        mesh = MeshGeometry(*shape)
        trace = burst_trace(mesh, seed, packets=3 * mesh.num_nodes)
        config = PhastlaneConfig(
            mesh=mesh, max_hops_per_cycle=max_hops, buffer_entries=buffers,
            topology=topology,
        )
        network = PhastlaneNetwork(config, TraceSource(trace))
        run_network(network, trace)
        assert network.stats.packets_delivered == len(trace)

    @SLOW
    @given(mesh_shapes, hop_budgets, st.integers(0, 1000))
    def test_latency_at_least_segment_count(self, shape, max_hops, seed):
        """A packet needs at least ceil(hops / max_hops) cycles."""
        mesh = MeshGeometry(*shape)
        if mesh.num_nodes < 2:
            return
        src, dst = 0, mesh.num_nodes - 1
        trace = Trace("one", mesh.num_nodes, events=[TraceEvent(0, src, dst)])
        config = PhastlaneConfig(mesh=mesh, max_hops_per_cycle=max_hops)
        network = PhastlaneNetwork(config, TraceSource(trace))
        run_network(network, trace)
        hops = mesh_hop_count(mesh, src, dst)
        min_cycles = -(-hops // max_hops)  # ceil
        assert network.stats.mean_latency >= min_cycles

    @SLOW
    @given(mesh_shapes, hop_budgets, grid_topologies, st.integers(0, 100))
    def test_broadcast_covers_mesh_of_any_shape(
        self, shape, max_hops, topology, seed
    ):
        mesh = MeshGeometry(*shape)
        if mesh.height < 2:
            return  # row-only meshes have no column segments (documented)
        source = seed % mesh.num_nodes
        trace = Trace("b", mesh.num_nodes, events=[TraceEvent(0, source, None)])
        config = PhastlaneConfig(
            mesh=mesh, max_hops_per_cycle=max_hops, topology=topology
        )
        network = PhastlaneNetwork(config, TraceSource(trace))
        run_network(network, trace)
        assert network.stats.packets_delivered == mesh.num_nodes - 1

    @SLOW
    @given(st.integers(0, 1000), buffer_sizes)
    def test_buffer_capacity_never_exceeded(self, seed, buffers):
        mesh = MeshGeometry(4, 4)
        trace = burst_trace(mesh, seed, packets=60)
        config = PhastlaneConfig(
            mesh=mesh, max_hops_per_cycle=4, buffer_entries=buffers
        )
        network = PhastlaneNetwork(config, TraceSource(trace))
        engine = SimulationEngine()
        engine.register(network)

        def check_capacity(_cycle):
            if config.buffer_entries is None:
                return
            for router in network.routers:
                for queue in router.queues:
                    assert len(queue) <= config.buffer_entries + len(router.pending)

        engine.add_watcher(check_capacity)
        engine.run(trace.last_cycle + 1)
        engine.run_until(lambda: network.idle(engine.cycle), 100_000)


class TestElectricalConservation:
    @SLOW
    @given(
        mesh_shapes, st.sampled_from([2, 3]), grid_topologies,
        st.integers(0, 1000),
    )
    def test_every_packet_delivered_exactly_once(
        self, shape, delay, topology, seed
    ):
        mesh = MeshGeometry(*shape)
        trace = burst_trace(mesh, seed, packets=3 * mesh.num_nodes)
        config = ElectricalConfig(
            mesh=mesh, router_delay_cycles=delay, topology=topology
        )
        network = ElectricalNetwork(config, TraceSource(trace))
        run_network(network, trace)
        assert network.stats.packets_delivered == len(trace)
        assert network.stats.packets_dropped == 0

    @SLOW
    @given(mesh_shapes, st.integers(0, 1000))
    def test_latency_bounded_below_by_pipeline(self, shape, seed):
        mesh = MeshGeometry(*shape)
        if mesh.num_nodes < 2:
            return
        trace = Trace("one", mesh.num_nodes, events=[TraceEvent(0, 0, 1)])
        network = ElectricalNetwork(ElectricalConfig(mesh=mesh), TraceSource(trace))
        run_network(network, trace)
        # 1 hop at 3 cycles + 1 ejection + 1 for the delivery-cycle count.
        assert network.stats.mean_latency >= 5


#: The registered kinds plus ``"reference"``: the phastlane config on the
#: oracle (``tests/oracle``), asked for by name — the registry sends that config to the
#: sparse kernel, and the reference's fault paths stay under the property.
backend_kinds = st.sampled_from(sorted(BACKENDS) + ["reference"])


def _contract_config(kind: str, mesh: MeshGeometry):
    """A small config per registered backend kind (mirrors the contract suite)."""
    if kind in ("phastlane", "reference"):
        return PhastlaneConfig(mesh=mesh, max_hops_per_cycle=4)
    if kind == "electrical":
        return ElectricalConfig(mesh=mesh)
    if kind == "ideal":
        return IdealConfig(mesh=mesh)
    if kind == "vectorized":
        return VectorizedConfig(mesh=mesh)
    raise AssertionError(
        f"backend {kind!r} has no property-suite config; add one above"
    )


#: Fault models the conservation property sweeps.  The first entry is
#: disabled, so the fault-free path is always part of the sample space.
fault_models = st.sampled_from(
    [
        FaultConfig(),
        FaultConfig(seed=1, link_flip_prob=0.05, retry_limit=5),
        FaultConfig(seed=2, link_flip_prob=0.3, retry_limit=3),
        FaultConfig(seed=3, dead_port_count=2, retry_limit=4),
        FaultConfig(seed=4, burst_enter_prob=0.02, retry_limit=5),
        FaultConfig(seed=5, burst_enter_prob=0.05, retry_limit=5),
        FaultConfig(seed=6, burst_enter_prob=0.01),
        FaultConfig(
            seed=7,
            dead_port_count=1,
            link_flip_prob=0.1,
            burst_enter_prob=0.02,
            retry_limit=4,
        ),
    ]
)

FAULT_SETTINGS = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestFaultConservation:
    """Packets are conserved under every fault model, for every backend.

    After a faulted run fully drains, every generated packet must be either
    delivered or explicitly accounted as lost to exhausted retries —
    nothing vanishes, nothing is duplicated, and the drain itself must
    terminate (graceful degradation, not livelock).
    """

    @FAULT_SETTINGS
    @given(
        backend_kinds,
        st.sampled_from([(4, 4), (4, 2), (3, 5)]),
        grid_topologies,
        fault_models,
        st.integers(0, 1000),
    )
    def test_generated_equals_delivered_plus_lost(
        self, kind, shape, topology, faults, seed
    ):
        mesh = MeshGeometry(*shape)
        config = replace(_contract_config(kind, mesh), topology=topology)
        trace = burst_trace(mesh, seed, packets=3 * mesh.num_nodes)
        if kind == "ideal" and faults.enabled:
            with pytest.raises(FabricError):
                make_network(config, TraceSource(trace), faults=faults)
            return
        network = build(kind, config, TraceSource(trace), faults)
        run_network(network, trace)  # asserts the drain terminates
        stats = network.stats
        assert stats.packets_generated == len(trace)
        assert (
            stats.packets_generated
            == stats.packets_delivered + stats.packets_lost
        )
        if not faults.enabled:
            assert stats.packets_lost == 0
            assert stats.faults_injected == 0

    @FAULT_SETTINGS
    @given(
        st.sampled_from(["phastlane", "reference", "electrical"]),
        fault_models,
        st.integers(0, 1000),
    )
    def test_fault_ledger_is_self_consistent(self, kind, faults, seed):
        """Masked + lost activity never exceeds what was injected, and
        fault kinds stay within the configured vocabulary."""
        mesh = MeshGeometry(4, 4)
        config = _contract_config(kind, mesh)
        trace = burst_trace(mesh, seed, packets=2 * mesh.num_nodes)
        network = build(kind, config, TraceSource(trace), faults)
        run_network(network, trace)
        stats = network.stats
        assert sum(stats.fault_kinds.values()) == stats.faults_injected
        assert stats.delivered_despite_faults <= stats.packets_delivered
        if stats.packets_lost:
            assert stats.faults_injected > 0


class TestPlanProperties:
    @given(
        mesh_shapes,
        hop_budgets,
        st.integers(0, 10_000),
        st.integers(0, 10_000),
    )
    def test_plans_always_respect_hop_budget(self, shape, max_hops, a, b):
        mesh = MeshGeometry(*shape)
        src, dst = a % mesh.num_nodes, b % mesh.num_nodes
        if src == dst:
            return
        plan = build_plan(mesh, src, dst, max_hops)
        assert max_segment_hops(plan) <= max_hops
        assert plan[0].node == src and plan[-1].node == dst
