"""Cross-backend contract suite for the fabric layer.

Every backend in the table — optical, electrical, ideal — must honour
the same lifecycle: build from a config, drain a finite trace, report
idle correctly, keep honest stats counters, and emit TraceHub lifecycle
events in causal order.  The tests parametrize over the backend table
and over both topologies.
"""

import json
from dataclasses import replace

import pytest
from test_obs_golden import _sha, _trace_sha

from oracle.network import PhastlaneNetwork
from repro.core.config import PhastlaneConfig
from repro.electrical.config import ElectricalConfig
from repro.electrical.islip import SwitchAllocator
from repro.fabric.ideal import IdealConfig
from repro.fabric.protocol import NetworkBackend
from repro.fabric.registry import BACKENDS, make_network
from repro.faults.config import FaultConfig
from repro.harness.exec import RunSpec, SyntheticWorkload, TraceFileWorkload
from repro.harness.report import result_to_dict, stats_to_dict
from repro.harness.runner import run
from repro.obs.config import ObsConfig
from repro.obs.tracers import CollectingTracer
from repro.photonics.constants import NIC_BUFFER_ENTRIES
from repro.sim.engine import SimulationEngine
from repro.traffic.trace import Trace, TraceEvent, TraceSource
from repro.util.errors import FabricError
from repro.util.geometry import MeshGeometry
from repro.vectorized.config import VectorizedConfig

from helpers import cylinder_registered, reference_oracle

MESH = MeshGeometry(4, 4)

#: One small-mesh config per registered backend kind.
CONFIGS = {
    "phastlane": PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4),
    "electrical": ElectricalConfig(mesh=MESH),
    "ideal": IdealConfig(mesh=MESH),
    "vectorized": VectorizedConfig(mesh=MESH),
}

#: The topologies each backend kind must honour the contract on.
TOPOLOGY_SUPPORT = {
    "phastlane": ("mesh", "torus"),
    "electrical": ("mesh", "torus"),
    "ideal": ("mesh", "torus"),
    "vectorized": ("mesh", "torus"),
}


def all_kinds():
    return sorted(BACKENDS)


def _config_on(kind, topology):
    base = CONFIGS[kind]
    return base if topology == "mesh" else replace(base, topology=topology)


#: Not a registered kind: the phastlane config on the oracle (``tests/oracle``),
#: asked for by name.  The registry sends that config to the sparse kernel (the
#: ``phastlane-*`` cases); the reference is the only implementation of the
#: section 5 alternatives and the differential oracle, so it keeps the
#: whole contract too.
REFERENCE = "reference"


@pytest.fixture(
    params=[
        (kind, topology)
        for kind in sorted(CONFIGS)
        for topology in TOPOLOGY_SUPPORT[kind]
    ]
    + [(REFERENCE, topology) for topology in TOPOLOGY_SUPPORT["phastlane"]],
    ids=lambda param: f"{param[0]}-{param[1]}",
)
def config(request):
    kind, topology = request.param
    if kind != REFERENCE:
        yield _config_on(kind, topology)
        return
    with reference_oracle():
        yield _config_on("phastlane", topology)


def small_trace():
    return Trace(
        "contract",
        MESH.num_nodes,
        events=[TraceEvent(cycle, cycle % 16, (cycle + 5) % 16) for cycle in range(20)],
    )


def drain(network, max_cycles=5000):
    engine = SimulationEngine()
    engine.register(network)
    drained = engine.run_until(lambda: network.idle(engine.cycle), max_cycles)
    return engine, drained


def test_every_builtin_kind_is_registered():
    assert set(all_kinds()) >= {"phastlane", "electrical", "ideal"}
    assert set(CONFIGS) == set(all_kinds()), (
        "a backend was registered without a contract-suite config; "
        "add one to CONFIGS above"
    )


def test_contract_covers_every_topology():
    from repro.topology.registry import registered_topologies

    for kind, topologies in TOPOLOGY_SUPPORT.items():
        assert topologies == registered_topologies(), kind


@pytest.mark.parametrize("kind", ["phastlane", "electrical", "vectorized"])
def test_cycle_accurate_backends_refuse_non_grid_topologies(kind):
    """Every topology is a grid: a config naming any other is refused
    when it is built, in one line naming the two there are."""
    with pytest.raises(FabricError, match="unknown topology 'cmesh'.*mesh, torus"):
        _config_on(kind, "cmesh")


def test_backend_satisfies_protocol(config):
    network = make_network(config)
    assert isinstance(network, NetworkBackend)
    assert network.config is config
    assert network.mesh is MESH


def test_the_reference_cases_run_the_reference(request, config):
    kind = request.node.callspec.params["config"][0]
    assert isinstance(make_network(config), PhastlaneNetwork) == (kind == REFERENCE)


def test_drains_small_trace(config, tmp_path):
    path = tmp_path / "contract.trace"
    small_trace().save(path)
    result = run(RunSpec(config, TraceFileWorkload(str(path))))
    assert result.drained
    assert result.stats.packets_generated == 20
    assert result.stats.packets_delivered == 20
    assert result.mean_latency >= 1.0


@pytest.mark.parametrize("nodes", [100, 9])
def test_a_source_sized_for_another_grid_is_refused(config, nodes):
    """Ids past the grid alias other pairs' plan keys on the sparse kernel
    (it used to misroute and report success) and fall off a table
    elsewhere; a smaller count leaves nodes without a source queue."""
    trace = Trace("stray", nodes, events=[TraceEvent(0, 0, nodes - 1)])
    with pytest.raises(FabricError, match=rf"{nodes} nodes but \S+ runs on 16 "):
        make_network(config, TraceSource(trace))


def test_idle_semantics(config, tmp_path):
    path = tmp_path / "contract.trace"
    small_trace().save(path)
    network = make_network(config)
    network.source = TraceSource(Trace.load(path))

    assert not network.idle(0)  # work still pending at cycle 0
    engine, drained = drain(network)
    assert drained
    assert network.idle(engine.cycle)  # drained networks report idle


def test_stats_counters_consistent(config, tmp_path):
    path = tmp_path / "contract.trace"
    small_trace().save(path)
    result = run(RunSpec(config, TraceFileWorkload(str(path))))
    stats = result.stats
    assert stats.packets_delivered <= stats.packets_generated
    assert stats.final_cycle > 0
    assert stats.hops_traversed > 0
    payload = stats_to_dict(stats)
    assert payload["delivery_ratio"] == 1.0


def test_trace_hub_lifecycle_order(config):
    network = make_network(config)
    recorder = CollectingTracer()
    network.add_tracer(recorder)
    network.source = TraceSource(small_trace())
    _, drained = drain(network)
    assert drained

    assert recorder.events, "backend emitted no trace events"
    assert recorder.by_kind("generated")
    assert recorder.by_kind("injected")
    assert recorder.by_kind("delivered")
    by_uid = {}
    for event in recorder.events:
        by_uid.setdefault(event.uid, []).append(event)
    for uid, history in by_uid.items():
        names = [event.kind for event in history]
        # Causal order: a packet is generated, then injected, then
        # delivered; blocked/buffered events may interleave in between.
        assert names[0] == "generated", (uid, names)
        if "injected" in names:
            assert names.index("injected") > names.index("generated")
        if "delivered" in names:
            assert names[-1] == "delivered", (uid, names)
        cycles = [event.cycle for event in history]
        assert cycles == sorted(cycles), (uid, names, cycles)


def test_a_burst_leaves_the_nic_in_generation_order(config):
    """The NIC is one FIFO.  A burst larger than Table 1/2's NIC, from one
    node in one cycle, is injected in the order it was generated, and the
    NIC's backlog falls by at most one packet per cycle."""
    burst = NIC_BUFFER_ENTRIES + 10
    destinations = [1 + i % (MESH.num_nodes - 1) for i in range(burst)]
    trace = Trace(
        "burst", MESH.num_nodes, events=[TraceEvent(0, 0, d) for d in destinations]
    )
    network = make_network(config, TraceSource(trace))
    recorder = CollectingTracer()
    network.add_tracer(recorder)
    engine = SimulationEngine()
    engine.register(network)
    backlog = [burst]
    engine.add_watcher(lambda _cycle: backlog.append(network.nics[0].backlog))
    assert engine.run_until(lambda: network.idle(engine.cycle), 5000)
    generated, injected = (
        [event.uid for event in recorder.by_kind(kind) if event.node == 0]
        for kind in ("generated", "injected")
    )
    assert len(generated) == burst
    assert injected == generated
    assert all(0 <= before - after <= 1 for before, after in zip(backlog, backlog[1:]))


def test_two_runs_are_bit_identical(config):
    spec = RunSpec(config, SyntheticWorkload("uniform", 0.1), cycles=150, seed=11)
    first = run(spec)
    second = run(spec)
    assert stats_to_dict(first.stats) == stats_to_dict(second.stats)
    assert first == second


#: A fault model every degradation-capable backend must survive: one dead
#: port plus transient flips, with a tight retry budget so permanent
#: faults convert to accounted losses instead of livelock.
CONTRACT_FAULTS = FaultConfig(
    seed=3, dead_port_count=1, link_flip_prob=0.05, retry_limit=4
)


def test_faulted_run_drains_or_refuses(config):
    """A backend either degrades gracefully under faults (drains, conserves
    packets) or refuses the fault schedule with FabricError at build time —
    it must never accept faults and then hang or miscount."""
    try:
        network = make_network(config, faults=CONTRACT_FAULTS)
    except FabricError:
        return  # an honest refusal satisfies the contract
    network.source = TraceSource(small_trace())
    _, drained = drain(network)
    assert drained, "faulted backends must still drain (graceful degradation)"
    stats = network.stats
    assert stats.packets_generated == 20
    assert stats.packets_delivered + stats.packets_lost == stats.packets_generated


def test_fault_events_interleave_causally(config):
    """Fault lifecycle events join the per-packet causal order: injection
    still precedes them, cycles stay monotonic, and a packet that ends in
    fault_dropped is never also delivered."""
    try:
        network = make_network(config, faults=CONTRACT_FAULTS)
    except FabricError:
        return
    recorder = CollectingTracer()
    network.add_tracer(recorder)
    network.source = TraceSource(small_trace())
    _, drained = drain(network)
    assert drained
    assert recorder.by_kind("fault_injected"), "faults fired but never traced"

    by_uid = {}
    for event in recorder.events:
        if event.uid >= 0:  # uid -1 carries node-level events (NIC stalls)
            by_uid.setdefault(event.uid, []).append(event)
    for uid, history in by_uid.items():
        names = [event.kind for event in history]
        cycles = [event.cycle for event in history]
        assert cycles == sorted(cycles), (uid, names, cycles)
        for kind in ("fault_injected", "fault_masked", "fault_dropped"):
            if kind in names:
                assert names.index(kind) > names.index("injected"), (uid, names)
        if "fault_dropped" in names:
            assert "delivered" not in names[names.index("fault_dropped"):], (
                uid,
                names,
            )


def contended_trace(num_nodes=MESH.num_nodes):
    """Bursts of unicasts and broadcasts: every router sees VC and switch
    contention, and VCTM replicates at the branch routers."""
    events = [
        TraceEvent(
            cycle, src,
            None if (src + cycle) % 4 == 0 else (src * 7 + cycle) % (num_nodes - 1),
        )
        for cycle in range(0, 12, 2)
        for src in range(num_nodes)
    ]
    return Trace(
        "contended",
        num_nodes,
        events=[e for e in events if e.destination != e.source],
    )


def assert_contended_burst_keeps_the_contract(config, tmp_path, monkeypatch):
    """Drain, exact conservation and the credit audit explaining every
    withheld downstream VC at every health window, on a burst that does
    contend: some switch allocation sees two or more lines asking for one
    output, so the case cannot turn into a free-flow run unnoticed."""
    widest = []
    allocate_masks = SwitchAllocator.allocate_masks

    def counting(self, masks, order):
        widest.append(max(mask.bit_count() for mask in masks))
        return allocate_masks(self, masks, order)

    monkeypatch.setattr(SwitchAllocator, "allocate_masks", counting)
    path = tmp_path / "contended.trace"
    contended_trace(config.mesh.num_nodes).save(path)
    result = run(
        RunSpec(
            config,
            TraceFileWorkload(str(path)),
            obs=ObsConfig(health=True, health_interval=5),
        )
    )
    assert result.drained
    stats = result.stats
    assert stats.multicast_packets > 0
    assert stats.packets_delivered == stats.packets_generated
    assert result.health.status == "ok"
    for name in ("credit_leak", "flit_conservation"):
        assert result.health.checks[name]["status"] == "ok"
    assert max(widest) >= 2, "no switch allocation was contended"


@pytest.mark.parametrize("topology", TOPOLOGY_SUPPORT["electrical"])
def test_electrical_contended_burst_conserves_drains_and_keeps_credits(
    topology, tmp_path, monkeypatch
):
    """The baseline router at four VCs per port.  The torus needs them:
    its rings have no dateline VC classes, and at two VCs the burst
    deadlocks there."""
    config = replace(_config_on("electrical", topology), num_vcs=4)
    assert_contended_burst_keeps_the_contract(config, tmp_path, monkeypatch)


def test_a_grid_stated_by_two_methods_keeps_the_electrical_contract(
    tmp_path, monkeypatch
):
    """The routers ask a grid for first directions and nothing else, and
    those are derived: ``helpers.Cylinder`` (rings in X, like the torus, so
    the torus case's four VCs) drains the burst with every flit and credit
    accounted for."""
    with cylinder_registered() as name:
        config = ElectricalConfig(mesh=MeshGeometry(4, 3), topology=name, num_vcs=4)
        assert_contended_burst_keeps_the_contract(config, tmp_path, monkeypatch)


#: (result sha, trace sha) of the contended burst on the mesh at four VCs
#: and the baseline speedup, captured on the tree before the switch
#: allocator became one path (commit 8304140): it pins the departure order
#: that path had to keep, not the order it happens to produce.
BASELINE_BURST = (
    "f6d0d4bf5919850087477726aaabe75cdb32c2fa444d3731b82da812140ec5b0",
    "e7863f735e207b21c90ecc866a55d1dc5e2c572257c2f4c8e5c4f874df9f3163",
)


def test_the_contended_burst_at_the_baseline_speedup_is_pinned(tmp_path):
    config = replace(CONFIGS["electrical"], num_vcs=4)
    path = tmp_path / "contended.trace"
    contended_trace().save(path)
    trace = tmp_path / "trace.jsonl"
    result = run(
        RunSpec(
            config,
            TraceFileWorkload(str(path)),
            obs=ObsConfig(health=True, health_interval=5, trace_path=str(trace)),
        )
    )
    # The header's spec digest covers the workload's tmp path; blank it.
    header, _, events = trace.read_text().partition("\n")
    meta = dict(json.loads(header), spec=None)
    trace.write_text(json.dumps(meta, sort_keys=True) + "\n" + events)
    assert (
        _sha(json.dumps(result_to_dict(result), sort_keys=True)),
        _trace_sha(trace),
    ) == BASELINE_BURST
