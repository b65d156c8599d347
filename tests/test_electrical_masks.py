"""The electrical router's maintained masks equal a from-scratch rebuild.

``ElectricalRouter`` keeps its allocator request masks (``wanted``,
``ready``), each line's granted outputs and the ``_active`` set up to
date at the three transitions arrive / grant / depart instead of
re-deriving them every cycle.  After *every* cycle of a saturated
unicast + broadcast storm this recomputes all of them from the per-line
arrays alone (``flits``, ``pending``, ``out_vc``, ``parts``) and demands
equality, and that no credit is free while its downstream VC is occupied.
"""

import pytest

from repro.electrical.config import ElectricalConfig
from repro.electrical.router import MESH_PORTS, NUM_PORTS
from repro.fabric import make_network
from repro.faults import FaultConfig
from repro.obs import ObsConfig
from repro.obs.session import ObsSession
from repro.sim.engine import SimulationEngine
from repro.traffic.trace import Trace, TraceEvent, TraceSource
from repro.util.geometry import MeshGeometry

MESH = MeshGeometry(8, 8)


def storm(cycles):
    """Every node injects every cycle; one node in eight broadcasts."""
    events = [
        TraceEvent(
            cycle, src, None if (src + cycle) % 8 == 0 else (src * 7 + cycle * 3) % 64
        )
        for cycle in range(cycles)
        for src in range(64)
    ]
    return Trace("storm", 64, events=[e for e in events if e.destination != e.source])


def rebuild(router):
    """(wanted, ready, granted, occupied pairs) from the per-line arrays."""
    num_vcs = router.num_vcs
    wanted, ready = [0] * NUM_PORTS, [0] * NUM_PORTS
    granted = [0] * len(router.flits)
    occupied = set()
    for line, flit in enumerate(router.flits):
        outputs = router.pending[line]
        holding = [o for o in MESH_PORTS if router.out_vc[o][line] >= 0]
        if flit is None:
            assert not outputs and not holding and router.parts[line] is None
            continue
        assert outputs, "a buffered flit has somewhere left to go"
        occupied.add(divmod(line, num_vcs))
        asked = [o for o in MESH_PORTS if outputs >> o & 1]
        assert set(holding) <= set(asked)
        for output in asked:
            if output in holding:
                ready[output] |= 1 << line
                granted[line] |= 1 << output
            else:
                wanted[output] |= 1 << line
        if router.parts[line] is not None:
            assert sorted(router.parts[line]) == asked
    return wanted, ready, granted, occupied


def check(network):
    for router in network.routers:
        wanted, ready, granted, occupied = rebuild(router)
        assert router.wanted == wanted
        assert router.ready == ready
        assert router.granted == granted
        assert router._active == occupied
        assert router.occupancy() == len(occupied)
        for output in MESH_PORTS:
            neighbor = router.neighbors[output]
            if neighbor is None:
                assert router.free_vcs[output] == (1 << router.num_vcs) - 1
                continue
            base = output * router.num_vcs
            downstream = network.routers[neighbor].flits[base:base + router.num_vcs]
            for vc, flit in enumerate(downstream):
                assert flit is None or not router.free_vcs[output] >> vc & 1, (
                    f"router {router.node}: credit ({output},{vc}) free while "
                    f"node {neighbor} still holds {flit!r} there"
                )


def run_storm(config, cycles, faults=None):
    network = make_network(config, TraceSource(storm(cycles)), faults=faults)
    engine = SimulationEngine()
    engine.register(network)
    session = ObsSession(ObsConfig(health=True, health_interval=10), network, engine)
    while not network.idle(engine.cycle):
        engine.run(1)
        check(network)
        assert engine.cycle < 20_000, "storm failed to drain"
    _, health = session.finish()
    for name in ("credit_leak", "flit_conservation"):
        assert health.checks[name]["status"] == "ok", health.findings
    stats = network.stats
    assert stats.multicast_packets > 0
    assert stats.packets_delivered + stats.packets_lost == stats.packets_generated
    return network


CASES = [2, 10]


@pytest.mark.parametrize("num_vcs", CASES)
def test_masks_equal_a_rebuild_after_every_cycle(num_vcs):
    network = run_storm(ElectricalConfig(mesh=MESH, num_vcs=num_vcs), cycles=8)
    assert network.stats.packets_lost == 0


def test_masks_equal_a_rebuild_across_link_retries_and_abandoned_flits():
    faults = FaultConfig(seed=5, link_flip_prob=0.05, retry_limit=1)
    network = run_storm(ElectricalConfig(mesh=MESH), cycles=8, faults=faults)
    stats = network.stats
    assert stats.retransmissions > 0 and stats.packets_lost > 0


@pytest.mark.slow
@pytest.mark.parametrize("num_vcs", CASES)
def test_masks_equal_a_rebuild_through_a_long_storm(num_vcs):
    run_storm(ElectricalConfig(mesh=MESH, num_vcs=num_vcs), cycles=40)
