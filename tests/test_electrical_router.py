"""Unit tests for the electrical router and flit mechanics."""

import pytest

from repro.electrical.config import ElectricalConfig
from repro.electrical.flit import Flit
from repro.electrical.network import ElectricalNetwork
from repro.electrical.router import LOCAL_PORT
from repro.sim.engine import SimulationEngine
from repro.util.geometry import Direction, MeshGeometry


class TestFlit:
    def test_replica_inherits_metadata(self):
        flit = Flit(source=0, destinations={1, 2, 3}, generated_cycle=7)
        replica = flit.replica({1, 2})
        assert replica.generated_cycle == 7
        assert replica.source == 0
        assert replica.uid != flit.uid

    def test_replica_must_be_subset(self):
        flit = Flit(source=0, destinations={1}, generated_cycle=0)
        with pytest.raises(ValueError):
            flit.replica({2})

    def test_multicast_detection(self):
        assert Flit(0, {1, 2}, 0).is_multicast
        assert not Flit(0, {1}, 0).is_multicast

    def test_self_destination_rejected(self):
        with pytest.raises(ValueError):
            Flit(0, {0, 1}, 0)

    def test_empty_destinations_rejected(self):
        with pytest.raises(ValueError):
            Flit(0, set(), 0)


class TestRouterState:
    def make_network(self):
        mesh = MeshGeometry(4, 4)
        return ElectricalNetwork(ElectricalConfig(mesh=mesh))

    def test_find_free_vc(self):
        network = self.make_network()
        router = network.routers[0]
        assert router.find_free_vc(LOCAL_PORT) == 0
        flit = Flit(0, {1}, 0)
        router.accept_flit(LOCAL_PORT, 0, flit, 0, network)
        assert router.find_free_vc(LOCAL_PORT) == 1

    def test_double_occupancy_rejected(self):
        network = self.make_network()
        router = network.routers[0]
        router.accept_flit(LOCAL_PORT, 0, Flit(0, {1}, 0), 0, network)
        with pytest.raises(RuntimeError):
            router.accept_flit(LOCAL_PORT, 0, Flit(0, {2}, 0), 0, network)

    def test_busy_reflects_occupancy(self):
        network = self.make_network()
        router = network.routers[0]
        assert not router.busy
        router.accept_flit(LOCAL_PORT, 0, Flit(0, {1}, 0), 0, network)
        assert router.busy

    def test_double_credit_rejected(self):
        network = self.make_network()
        router = network.routers[0]
        with pytest.raises(RuntimeError):
            router.restore_credit(0, 0)  # credit already free

    def test_routing_off_the_mesh_edge_is_refused(self):
        network = self.make_network()
        router = network.routers[0]  # x = 0: no WEST neighbour
        west = int(Direction.WEST)
        assert router.neighbors[west] is None
        router._routes[1] = west  # a corrupt route memo
        router.accept_flit(LOCAL_PORT, 0, Flit(0, {1}, 0), 0, network)
        with pytest.raises(RuntimeError, match="off the mesh edge"):
            network.step(0)

    def test_local_only_flit_ejects_without_crossbar(self):
        network = self.make_network()
        engine = SimulationEngine()
        engine.register(network)
        # A flit whose only destination is the router's own node goes to
        # the ejection path, not the crossbar; deliver and check.
        router = network.routers[5]
        router.accept_flit(
            LOCAL_PORT, 0, Flit(source=1, destinations={5}, generated_cycle=0), 0, network
        )
        engine.run(3)
        assert network.stats.packets_delivered == 1
        assert not router.busy


class TestConfigValidation:
    def test_table2_defaults(self):
        table = ElectricalConfig().describe()
        assert table["number_of_vcs_per_port"] == 10
        assert table["number_of_entries_per_vc"] == 1
        assert table["vc_allocator"] == "ISLIP"
        assert table["input_speedup"] == 4
        assert table["output_speedup"] == 1
        assert table["buffer_entries_in_nic"] == 50
        assert table["wait_for_tail_credit"] == "YES"

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ElectricalConfig(num_vcs=0)
        with pytest.raises(ValueError):
            ElectricalConfig(router_delay_cycles=0)
