"""Tests for the fabric backend table."""

import inspect
from dataclasses import fields, replace

import pytest

from repro.core.config import PhastlaneConfig
from repro.electrical.config import ElectricalConfig
from repro.electrical.network import ElectricalNetwork
from repro.fabric.ideal import IdealConfig, IdealNetwork
from repro.fabric.registry import BACKENDS, config_kind, config_type_for, make_network
from repro.faults.config import FaultConfig
from repro.harness.experiments.configs import optical_configs
from repro.traffic.trace import Trace, TraceEvent, TraceSource
from repro.util.errors import FabricError
from repro.util.geometry import MeshGeometry
from repro.vectorized.config import VectorizedConfig
from repro.vectorized.network import VectorizedNetwork


#: The one alternative a ``PhastlaneConfig`` carries (paper footnote 3).
ARBITRATIONS = ["fixed", "round_robin"]


class TestDispatch:
    def test_builtin_backends(self):
        mesh = MeshGeometry(4, 4)
        cases = [
            (PhastlaneConfig(mesh=mesh), VectorizedNetwork, "phastlane"),
            (VectorizedConfig(mesh=mesh), VectorizedNetwork, "vectorized"),
            (ElectricalConfig(mesh=mesh), ElectricalNetwork, "electrical"),
            (IdealConfig(mesh=mesh), IdealNetwork, "ideal"),
        ]
        for config, network_type, kind in cases:
            assert type(make_network(config)) is network_type
            assert config_kind(config) == kind
            assert config_type_for(kind) is type(config)

    @pytest.mark.parametrize("arbitration", ARBITRATIONS)
    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    @pytest.mark.parametrize("label", sorted(optical_configs()))
    def test_paper_design_point_builds_the_sparse_kernel(
        self, label, topology, arbitration
    ):
        config = replace(
            optical_configs()[label], topology=topology,
            network_arbitration=arbitration,
        )
        network = make_network(config)
        assert type(network) is VectorizedNetwork
        assert network.config is config  # built on the config itself
        assert config_kind(config) == "phastlane"

    def test_alternatives_are_every_field_the_kernel_does_not_share(self):
        # One engine reads both config types, so a field added to either
        # fails here until the kernel carries it.
        optical = {f.name for f in fields(PhastlaneConfig)}
        vectorized = {f.name for f in fields(VectorizedConfig)}
        assert optical - vectorized == {"network_arbitration"}
        assert vectorized - optical == {"mode"}

    def test_dispatch_reads_the_config_and_nothing_else(self):
        mesh = MeshGeometry(4, 4)
        trace = Trace("t", 16, events=[TraceEvent(0, 0, None), TraceEvent(1, 2, 9)])
        faults = FaultConfig(seed=1, burst_enter_prob=0.1, retry_limit=1)
        for arbitration in ARBITRATIONS:
            config = PhastlaneConfig(mesh=mesh, network_arbitration=arbitration)
            for source in (None, TraceSource(trace)):
                for fault_model in (None, faults):
                    network = make_network(config, source, faults=fault_model)
                    assert type(network) is VectorizedNetwork

    def test_unknown_config_error_names_class_and_backends(self):
        class MysteryConfig:
            pass

        with pytest.raises(FabricError) as excinfo:
            make_network(MysteryConfig())
        message = str(excinfo.value)
        assert "MysteryConfig" in message
        for kind in ("phastlane", "electrical", "ideal"):
            assert kind in message

    def test_dispatch_is_on_the_exact_config_type(self):
        """No config type subclasses another, so a subclass is a type the
        table does not have."""
        types = [config_type_for(kind) for kind in BACKENDS]
        assert not any(a is not b and issubclass(a, b) for a in types for b in types)

        class FancyIdealConfig(IdealConfig):
            pass

        with pytest.raises(FabricError, match="FancyIdealConfig"):
            make_network(FancyIdealConfig(mesh=MeshGeometry(4, 4)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(FabricError) as excinfo:
            config_type_for("quantum")
        assert "quantum" in str(excinfo.value)

    def test_source_and_stats_forwarded(self):
        from repro.sim.stats import NetworkStats

        stats = NetworkStats()
        network = make_network(PhastlaneConfig(mesh=MeshGeometry(4, 4)), stats=stats)
        assert network.stats is stats


class TestFaultSupport:
    def test_builtin_backends_all_take_faults(self):
        # The ideal backend takes the parameter to refuse it in its own words.
        for kind in BACKENDS:
            network = make_network(config_type_for(kind)(mesh=MeshGeometry(2, 2)))
            assert "faults" in inspect.signature(type(network)).parameters
