"""Tests for the fabric backend registry."""

import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import pytest

import repro
from repro.core.config import PhastlaneConfig
from repro.electrical.config import ElectricalConfig
from repro.electrical.network import ElectricalNetwork
from repro.fabric import (
    FabricError,
    IdealConfig,
    IdealNetwork,
    config_kind,
    config_type_for,
    entry_for_config,
    make_network,
    register_backend,
    registered_backends,
    unregister_backend,
)
from repro.faults import FaultConfig
from repro.harness.experiments.configs import optical_configs
from repro.traffic.trace import Trace, TraceEvent, TraceSource
from repro.util.geometry import MeshGeometry
from repro.vectorized import VectorizedConfig, VectorizedNetwork


@dataclass(frozen=True)
class ToyConfig:
    mesh: MeshGeometry = field(default_factory=lambda: MeshGeometry(2, 2))

    @property
    def label(self) -> str:
        return "Toy"


class ToyNetwork:
    def __init__(self, config, source=None, stats=None):
        self.config = config
        self.source = source
        self.stats = stats


@pytest.fixture
def toy_backend():
    register_backend("toy", ToyConfig, ToyNetwork)
    yield
    unregister_backend("toy")


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
        faults = FaultConfig(seed=1, nic_stall_prob=0.1, retry_limit=1)
        for arbitration in ARBITRATIONS:
            config = PhastlaneConfig(mesh=mesh, network_arbitration=arbitration)
            for source in (None, TraceSource(trace)):
                for fault_model in (None, faults):
                    network = make_network(config, source, faults=fault_model)
                    assert type(network) is VectorizedNetwork

    def test_exactly_one_phastlane_registration_under_src(self):
        source_root = Path(repro.__file__).parent
        calls = [
            str(path.relative_to(source_root))
            for path in sorted(source_root.rglob("*.py"))
            if re.search(r'register_backend\(\s*"phastlane"', path.read_text())
        ]
        assert calls == ["vectorized/network.py"]

    def test_unknown_config_error_names_class_and_backends(self):
        class MysteryConfig:
            pass

        with pytest.raises(FabricError) as excinfo:
            make_network(MysteryConfig())
        message = str(excinfo.value)
        assert "MysteryConfig" in message
        for kind in ("phastlane", "electrical", "ideal"):
            assert kind in message
        assert "register_backend" in message  # points at the fix

    def test_unknown_kind_rejected(self):
        with pytest.raises(FabricError) as excinfo:
            config_type_for("quantum")
        assert "quantum" in str(excinfo.value)

    def test_source_and_stats_forwarded(self):
        from repro.sim.stats import NetworkStats

        stats = NetworkStats()
        network = make_network(PhastlaneConfig(mesh=MeshGeometry(4, 4)), stats=stats)
        assert network.stats is stats


class TestOpenness:
    def test_registered_backend_is_buildable(self, toy_backend):
        assert "toy" in registered_backends()
        network = make_network(ToyConfig())
        assert isinstance(network, ToyNetwork)
        assert config_kind(ToyConfig()) == "toy"

    def test_subclass_falls_back_to_isinstance(self, toy_backend):
        class FancyToyConfig(ToyConfig):
            pass

        assert isinstance(make_network(FancyToyConfig()), ToyNetwork)

    def test_unregister_restores_error(self):
        register_backend("toy", ToyConfig, ToyNetwork)
        unregister_backend("toy")
        with pytest.raises(FabricError):
            entry_for_config(ToyConfig())

    def test_replacing_same_kind_is_allowed(self, toy_backend):
        class ToyNetworkV2(ToyNetwork):
            pass

        register_backend("toy", ToyConfig, ToyNetworkV2)
        assert isinstance(make_network(ToyConfig()), ToyNetworkV2)

    def test_same_config_type_under_two_kinds_rejected(self, toy_backend):
        with pytest.raises(FabricError):
            register_backend("toy2", ToyConfig, ToyNetwork)

    def test_invalid_registrations_rejected(self):
        with pytest.raises(FabricError):
            register_backend("", ToyConfig, ToyNetwork)
        with pytest.raises(FabricError):
            register_backend("bad", "not a type", ToyNetwork)

    def test_registered_backends_is_a_snapshot(self):
        snapshot = registered_backends()
        snapshot["bogus"] = None
        assert "bogus" not in registered_backends()


class TestFaultSupport:
    """Whether a factory models faults is read from its signature."""

    FAULTS = FaultConfig(seed=1, link_flip_prob=0.01)

    def test_factory_without_faults_parameter_is_refused(self, toy_backend):
        assert not entry_for_config(ToyConfig()).takes_faults
        with pytest.raises(FabricError, match="'toy' does not support fault"):
            make_network(ToyConfig(), faults=self.FAULTS)
        # ... and disabled faults never reach it.
        assert isinstance(make_network(ToyConfig(), faults=FaultConfig()), ToyNetwork)

    def test_a_factorys_own_type_error_propagates_as_itself(self):
        def broken(config, source=None, stats=None, faults=None):
            raise TypeError("unsupported operand for faults table: 'NoneType'")

        register_backend("toy", ToyConfig, broken)
        try:
            with pytest.raises(TypeError, match="faults table"):
                make_network(ToyConfig(), faults=self.FAULTS)
        finally:
            unregister_backend("toy")

    def test_keyword_catch_all_counts_as_taking_faults(self):
        seen = {}

        def factory(config, source=None, stats=None, **options):
            seen.update(options)
            return ToyNetwork(config, source, stats)

        register_backend("toy", ToyConfig, factory)
        try:
            make_network(ToyConfig(), faults=self.FAULTS)
        finally:
            unregister_backend("toy")
        assert seen["faults"].enabled

    def test_builtin_backends_all_take_faults(self):
        # The ideal backend takes the parameter to refuse it in its own words.
        assert all(entry.takes_faults for entry in registered_backends().values())
