"""Tests for the design-space explorer and the Table 1 derivation."""

import pytest

from repro.harness.experiments.configs import optical_configs, standard_configs
from repro.photonics import constants
from repro.photonics.constants import PAYLOAD_WDM, SCALING_SCENARIOS
from repro.photonics.dse import DesignSpaceExplorer, table1_configuration
from repro.photonics.latency import max_hops_per_cycle
from repro.photonics.power import OpticalPowerModel


@pytest.fixture(scope="module")
def explorer() -> DesignSpaceExplorer:
    return DesignSpaceExplorer()


class TestExplorer:
    def test_selects_64_wavelengths(self, explorer):
        assert explorer.select_wdm() == 64

    def test_design_point_hops(self, explorer):
        assert explorer.evaluate(64, "pessimistic").max_hops_per_cycle == 4
        assert explorer.evaluate(64, "average").max_hops_per_cycle == 5
        assert explorer.evaluate(64, "optimistic").max_hops_per_cycle == 8

    def test_pessimistic_64wdm_is_feasible(self, explorer):
        point = explorer.evaluate(64, "pessimistic")
        assert point.feasible
        assert point.peak_power_w_at_98pct == pytest.approx(32.0, rel=0.02)

    def test_32wdm_infeasible_on_single_core_node(self, explorer):
        # 32 wavelengths exceed both the node area and the laser budget.
        assert not explorer.evaluate(32, "pessimistic").feasible

    def test_sweep_covers_grid(self, explorer):
        points = explorer.sweep((32, 64), ("average",))
        assert len(points) == 2
        assert {p.payload_wdm for p in points} == {32, 64}


class TestTable1:
    def test_matches_paper_rows(self):
        table = table1_configuration()
        assert table["flits_per_packet"] == "1 (80 Bytes)"
        assert table["packet_payload_wdm"] == 64
        assert table["packet_payload_waveguides"] == 10
        assert table["routing_function"] == "Dimension-Order"
        assert table["packet_control_bits"] == 70
        assert table["packet_control_wdm"] == 35
        assert table["packet_control_waveguides"] == 2
        assert table["buffer_entries_in_nic"] == 50
        assert table["max_hops_per_cycle"] == "4, 5, 8"
        assert table["node_transmit_arbitration"] == "Rotating Priority"
        assert table["network_path_arbitration"] == "Fixed Priority"


class TestTheDesignPointIsDerived:
    """Device delays -> Fig 6 hop budget -> the simulated configs, the
    design points and Table 1: one derivation, no typed copy."""

    def test_each_scenario_runs_its_solver_budget(self):
        configs = optical_configs()
        for scenario in SCALING_SCENARIOS:
            hops = max_hops_per_cycle(scenario, PAYLOAD_WDM)
            assert configs[f"Optical{hops}"].max_hops_per_cycle == hops
        pessimistic = max_hops_per_cycle("pessimistic", PAYLOAD_WDM)
        for label in ("Optical4B32", "Optical4B64", "Optical4IB"):
            assert configs[label].max_hops_per_cycle == pessimistic

    @pytest.mark.parametrize(
        "table,scenario,delay_ps,old,new",
        [
            ("RESONATOR_DRIVE_DELAY_PS", "pessimistic", 20.0, 4, 3),
            ("TRANSMIT_DELAY_PS", "optimistic", 23.0, 8, 7),
        ],
    )
    def test_a_delay_across_a_hop_boundary_moves_every_consumer(
        self, monkeypatch, table, scenario, delay_ps, old, new
    ):
        before = list(standard_configs())
        old_peak = DesignSpaceExplorer().evaluate(64, scenario).peak_power_w_at_98pct
        monkeypatch.setitem(getattr(constants, table), scenario, delay_ps)

        assert list(standard_configs()) == [
            label.replace(f"Optical{old}", f"Optical{new}") for label in before
        ]
        point = DesignSpaceExplorer().evaluate(64, scenario)
        assert point.max_hops_per_cycle == new
        assert point.peak_power_w_at_98pct == OpticalPowerModel().peak_power_w(
            64, new, constants.CROSSING_EFFICIENCY
        )
        assert point.peak_power_w_at_98pct < old_peak
        hops = sorted({4, 5, 8} - {old} | {new})
        assert table1_configuration()["max_hops_per_cycle"] == ", ".join(
            str(h) for h in hops
        )
