"""Tests for the electrical price list."""

import pytest

from repro.electrical.power import (
    ALLOCATION_PJ_PER_CYCLE,
    CROSSBAR_PJ_PER_BIT,
    LINK_PJ_PER_BIT_PER_MM,
    ROUTER_LEAKAGE_MW,
    event_energies_pj,
)
from repro.photonics.constants import (
    BUFFER_READ_PJ_PER_BIT,
    BUFFER_WRITE_PJ_PER_BIT,
    CYCLE_TIME_PS,
    HOP_LENGTH_MM,
    NIC_LEAKAGE_MW,
)
from repro.sim.stats import NetworkStats


class TestEnergyEvents:
    def test_buffer_write_energy(self):
        assert event_energies_pj(64)["buffer_write"] == pytest.approx(
            640 * BUFFER_WRITE_PJ_PER_BIT
        )

    def test_allocation_energy_fixed(self):
        assert event_energies_pj(64)["allocation"] == ALLOCATION_PJ_PER_CYCLE

    @pytest.mark.parametrize("routers", [16, 64, 1024])
    def test_each_price_is_its_constant_expression(self, routers):
        assert event_energies_pj(routers) == {
            "buffer_write": 640 * BUFFER_WRITE_PJ_PER_BIT,
            "buffer_read": 640 * BUFFER_READ_PJ_PER_BIT,
            "crossbar": 640 * CROSSBAR_PJ_PER_BIT,
            "link": 640 * LINK_PJ_PER_BIT_PER_MM * HOP_LENGTH_MM,
            "allocation": ALLOCATION_PJ_PER_CYCLE,
            "leakage": (ROUTER_LEAKAGE_MW + NIC_LEAKAGE_MW)
            * CYCLE_TIME_PS
            * 1e-3
            * routers,
        }

    def test_a_link_is_one_node_pitch(self):
        assert event_energies_pj(64)["link"] == pytest.approx(
            640 * LINK_PJ_PER_BIT_PER_MM * 3.5**0.5
        )


class TestLeakage:
    def test_leakage_power_magnitude(self):
        # 64 routers at (9 + 1.5) mW = 672 mW static power.
        stats = NetworkStats()
        stats.energy_pj["leakage"] += event_energies_pj(64)["leakage"]
        stats.final_cycle = 1
        assert stats.average_power_w(250.0) == pytest.approx(0.672, rel=1e-6)
