"""Tests for the WDM packet layout (Table 1 / Fig 3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.photonics import constants
from repro.photonics.wdm import PacketLayout

DESIGN_POINT = PacketLayout(payload_wdm=64)


class TestChannelPlan:
    """The payload channel: 640 bits over as few waveguides as carry them
    in one cycle."""

    def test_exact_fit(self):
        for wdm in (32, 64, 128, 640):
            assert PacketLayout(payload_wdm=wdm).payload_waveguides * wdm == 640

    def test_rounds_up(self):
        assert PacketLayout(payload_wdm=63).payload_waveguides == 11
        assert PacketLayout(payload_wdm=640).payload_waveguides == 1
        assert PacketLayout(payload_wdm=1000).payload_waveguides == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PacketLayout(payload_wdm=0)

    @given(st.integers(1, 4096))
    def test_capacity_bound(self, wdm):
        waveguides = PacketLayout(payload_wdm=wdm).payload_waveguides
        assert waveguides * wdm >= constants.PACKET_PAYLOAD_BITS
        assert (waveguides - 1) * wdm < constants.PACKET_PAYLOAD_BITS


class TestDesignPointLayout:
    """The Table 1 design point must fall out of the layout maths."""

    def test_payload_ten_waveguides_at_64wdm(self):
        assert DESIGN_POINT.payload_waveguides == 10

    def test_control_two_waveguides_35wdm(self):
        assert DESIGN_POINT.control_waveguides == 2
        assert DESIGN_POINT.control_wdm == 35

    def test_fourteen_control_groups(self):
        # 70 control bits hold 14 five-bit router groups (section 2.1.3).
        assert (
            constants.PACKET_CONTROL_BITS // constants.CONTROL_BITS_PER_ROUTER
            == constants.MAX_CONTROL_GROUPS
            == 14
        )

    def test_twelve_waveguides_per_direction(self):
        assert DESIGN_POINT.waveguides_per_direction == 12


class TestLayoutSweep:
    def test_waveguides_shrink_with_wdm(self):
        w = [PacketLayout(payload_wdm=wdm).payload_waveguides for wdm in (32, 64, 128)]
        assert w == [20, 10, 5]

    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError):
            PacketLayout(payload_wdm=-1)
