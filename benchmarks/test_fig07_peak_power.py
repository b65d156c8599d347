"""Figure 7: peak optical power contour."""

import pytest

from conftest import run_once
from repro.harness.experiments import fig07
from repro.photonics.lossbudget import LossBudget


def test_fig07_peak_power(benchmark):
    data = run_once(benchmark, fig07.compute)
    print()
    print(fig07.render(data))
    for (wdm, hops, eta), paper_w in fig07.PAPER_ANCHORS.items():
        assert data.at(wdm, hops, eta).peak_power_w == pytest.approx(
            paper_w, rel=0.05
        )
    # 32 wavelengths need >= 99% efficiency or a 2-3 hop limit.
    assert not data.at(32, 4, 0.98).reasonable
    assert data.at(32, 2, 0.98).reasonable
    assert data.at(32, 4, 0.99).reasonable
    # The calibrated anchor is physically plausible: the bottom-up chain of
    # the cited device losses lands within 5x of it (section 3.2).
    bottom_up = LossBudget().network_peak_power_w(64, 4)
    anchor = data.at(64, 4, 0.98).peak_power_w
    print(f"bottom-up loss chain at the anchor: {bottom_up:.1f} W vs {anchor:.1f} W")
    assert max(bottom_up, anchor) / min(bottom_up, anchor) < 5.0
