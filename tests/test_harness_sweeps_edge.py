"""Edge-case tests for sweep helpers and figure renderers."""

import math

import pytest

from repro.harness.sweeps import (
    LatencyPoint,
    saturation_rate,
    zero_load_latency,
)


def point(rate, latency):
    return LatencyPoint(rate=rate, mean_latency=latency, throughput=0.0, delivered=0)


class TestSweepHelpers:
    def test_all_saturated_zero_load_raises(self):
        points = [point(0.1, math.inf), point(0.2, math.inf)]
        with pytest.raises(ValueError):
            zero_load_latency(points)

    def test_all_saturated_saturation_rate_is_zero(self):
        points = [point(0.1, math.inf)]
        assert saturation_rate(points) == 0.0

    def test_zero_load_uses_lowest_unsaturated_rate(self):
        points = [point(0.3, 5.0), point(0.1, 2.0), point(0.2, 3.0)]
        assert zero_load_latency(points) == 2.0

    def test_saturation_rate_is_highest_unsaturated(self):
        points = [point(0.1, 2.0), point(0.2, 3.0), point(0.3, math.inf)]
        assert saturation_rate(points) == 0.2

    def test_saturated_property(self):
        assert point(0.1, math.inf).saturated
        assert not point(0.1, 5.0).saturated


class TestFig09RenderOptions:
    def test_render_with_plots(self):
        from repro.harness.experiments.fig09 import Figure9, render

        data = Figure9(
            rates=(0.1, 0.2),
            curves={
                "transpose": {
                    "Optical4": [point(0.1, 2.0), point(0.2, 3.0)],
                }
            },
        )
        text = render(data)
        assert "Figure 9 panel: transpose" in text
