"""Tests for the ASCII plotting utility."""

import math

import pytest

from repro.util.geometry import MeshGeometry
from repro.util.plot import MARKERS, AsciiPlot, plot_latency_curves, render_heatmap


class TestAsciiPlot:
    def test_renders_series_markers(self):
        plot = AsciiPlot(width=20, height=6, title="demo")
        plot.add_series("a", [0, 1, 2], [0, 1, 2])
        plot.add_series("b", [0, 1, 2], [2, 1, 0])
        text = plot.render()
        assert "demo" in text
        assert "o" in text and "x" in text
        assert "o=a" in text and "x=b" in text

    def test_axis_labels_present(self):
        plot = AsciiPlot(width=20, height=6, x_label="rate", y_label="latency")
        plot.add_series("s", [0.0, 0.5], [1.0, 9.0])
        text = plot.render()
        assert "latency vs rate" in text
        assert "9" in text and "1" in text  # y-range labels

    def test_infinite_values_clip_to_top(self):
        plot = AsciiPlot(width=20, height=6)
        plot.add_series("s", [0, 1, 2], [1.0, 2.0, math.inf])
        text = plot.render()
        assert "^" in text

    def test_extremes_land_on_grid_edges(self):
        plot = AsciiPlot(width=20, height=6)
        plot.add_series("s", [0, 10], [0, 100])
        lines = plot.render().splitlines()
        rows = [line for line in lines if "|" in line]
        assert "o" in rows[0]  # max value on top row
        assert "o" in rows[-1]  # min value on bottom row

    def test_constant_series_renders(self):
        plot = AsciiPlot(width=20, height=6)
        plot.add_series("flat", [0, 1, 2], [5.0, 5.0, 5.0])
        assert plot.render()

    def test_empty_plot_rejected(self):
        with pytest.raises(ValueError):
            AsciiPlot(width=20, height=6).render()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            AsciiPlot(width=4, height=2)

    def test_mismatched_series_rejected(self):
        plot = AsciiPlot(width=20, height=6)
        with pytest.raises(ValueError):
            plot.add_series("bad", [1, 2], [1.0])

    def test_series_limit(self):
        plot = AsciiPlot(width=20, height=6)
        for index in range(len(MARKERS)):
            plot.add_series(f"s{index}", [0], [float(index)])
        with pytest.raises(ValueError):
            plot.add_series("one-too-many", [0], [0.0])


class TestLatencyCurvePlot:
    def test_plots_latency_points(self):
        from repro.harness.sweeps import LatencyPoint

        curves = {
            "Optical4": [
                LatencyPoint(0.1, 2.0, 0.1, 100),
                LatencyPoint(0.4, math.inf, 0.4, 50),
            ],
            "Electrical3": [
                LatencyPoint(0.1, 18.0, 0.1, 100),
                LatencyPoint(0.5, 40.0, 0.4, 300),
            ],
        }
        text = plot_latency_curves(curves, title="Fig 9 panel")
        assert "Fig 9 panel" in text
        assert "o=Optical4" in text
        assert "^" in text  # the saturated optical point


class TestRenderHeatmap:
    def test_mapping_and_dense_sequence_agree(self):
        mesh = MeshGeometry(2, 2)
        as_mapping = render_heatmap({3: 10, 0: 1}, mesh, title="t")
        as_sequence = render_heatmap([1.0, 0.0, 0.0, 10.0], mesh, title="t")
        assert as_mapping == as_sequence
        assert as_mapping.splitlines()[1][1] == "@"  # node 3 top-right

    def test_dense_sequence_length_validated(self):
        with pytest.raises(ValueError, match="4 per-node values"):
            render_heatmap([1.0, 2.0], MeshGeometry(2, 2))

    def test_default_title_carries_peak(self):
        text = render_heatmap([0.0, 0.0, 0.0, 2.5], MeshGeometry(2, 2))
        assert text.splitlines()[0] == "heatmap (2x2 mesh), peak=2.5"

    def test_renders_mesh_shape_with_row_0_at_the_bottom(self):
        values = [0.0] * 12
        values[1] = 1.0  # (1, 0): bottom row, second column
        lines = render_heatmap(values, MeshGeometry(4, 3), title="t").splitlines()
        assert lines == ["t", "    ", "    ", " @  "]

    def test_an_all_zero_map_is_blank(self):
        lines = render_heatmap({}, MeshGeometry(2, 2)).splitlines()
        assert lines == ["heatmap (2x2 mesh), peak=0", "  ", "  "]
