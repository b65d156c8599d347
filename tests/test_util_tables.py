"""Tests for ASCII table/series rendering."""

import pytest

from repro.util.tables import AsciiTable, format_series


class TestAsciiTable:
    def test_renders_headers_and_rows(self):
        table = AsciiTable(["name", "value"])
        table.add_row(["hops", 5])
        text = table.render()
        assert "name" in text and "hops" in text and "5" in text

    def test_columns_align(self):
        table = AsciiTable(["a", "bbbb"])
        table.add_row(["xxxxxx", 1])
        lines = table.render().splitlines()
        header, sep, row = lines
        assert header.index("|") == row.index("|")
        assert set(sep) <= {"-", "+"}

    def test_title_is_first_line(self):
        table = AsciiTable(["x"], title="My title")
        assert table.render().splitlines()[0] == "My title"

    def test_row_width_mismatch_rejected(self):
        table = AsciiTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            AsciiTable([])

    def test_float_formatting(self):
        table = AsciiTable(["v"])
        table.add_row([3.14159])
        table.add_row([1e-6])
        table.add_row([0.0])
        text = table.render()
        assert "3.142" in text
        assert "1e-06" in text

    def test_str_equals_render(self):
        table = AsciiTable(["x"])
        table.add_row([1])
        assert str(table) == table.render()


class TestFormatSeries:
    def test_pairs_rendered(self):
        line = format_series("latency", [1, 2], [10.0, 20.0], x_label="rate")
        assert line.startswith("latency [rate]:")
        assert "(1, 10)" in line and "(2, 20)" in line

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_series("s", [1, 2], [1.0])
