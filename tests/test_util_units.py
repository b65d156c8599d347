"""Tests for unit conversions."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.units import from_db, to_db


class TestDecibels:
    def test_known_values(self):
        assert to_db(10.0) == pytest.approx(10.0)
        assert to_db(1.0) == pytest.approx(0.0)
        assert from_db(3.0103) == pytest.approx(2.0, rel=1e-4)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_round_trip(self, ratio):
        assert from_db(to_db(ratio)) == pytest.approx(ratio, rel=1e-9)

    def test_non_positive_ratio_rejected(self):
        with pytest.raises(ValueError):
            to_db(0.0)
        with pytest.raises(ValueError):
            to_db(-1.0)

    def test_db_of_square_is_double(self):
        assert to_db(4.0) == pytest.approx(2 * to_db(2.0))
        assert math.isclose(to_db(100.0), 20.0)
