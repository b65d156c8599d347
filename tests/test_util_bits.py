"""Unit and property tests for the bit-permutation helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bits import (
    bit_complement,
    bit_reverse,
    bit_width,
    shuffle_bits,
    transpose_bits,
)

WIDTH = 6  # 64 nodes
addresses = st.integers(min_value=0, max_value=(1 << WIDTH) - 1)


class TestBitWidth:
    def test_powers_of_two(self):
        assert bit_width(64) == 6
        assert bit_width(2) == 1

    def test_non_power_rounds_up(self):
        assert bit_width(65) == 7
        assert bit_width(63) == 6

    def test_single_value_needs_no_bits(self):
        assert bit_width(1) == 0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            bit_width(0)


class TestKnownValues:
    def test_bit_complement_of_zero_is_all_ones(self):
        assert bit_complement(0, WIDTH) == 63

    def test_bit_reverse_examples(self):
        assert bit_reverse(0b000001, WIDTH) == 0b100000
        assert bit_reverse(0b110000, WIDTH) == 0b000011

    def test_shuffle_rotates_left(self):
        assert shuffle_bits(0b100000, WIDTH) == 0b000001
        assert shuffle_bits(0b000001, WIDTH) == 0b000010

    def test_transpose_swaps_halves(self):
        # (x, y) = (3, 5) -> node 5*8+3; transpose -> (5, 3).
        assert transpose_bits((5 << 3) | 3, WIDTH) == (3 << 3) | 5

    def test_transpose_requires_even_width(self):
        with pytest.raises(ValueError):
            transpose_bits(0, 5)

    def test_out_of_range_address_rejected(self):
        with pytest.raises(ValueError):
            bit_complement(64, WIDTH)
        with pytest.raises(ValueError):
            bit_reverse(-1, WIDTH)


class TestPermutationProperties:
    @given(addresses)
    def test_complement_is_involution(self, addr):
        assert bit_complement(bit_complement(addr, WIDTH), WIDTH) == addr

    @given(addresses)
    def test_reverse_is_involution(self, addr):
        assert bit_reverse(bit_reverse(addr, WIDTH), WIDTH) == addr

    @given(addresses)
    def test_transpose_is_involution(self, addr):
        assert transpose_bits(transpose_bits(addr, WIDTH), WIDTH) == addr

    @given(addresses)
    def test_shuffle_has_order_dividing_width(self, addr):
        value = addr
        for _ in range(WIDTH):
            value = shuffle_bits(value, WIDTH)
        assert value == addr

    @pytest.mark.parametrize(
        "permutation", [bit_complement, bit_reverse, shuffle_bits, transpose_bits]
    )
    def test_is_a_bijection(self, permutation):
        images = {permutation(a, WIDTH) for a in range(1 << WIDTH)}
        assert images == set(range(1 << WIDTH))

    @given(addresses)
    def test_results_stay_in_range(self, addr):
        for permutation in (bit_complement, bit_reverse, shuffle_bits, transpose_bits):
            assert 0 <= permutation(addr, WIDTH) < (1 << WIDTH)
