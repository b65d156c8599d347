"""Bit-level helpers used by the synthetic traffic permutations.

The synthetic traffic patterns of Dally & Towles (and of the paper's Fig 9)
are defined as permutations on the bits of the node address; the helpers here
implement those permutations for arbitrary address widths.
"""

from __future__ import annotations


def bit_width(n: int) -> int:
    """Number of bits needed to represent ``n`` distinct values.

    >>> bit_width(64)
    6
    >>> bit_width(1)
    0
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return (n - 1).bit_length()


def _check_address(addr: int, width: int) -> None:
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if addr < 0 or addr >= (1 << width):
        raise ValueError(f"address {addr} out of range for width {width}")


def bit_complement(addr: int, width: int) -> int:
    """Bit Complement permutation: every address bit is inverted.

    Destination d_i = ~s_i.  Node 0 talks to node 2^w - 1, etc.
    """
    _check_address(addr, width)
    return addr ^ ((1 << width) - 1)


def bit_reverse(addr: int, width: int) -> int:
    """Bit Reverse permutation: d_i = s_{w-1-i}."""
    _check_address(addr, width)
    out = 0
    for i in range(width):
        if addr & (1 << i):
            out |= 1 << (width - 1 - i)
    return out


def shuffle_bits(addr: int, width: int) -> int:
    """Perfect shuffle permutation: d_i = s_{(i-1) mod w} (left rotate)."""
    _check_address(addr, width)
    msb = (addr >> (width - 1)) & 1
    return ((addr << 1) | msb) & ((1 << width) - 1)


def transpose_bits(addr: int, width: int) -> int:
    """Matrix transpose permutation: swap the high and low halves of the bits.

    Requires an even ``width`` (square mesh); d_i = s_{(i + w/2) mod w}.
    """
    _check_address(addr, width)
    if width % 2:
        raise ValueError(f"transpose requires an even bit width, got {width}")
    half = width // 2
    lo = addr & ((1 << half) - 1)
    hi = addr >> half
    return (lo << half) | hi
