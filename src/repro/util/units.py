"""Unit conventions and decibel conversions.

Internal conventions used consistently across the repository:

- time: picoseconds (ps) for device-level delays, cycles for network-level
  simulation (1 cycle = 250 ps at the 4 GHz clock of the paper);
- distance: millimetres (mm);
- power: watts (W);
- energy: picojoules (pJ).
"""

from __future__ import annotations

import math


def to_db(ratio: float) -> float:
    """Power ratio -> decibels.  ``ratio`` must be positive."""
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    return 10.0 * math.log10(ratio)


def from_db(db: float) -> float:
    """Decibels -> power ratio."""
    return 10.0 ** (db / 10.0)
