"""Phastlane: the paper's hybrid electrical/optical routing network (section 2).

The public API of the reproduction's primary contribution:

- :class:`PhastlaneConfig` — the Table 1 network configuration;
- :class:`PhastlaneNetwork` — the cycle-accurate flit-level reference
  simulator: the oracle of ``tests/test_differential.py`` and nothing else
  (every ``PhastlaneConfig`` is run, bit for bit, by :mod:`repro.vectorized`;
  see DESIGN.md section 9);
- :func:`build_plan` / :func:`broadcast_plans` — predecoded source routes;
- :class:`PhastlaneRouter` — electrical buffers + rotating-priority arbiter;
- :class:`OpticalPacket` — a single-flit cache-line packet with its control
  groups.
"""

from repro.core.config import PhastlaneConfig
from repro.core.control import (
    ControlGroup,
    decode_control_bits,
    encode_plan,
)
from repro.core.network import PhastlaneNetwork
from repro.core.nic import PhastlaneNic
from repro.core.packet import OpticalPacket
from repro.core.router import PhastlaneRouter
from repro.core.routing import RouteStep, broadcast_plans, build_plan

__all__ = [
    "ControlGroup",
    "OpticalPacket",
    "PhastlaneConfig",
    "PhastlaneNetwork",
    "PhastlaneNic",
    "PhastlaneRouter",
    "RouteStep",
    "broadcast_plans",
    "build_plan",
    "decode_control_bits",
    "encode_plan",
]
