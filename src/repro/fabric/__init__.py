"""The network-fabric backend layer: protocols, backend table, shared bases.

``repro.fabric`` is the seam between the experiment harness and the
network simulators.  The harness constructs every network through
:func:`make_network` and types against the :class:`NetworkBackend` /
:class:`NetworkConfig` protocols; the simulators inherit the shared
lifecycle from :class:`MeshNetworkBase` / :class:`BaseNic`.  The four
backends — ``phastlane``, ``vectorized``, ``electrical`` and the analytic
``ideal`` reference — are the fixed table :data:`BACKENDS`, whose modules
load on first lookup (DESIGN.md section 9).
"""

from repro.fabric.base import BaseNic, MeshNetworkBase
from repro.fabric.ideal import IdealConfig, IdealNetwork, IdealNic, IdealPacket
from repro.fabric.protocol import (
    FabricError,
    FabricNic,
    NetworkBackend,
    NetworkConfig,
)
from repro.fabric.registry import (
    BACKENDS,
    config_kind,
    config_type_for,
    make_network,
)

__all__ = [
    "BACKENDS",
    "BaseNic",
    "FabricError",
    "FabricNic",
    "IdealConfig",
    "IdealNetwork",
    "IdealNic",
    "IdealPacket",
    "MeshNetworkBase",
    "NetworkBackend",
    "NetworkConfig",
    "config_kind",
    "config_type_for",
    "make_network",
]
