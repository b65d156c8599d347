"""Grid topologies and their routes (DESIGN.md section 12).

Public surface:

- :class:`Topology` — the grid abstraction the simulators, fault
  scheduler and photonics models consume: links, dimension-order routes
  and broadcast sweeps;
- :class:`Mesh2D`, :class:`Torus2D` — the two grids, named ``mesh`` /
  ``torus`` in the fixed table :data:`TOPOLOGIES`;
- lookups: :func:`check_topology`, :func:`topology_from_name`,
  :func:`topology_for`, :func:`as_topology`, :func:`topology_of`.
"""

from repro.topology.base import Topology, TopologyError
from repro.topology.mesh import Mesh2D
from repro.topology.registry import (
    DEFAULT_TOPOLOGY,
    TOPOLOGIES,
    as_topology,
    check_topology,
    policy_by_name,
    registered_topologies,
    topology_for,
    topology_from_name,
    topology_of,
)
from repro.topology.torus import Torus2D

__all__ = [
    "DEFAULT_TOPOLOGY",
    "Mesh2D",
    "TOPOLOGIES",
    "Topology",
    "TopologyError",
    "Torus2D",
    "as_topology",
    "check_topology",
    "policy_by_name",
    "registered_topologies",
    "topology_for",
    "topology_from_name",
    "topology_of",
]
