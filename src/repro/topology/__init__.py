"""Pluggable topologies and routing policies (DESIGN.md section 12).

Public surface:

- :class:`Topology` / :class:`GridTopology` — the graph abstraction the
  simulators, fault scheduler and photonics models consume;
- :class:`Mesh2D`, :class:`Torus2D`, :class:`ConcentratedMesh` — the
  built-in families, registered as ``mesh`` / ``torus`` / ``cmesh``;
- :class:`RoutingPolicy` with ``dor`` and ``shortest`` built-ins;
- the registry: :func:`register_topology`, :func:`topology_from_name`,
  :func:`topology_for`, :func:`as_topology`, :func:`topology_of`.
"""

from repro.topology.base import (
    GridTopology,
    Topology,
    TopologyError,
    require_grid,
)
from repro.topology.cmesh import ConcentratedMesh
from repro.topology.mesh import Mesh2D
from repro.topology.policies import (
    DorPolicy,
    RoutingPolicy,
    ShortestPathPolicy,
    policy_by_name,
    register_policy,
    registered_policies,
)
from repro.topology.registry import (
    DEFAULT_TOPOLOGY,
    as_topology,
    register_topology,
    registered_topologies,
    topology_for,
    topology_from_name,
    topology_of,
    unregister_topology,
)
from repro.topology.torus import Torus2D

register_topology("mesh", Mesh2D)
register_topology("torus", Torus2D)
register_topology("cmesh", ConcentratedMesh)

__all__ = [
    "DEFAULT_TOPOLOGY",
    "ConcentratedMesh",
    "DorPolicy",
    "GridTopology",
    "Mesh2D",
    "RoutingPolicy",
    "ShortestPathPolicy",
    "Topology",
    "TopologyError",
    "Torus2D",
    "as_topology",
    "policy_by_name",
    "register_policy",
    "register_topology",
    "registered_policies",
    "registered_topologies",
    "require_grid",
    "topology_for",
    "topology_from_name",
    "topology_of",
    "unregister_topology",
]
