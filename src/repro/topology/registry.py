"""Name -> topology: the two grids the package has, in a fixed table.

Configs carry the name in their ``topology`` field (``"mesh"`` by
default, normalised away in serialisation so pre-topology digests stay
byte-identical); :func:`check_topology` is the one place a name is
validated, and :func:`topology_of` resolves a config to its shared
topology instance.

Instances are cached per ``(name, mesh)`` — topologies are stateless
apart from internal memo tables, so sharing them across networks,
fault schedules and photonics models is safe and keeps the line tables
warm.
"""

from __future__ import annotations

from functools import lru_cache

from repro.topology.base import Topology, TopologyError
from repro.topology.mesh import Mesh2D
from repro.topology.torus import Torus2D
from repro.util.geometry import Direction, MeshGeometry

#: Every topology a config may name.
TOPOLOGIES: dict[str, type[Topology]] = {"mesh": Mesh2D, "torus": Torus2D}

#: The default topology name configs normalise away.
DEFAULT_TOPOLOGY = "mesh"


def registered_topologies() -> tuple[str, ...]:
    """Topology names, sorted."""
    return tuple(sorted(TOPOLOGIES))


def check_topology(name: str) -> None:
    """Refuse a topology name the package does not have, in one line."""
    if name not in TOPOLOGIES:
        raise TopologyError(
            f"unknown topology {name!r}; known topologies: "
            f"{', '.join(registered_topologies())}"
        )


def topology_from_name(name: str, mesh: MeshGeometry) -> Topology:
    """Instantiate a fresh topology by name."""
    check_topology(name)
    return TOPOLOGIES[name](mesh)


@lru_cache(maxsize=None)
def topology_for(name: str, mesh: MeshGeometry) -> Topology:
    """The shared topology instance for ``(name, mesh)``."""
    return topology_from_name(name, mesh)


def as_topology(obj: "Topology | MeshGeometry") -> Topology:
    """Adapt a bare ``MeshGeometry`` to its ``Mesh2D`` topology.

    Every refactored entry point accepts either, so pre-topology call
    sites (and tests) that pass a ``MeshGeometry`` keep working.
    """
    if isinstance(obj, Topology):
        return obj
    return topology_for(DEFAULT_TOPOLOGY, obj)


def topology_of(config: object) -> Topology:
    """Resolve a network config to its topology instance.

    Reads the config's ``topology`` field when present (configs predating
    the field — or protocol fakes in tests — default to the mesh).
    """
    mesh: MeshGeometry = getattr(config, "mesh")
    return topology_for(str(getattr(config, "topology", DEFAULT_TOPOLOGY)), mesh)


class _DorPolicy:
    """The paper's dimension-order (X-then-Y) routing as a route planner."""

    def plan(
        self, topology: Topology, src: int, dst: int
    ) -> tuple[list[int], list[Direction]]:
        return topology.dor_route(src, dst), topology.dor_directions(src, dst)


def policy_by_name(name: str) -> _DorPolicy:
    """The ``"dor"`` route planner, the one routing the package has.

    Only the benchmark's ``topology.route_us`` probe calls it; it goes
    when that probe is re-pointed (ROADMAP.md, item 1).
    """
    if name != "dor":
        raise TopologyError(
            f"unknown routing policy {name!r}; the one policy is 'dor'"
        )
    return _DorPolicy()
