"""Grid topologies and their routes (DESIGN.md section 12).

- :mod:`~repro.topology.base` — :class:`~repro.topology.base.Topology`,
  the grid abstraction the simulators, fault scheduler and photonics
  models consume: links, dimension-order routes and broadcast sweeps;
- :mod:`~repro.topology.mesh`, :mod:`~repro.topology.torus` — the two
  grids, named ``mesh`` / ``torus`` in the fixed table
  ``repro.topology.registry.TOPOLOGIES``;
- :mod:`~repro.topology.registry` — the lookups by name, by config and
  by geometry.

Import the module that defines a name.  The package loads none of them;
it serves the names ``bench/`` imports from it on first access, until
the bench imports them from their homes (ROADMAP item 1).
"""

from repro import lazy_names

_HOME_OF = {
    "policy_by_name": "repro.topology.registry",
    "topology_from_name": "repro.topology.registry",
    "topology_of": "repro.topology.registry",
}

__getattr__, __dir__ = lazy_names(globals(), _HOME_OF)
