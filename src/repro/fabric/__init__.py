"""The network-fabric backend layer: protocols, backend table, shared bases.

``repro.fabric`` is the seam between the experiment harness and the
network simulators.  The harness constructs every network through
:func:`~repro.fabric.registry.make_network` and types against the
:mod:`~repro.fabric.protocol` protocols; the simulators inherit the shared
lifecycle from :mod:`~repro.fabric.base`.  The four backends —
``phastlane``, ``vectorized``, ``electrical`` and the analytic ``ideal``
reference — are the fixed table ``repro.fabric.registry.BACKENDS``, whose
modules load on first lookup (DESIGN.md section 9).

Import the module that defines a name.  The package loads none of them;
it serves the names ``bench/`` imports from it on first access, until
the bench imports them from their homes (ROADMAP item 1).
"""

from repro import lazy_names

_HOME_OF = {
    "FabricError": "repro.util.errors",
    "IdealConfig": "repro.fabric.ideal",
    "config_kind": "repro.fabric.registry",
    "make_network": "repro.fabric.registry",
}

__getattr__, __dir__ = lazy_names(globals(), _HOME_OF)
