"""Phastlane: A Rapid Transit Optical Routing Network (ISCA 2009) — reproduction.

A from-scratch Python implementation of the Phastlane hybrid
electrical/optical network-on-chip and everything its evaluation depends
on: the cycle-accurate optical-network simulator, the aggressive electrical
VC-router baseline (iSLIP + VCTM), nanophotonic delay/power/area models,
synthetic and SPLASH2-like workloads, and a harness regenerating every
figure and table of the paper.

Quick start::

    from repro import PhastlaneConfig, RunSpec, SyntheticWorkload, run
    result = run(RunSpec(PhastlaneConfig(), SyntheticWorkload("transpose", 0.1)))
    print(result.mean_latency, result.power_w)

Campaigns (many independent runs) go through the parallel executor::

    from repro import Executor, ResultCache
    results = Executor(workers=4, cache=ResultCache()).map(specs)

Network implementations are backends behind :mod:`repro.fabric`:
``make_network`` builds the simulator of a config type (see DESIGN.md
section 9).
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable

__version__ = "1.1.0"

if TYPE_CHECKING:  # pragma: no cover - what type checkers and IDEs see
    from repro.core.config import PhastlaneConfig
    from repro.electrical.config import ElectricalConfig
    from repro.electrical.network import ElectricalNetwork
    from repro.fabric.ideal import IdealConfig, IdealNetwork
    from repro.fabric.registry import make_network
    from repro.harness.exec import (
        Executor,
        ResultCache,
        RunSpec,
        Splash2Workload,
        SyntheticWorkload,
        TraceFileWorkload,
    )
    from repro.harness.runner import RunResult, run
    from repro.obs.config import ObsConfig
    from repro.sim.engine import SimulationEngine
    from repro.sim.stats import NetworkStats
    from repro.traffic.splash2 import generate_splash2_trace
    from repro.traffic.trace import Trace, TraceEvent
    from repro.util.errors import FabricError
    from repro.util.geometry import MeshGeometry

#: Where each public name lives.  ``import repro`` loads none of these: a
#: name is imported on first access (PEP 562), so ``python -m repro --help``
#: and ``repro analyze`` never pay for numpy or a simulator they do not run.
_HOME_OF = {
    "ElectricalConfig": "repro.electrical.config",
    "ElectricalNetwork": "repro.electrical.network",
    "Executor": "repro.harness.exec",
    "FabricError": "repro.util.errors",
    "IdealConfig": "repro.fabric.ideal",
    "IdealNetwork": "repro.fabric.ideal",
    "MeshGeometry": "repro.util.geometry",
    "NetworkStats": "repro.sim.stats",
    "ObsConfig": "repro.obs.config",
    "PhastlaneConfig": "repro.core.config",
    "ResultCache": "repro.harness.exec",
    "RunResult": "repro.harness.runner",
    "RunSpec": "repro.harness.exec",
    "SimulationEngine": "repro.sim.engine",
    "Splash2Workload": "repro.harness.exec",
    "SyntheticWorkload": "repro.harness.exec",
    "Trace": "repro.traffic.trace",
    "TraceEvent": "repro.traffic.trace",
    "TraceFileWorkload": "repro.harness.exec",
    "generate_splash2_trace": "repro.traffic.splash2",
    "make_network": "repro.fabric.registry",
    "run": "repro.harness.runner",
}

__all__ = [
    "ElectricalConfig",
    "ElectricalNetwork",
    "Executor",
    "FabricError",
    "IdealConfig",
    "IdealNetwork",
    "MeshGeometry",
    "NetworkStats",
    "ObsConfig",
    "PhastlaneConfig",
    "ResultCache",
    "RunResult",
    "RunSpec",
    "SimulationEngine",
    "Splash2Workload",
    "SyntheticWorkload",
    "Trace",
    "TraceEvent",
    "TraceFileWorkload",
    "__version__",
    "generate_splash2_trace",
    "make_network",
    "run",
]


def lazy_names(
    namespace: dict[str, Any], home_of: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package whose public
    names load on first access.

    ``namespace`` is the package's ``globals()``; ``home_of`` maps each name
    to the module that defines it.  A resolved name is stored in
    ``namespace``, so later reads bypass the hook.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        if name not in home_of:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(home_of[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home_of})

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_names(globals(), _HOME_OF)
