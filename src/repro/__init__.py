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

Network implementations are pluggable backends behind :mod:`repro.fabric`:
``make_network`` builds whichever simulator is registered for a config
type, and ``register_backend`` adds new ones (see DESIGN.md section 9).
"""

from importlib import import_module
from typing import TYPE_CHECKING

__version__ = "1.1.0"

if TYPE_CHECKING:  # pragma: no cover - what type checkers and IDEs see
    from repro.core.config import PhastlaneConfig
    from repro.core.network import PhastlaneNetwork
    from repro.electrical.config import ElectricalConfig
    from repro.electrical.network import ElectricalNetwork
    from repro.fabric import (
        FabricError,
        IdealConfig,
        IdealNetwork,
        make_network,
        register_backend,
    )
    from repro.harness.exec import (
        Executor,
        ResultCache,
        RunSpec,
        Splash2Workload,
        SyntheticWorkload,
        TraceFileWorkload,
    )
    from repro.harness.runner import RunResult, run
    from repro.obs import ObsConfig
    from repro.sim.engine import SimulationEngine
    from repro.sim.stats import NetworkStats
    from repro.traffic.splash2 import generate_splash2_trace
    from repro.traffic.trace import Trace, TraceEvent
    from repro.util.geometry import MeshGeometry

#: Where each public name lives.  ``import repro`` loads none of these: a
#: name is imported on first access (PEP 562), so ``python -m repro --help``
#: and ``repro analyze`` never pay for numpy or a simulator they do not run.
_HOME_OF = {
    "ElectricalConfig": "repro.electrical.config",
    "ElectricalNetwork": "repro.electrical.network",
    "Executor": "repro.harness.exec",
    "FabricError": "repro.fabric",
    "IdealConfig": "repro.fabric",
    "IdealNetwork": "repro.fabric",
    "MeshGeometry": "repro.util.geometry",
    "NetworkStats": "repro.sim.stats",
    "ObsConfig": "repro.obs",
    "PhastlaneConfig": "repro.core.config",
    "PhastlaneNetwork": "repro.core.network",
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
    "make_network": "repro.fabric",
    "register_backend": "repro.fabric",
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
    "PhastlaneNetwork",
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
    "register_backend",
    "run",
]


def __getattr__(name: str) -> object:
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_HOME_OF[name]), name)
    globals()[name] = value  # resolved once; later reads bypass this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
