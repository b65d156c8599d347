"""Experiment harness: run specs, parallel campaigns, sweeps and figures."""

from repro.fabric import FabricError, make_network
from repro.faults import FaultConfig, FaultSchedule
from repro.harness.exec import (
    CALIBRATION_STAMP,
    Executor,
    ResultCache,
    RunEvent,
    RunSpec,
    Splash2Workload,
    SyntheticWorkload,
    TraceFileWorkload,
)
from repro.harness.runner import RunResult, run
from repro.harness.sweeps import (
    FaultPoint,
    LatencyPoint,
    saturation_rate,
    throughput_vs_fault_rate,
)

__all__ = [
    "CALIBRATION_STAMP",
    "Executor",
    "FabricError",
    "FaultConfig",
    "FaultPoint",
    "FaultSchedule",
    "LatencyPoint",
    "ResultCache",
    "RunEvent",
    "RunResult",
    "RunSpec",
    "Splash2Workload",
    "SyntheticWorkload",
    "TraceFileWorkload",
    "make_network",
    "run",
    "saturation_rate",
    "throughput_vs_fault_rate",
]
