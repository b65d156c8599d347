"""Cycle-driven simulation kernel: clocked components, stats, deterministic RNG."""

from repro.sim.engine import Clocked, SimulationEngine
from repro.sim.probes import MeshProbe, attach_probe
from repro.sim.rng import DeterministicRng
from repro.sim.stats import (
    Histogram,
    LatencyStats,
    NetworkStats,
    RunningMean,
    SaturationError,
)

__all__ = [
    "Clocked",
    "DeterministicRng",
    "Histogram",
    "LatencyStats",
    "MeshProbe",
    "NetworkStats",
    "RunningMean",
    "SaturationError",
    "SimulationEngine",
    "attach_probe",
]
