"""Cycle-driven simulation kernel: clocked components, stats, deterministic RNG."""

from repro.sim.engine import Clocked, SimulationEngine
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
    "NetworkStats",
    "RunningMean",
    "SaturationError",
    "SimulationEngine",
]
