"""Cycle-driven simulation kernel: clocked components, stats, deterministic RNG."""

from importlib import import_module
from typing import TYPE_CHECKING

from repro.sim.engine import Clocked, SimulationEngine
from repro.sim.rng import DeterministicRng
from repro.sim.stats import (
    Histogram,
    LatencyStats,
    NetworkStats,
    RunningMean,
    SaturationError,
)

if TYPE_CHECKING:  # pragma: no cover - what type checkers and IDEs see
    from repro.sim.probes import MeshProbe, attach_probe

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


def __getattr__(name: str) -> object:
    # The probes sit on ``repro.obs``; importing them on first access (PEP
    # 562) keeps the observability package out of every command that only
    # reaches this package for its RNG, stats or engine (``--help``).
    if name not in ("MeshProbe", "attach_probe"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module("repro.sim.probes"), name)
    globals()[name] = value
    return value
