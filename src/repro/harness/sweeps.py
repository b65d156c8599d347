"""Parameter sweeps: latency-vs-injection (Fig 9) and fault-degradation curves.

Each sweep is expressed as a list of :class:`~repro.harness.exec.RunSpec`
and executed through an :class:`~repro.harness.exec.Executor`, so a sweep
parallelises across worker processes and benefits from the on-disk result
cache while producing exactly the serial result stream.  A Fig 9 series
is :func:`sweep_specs`, ``Executor.map`` and :func:`point_from_result`.
The fault-degradation sweep (:func:`throughput_vs_fault_rate`) holds the
workload fixed and sweeps the per-crossing fault probability instead,
measuring how throughput and delivery degrade as devices fail.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.fabric.protocol import NetworkConfig
from repro.faults.config import FaultConfig
from repro.harness.exec import Executor, RunSpec, SyntheticWorkload
from repro.harness.runner import RunResult

#: A measured mean latency above this is treated as past saturation.
LATENCY_CAP_CYCLES = 300.0


@dataclass(frozen=True)
class LatencyPoint:
    """One point of a latency-vs-injection-rate curve."""

    rate: float
    mean_latency: float  # inf when saturated
    throughput: float  # deliveries/node/cycle of the window's packets
    delivered: int

    @property
    def saturated(self) -> bool:
        return self.mean_latency == float("inf")


def point_from_result(
    rate: float, result: RunResult, num_nodes: int
) -> LatencyPoint:
    """Classify one run as a sweep point (saturated points become ``inf``).

    Past saturation a run's latency diverges with the window length; such
    points are reported as ``inf`` (the figure's vertical asymptote) while
    throughput keeps recording the delivered rate.
    """
    stats = result.stats
    if stats.latency.mean.count == 0:
        latency = float("inf")
    else:
        latency = stats.mean_latency
        backlog_ratio = stats.packets_delivered / max(1, stats.packets_generated)
        if latency > LATENCY_CAP_CYCLES or backlog_ratio < 0.75:
            latency = float("inf")
    return LatencyPoint(
        rate=rate,
        mean_latency=latency,
        throughput=result.throughput(num_nodes),
        delivered=stats.packets_delivered,
    )


def sweep_specs(
    config: NetworkConfig,
    pattern: str,
    rates: Sequence[float],
    cycles: int = 1500,
    seed: int = 1,
    faults: FaultConfig | None = None,
) -> list[RunSpec]:
    """The run specs of one Fig 9 series, in rate order."""
    return [
        RunSpec(
            config=config,
            workload=SyntheticWorkload(pattern, rate),
            cycles=cycles,
            seed=seed,
            faults=faults,
        )
        for rate in rates
    ]


def saturation_rate(points: Sequence[LatencyPoint]) -> float:
    """The highest injection rate still under saturation.

    Returns 0.0 when even the lowest swept rate saturates.
    """
    best = 0.0
    for point in points:
        if not point.saturated:
            best = max(best, point.rate)
    return best


def zero_load_latency(points: Sequence[LatencyPoint]) -> float:
    """The latency of the lowest-rate unsaturated point."""
    for point in sorted(points, key=lambda p: p.rate):
        if not point.saturated:
            return point.mean_latency
    raise ValueError("every swept point is saturated")


# -- fault-degradation sweep ---------------------------------------------------


@dataclass(frozen=True)
class FaultPoint:
    """One point of a throughput-vs-fault-rate degradation curve."""

    fault_rate: float  # per-crossing loss probability swept
    throughput: float  # deliveries/node/cycle of the window's packets
    delivered: int
    lost: int  # packets abandoned after exhausting retries
    faults_injected: int
    delivery_ratio: float
    mean_latency: float  # inf when nothing was measured

    def to_dict(self) -> dict[str, object]:
        latency = self.mean_latency
        return {
            "fault_rate": self.fault_rate,
            "throughput": self.throughput,
            "delivered": self.delivered,
            "lost": self.lost,
            "faults_injected": self.faults_injected,
            "delivery_ratio": self.delivery_ratio,
            "mean_latency": None if latency == float("inf") else latency,
        }


def fault_sweep_specs(
    config: NetworkConfig,
    pattern: str,
    rate: float,
    fault_rates: Sequence[float],
    cycles: int = 1500,
    seed: int = 1,
    faults: FaultConfig | None = None,
    swept: str = "link_flip_prob",
) -> list[RunSpec]:
    """Run specs of one degradation curve, in fault-rate order.

    Each spec fixes the workload (pattern + injection rate) and sets the
    fault-model probability ``swept`` (``link_flip_prob`` or
    ``burst_enter_prob``) to each of ``fault_rates``; every other knob
    comes from the ``faults`` template (default: a bare
    :class:`~repro.faults.config.FaultConfig`).  With the default template
    a fault rate of exactly 0.0 produces a fault-free spec — the curve's
    baseline point shares its digest (and cached result) with ordinary
    runs.
    """
    template = faults if faults is not None else FaultConfig()
    return [
        RunSpec(
            config=config,
            workload=SyntheticWorkload(pattern, rate),
            cycles=cycles,
            seed=seed,
            faults=replace(template, **{swept: fault_rate}),
        )
        for fault_rate in fault_rates
    ]


def throughput_vs_fault_rate(
    config: NetworkConfig,
    pattern: str,
    rate: float,
    fault_rates: Sequence[float],
    cycles: int = 1500,
    seed: int = 1,
    faults: FaultConfig | None = None,
    executor: Executor | None = None,
    swept: str = "link_flip_prob",
) -> list[FaultPoint]:
    """One degradation curve: throughput and losses at each fault rate.

    The sweep runs through the standard executor, so it parallelises and
    caches like any campaign (fault configs are part of run-spec identity,
    so every fault rate gets its own cache entry).  ``faults`` and
    ``swept`` are :func:`fault_sweep_specs`'s template and probability.
    """
    executor = executor or Executor()
    results = executor.map(
        fault_sweep_specs(
            config, pattern, rate, fault_rates, cycles, seed, faults, swept
        )
    )
    num_nodes = config.mesh.num_nodes
    points = []
    for fault_rate, result in zip(fault_rates, results):
        stats = result.stats
        points.append(
            FaultPoint(
                fault_rate=fault_rate,
                throughput=result.throughput(num_nodes),
                delivered=stats.packets_delivered,
                lost=stats.packets_lost,
                faults_injected=stats.faults_injected,
                delivery_ratio=stats.delivery_ratio,
                mean_latency=(
                    stats.mean_latency if stats.latency.mean.count else float("inf")
                ),
            )
        )
    return points
