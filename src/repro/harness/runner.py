"""Run one network configuration against one workload.

The single entry point is :func:`run`, which executes a frozen
:class:`~repro.harness.exec.RunSpec` and returns a :class:`RunResult` with
wall-time observability attached.  Network construction goes through the
:mod:`repro.fabric` registry — any configuration type with a registered
backend (Phastlane optical, the electrical baseline, the analytic ideal
reference, or an out-of-tree backend) runs through the same paths — so
every experiment treats all implementations uniformly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Any

from repro.fabric import NetworkConfig, make_network
from repro.obs.config import ObsConfig
from repro.obs.health import HealthReport
from repro.obs.session import ObsSession, ProgressSink
from repro.obs.timeseries import TimeSeries
from repro.photonics.constants import CYCLE_TIME_PS
from repro.sim.engine import SimulationEngine
from repro.sim.stats import NetworkStats, SaturationError
from repro.traffic.injection import BernoulliInjector
from repro.traffic.patterns import pattern_by_name
from repro.traffic.splash2 import generate_splash2_trace
from repro.topology import topology_of
from repro.traffic.trace import SyntheticSource, Trace, TraceSource
from repro.util.geometry import MeshGeometry

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.faults.config import FaultConfig
    from repro.harness.exec import RunSpec


@dataclass(frozen=True)
class RunResult:
    """Summary of one simulation run.

    ``wall_time_s``, ``timeseries`` and ``health`` are observability, not
    physics: all are excluded from equality so a cached or parallel run
    compares equal to a fresh serial one.  Wall time belongs to the
    campaign manifest; :func:`repro.harness.report.result_to_dict`
    serialises the time series and health report (when collected) but
    omits it.
    """

    label: str
    workload: str
    cycles: int
    stats: NetworkStats
    drained: bool
    wall_time_s: float = field(default=0.0, compare=False)
    timeseries: TimeSeries | None = field(default=None, compare=False)
    health: HealthReport | None = field(default=None, compare=False)

    @property
    def mean_latency(self) -> float:
        return self.stats.mean_latency

    @property
    def power_w(self) -> float:
        return self.stats.average_power_w(CYCLE_TIME_PS)

    @property
    def packets_per_second(self) -> float:
        """Simulation throughput: packets generated per wall-clock second."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.stats.packets_generated / self.wall_time_s

    def throughput(self, num_nodes: int) -> float:
        return self.stats.throughput(num_nodes)

    def summary(self) -> dict[str, float]:
        return {
            "mean_latency_cycles": self.mean_latency,
            "power_w": self.power_w,
            "delivered": self.stats.packets_delivered,
            "dropped": self.stats.packets_dropped,
            "retransmissions": self.stats.retransmissions,
            "delivery_ratio": self.stats.delivery_ratio,
        }


def run(spec: "RunSpec", progress: ProgressSink | None = None) -> RunResult:
    """Execute one :class:`~repro.harness.exec.RunSpec`.

    The single entry point for all workload kinds; dispatches on the spec's
    workload type and stamps the result with its wall time.  ``progress``,
    when given, receives intra-run
    :class:`~repro.obs.session.ProgressSample` snapshots at a
    fixed cycle cadence (plus a final ``done=True`` sample).
    """
    from repro.harness.exec import (
        Splash2Workload,
        SyntheticWorkload,
        TraceFileWorkload,
    )

    started = time.perf_counter()
    workload = spec.workload
    # Only traced runs pay for the digest in the header metadata.
    traced = spec.obs is not None and spec.obs.trace_path is not None
    meta = _trace_meta(spec) if traced else None
    if isinstance(workload, SyntheticWorkload):
        result = _execute_synthetic(
            spec.config,
            workload.pattern,
            workload.rate,
            cycles=spec.cycles,
            warmup=spec.warmup,
            seed=spec.seed,
            obs=spec.obs,
            faults=spec.faults,
            progress=progress,
            meta=meta,
        )
    elif isinstance(workload, Splash2Workload):
        mesh = spec.config.mesh
        trace = _splash2_trace(
            workload.benchmark, mesh.width, mesh.height, spec.seed, spec.cycles
        )
        result = _execute_trace(
            spec.config, trace, spec.max_drain_cycles, spec.obs, spec.faults,
            progress=progress, meta=meta,
        )
    elif isinstance(workload, TraceFileWorkload):
        trace = Trace.load(workload.path)
        result = _execute_trace(
            spec.config, trace, spec.max_drain_cycles, spec.obs, spec.faults,
            progress=progress, meta=meta,
        )
    else:
        raise TypeError(f"unknown workload type {type(workload).__name__}")
    return replace(result, wall_time_s=time.perf_counter() - started)


def _trace_meta(spec: "RunSpec") -> dict[str, Any]:
    """Run identity stamped into the JSONL trace header.

    ``link_delay`` is the backend's per-hop transit cost, which the blame
    analyzer cannot recover from the events alone: Phastlane waves cross
    links within the cycle (0), the electrical baseline pays its
    router/link pipeline per hop.
    """
    return {
        "spec": spec.digest(),
        "label": spec.config.label,
        "workload": spec.workload_name,
        "cycles": spec.cycles,
        "seed": spec.seed,
        "link_delay": getattr(spec.config, "router_delay_cycles", 0),
    }


@lru_cache(maxsize=32)
def _splash2_trace(
    benchmark: str, width: int, height: int, seed: int, duration_cycles: int
) -> Trace:
    """Per-process memo: one generated trace drives many configurations."""
    return generate_splash2_trace(
        benchmark,
        mesh=MeshGeometry(width, height),
        seed=seed,
        duration_cycles=duration_cycles,
    )


def _execute_trace(
    config: NetworkConfig,
    trace: Trace,
    max_drain_cycles: int,
    obs: ObsConfig | None = None,
    faults: "FaultConfig | None" = None,
    progress: ProgressSink | None = None,
    meta: dict[str, Any] | None = None,
) -> RunResult:
    """Replay a trace to completion (injection phase plus full drain)."""
    network = make_network(config, TraceSource(trace), faults=faults)
    engine = SimulationEngine()
    engine.register(network)
    session = ObsSession(obs, network, engine, meta=meta)
    if progress is not None:
        session.report_progress(progress, trace.last_cycle + 1)
    engine.run(trace.last_cycle + 1)
    drained = engine.run_until(
        lambda: network.idle(engine.cycle), max_drain_cycles
    )
    timeseries, health = session.finish()
    if not drained:
        raise SaturationError(
            f"{config.label} failed to drain trace {trace.name!r} "
            f"within {max_drain_cycles} extra cycles"
        )
    return RunResult(
        label=config.label,
        workload=trace.name,
        cycles=engine.cycle,
        stats=network.stats,
        drained=drained,
        timeseries=timeseries,
        health=health,
    )


def _execute_synthetic(
    config: NetworkConfig,
    pattern: str,
    rate: float,
    cycles: int,
    warmup: int | None,
    seed: int,
    obs: ObsConfig | None = None,
    faults: "FaultConfig | None" = None,
    progress: ProgressSink | None = None,
    meta: dict[str, Any] | None = None,
) -> RunResult:
    """Open-loop synthetic run: Bernoulli injection at ``rate`` per node.

    The network keeps injecting for the full ``cycles`` window (no drain);
    latency is measured only for packets generated after the warm-up, the
    standard interconnection-network measurement methodology.
    """
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    warmup = cycles // 5 if warmup is None else warmup
    source = SyntheticSource(
        pattern_by_name(pattern, topology_of(config)),
        lambda: BernoulliInjector(rate),
        seed=seed,
        stop_cycle=cycles,
    )
    stats = NetworkStats(measurement_start=warmup)
    network = make_network(config, source, stats, faults=faults)
    engine = SimulationEngine()
    engine.register(network)
    session = ObsSession(obs, network, engine, meta=meta)
    if progress is not None:
        session.report_progress(progress, cycles)
    engine.run(cycles)
    timeseries, health = session.finish()
    return RunResult(
        label=config.label,
        workload=f"{pattern}@{rate:g}",
        cycles=engine.cycle,
        stats=network.stats,
        drained=network.idle(engine.cycle),
        timeseries=timeseries,
        health=health,
    )
