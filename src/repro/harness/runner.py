"""Run one network configuration against one workload.

The single entry point is :func:`run`, which executes a frozen
:class:`~repro.harness.exec.RunSpec` and returns a :class:`RunResult` with
wall-time observability attached.  Network construction goes through the
:mod:`repro.fabric` backend table — Phastlane optical, the electrical
baseline and the analytic ideal reference run through the same paths — so
every experiment treats all implementations uniformly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Any

from repro.fabric.registry import make_network
from repro.obs.health import HealthReport
from repro.obs.session import ObsSession, ProgressSink
from repro.obs.timeseries import TimeSeries
from repro.photonics.constants import CYCLE_TIME_PS
from repro.sim.engine import SimulationEngine
from repro.sim.stats import NetworkStats, SaturationError
from repro.topology.registry import topology_of
from repro.traffic.injection import BernoulliInjector
from repro.traffic.patterns import pattern_by_name
from repro.traffic.splash2 import generate_splash2_trace
from repro.traffic.trace import SyntheticSource, Trace, TraceSource, TrafficSource
from repro.util.geometry import MeshGeometry

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.harness.exec import RunSpec

#: Extra cycles a trace replay may take to drain before it is refused as
#: saturated.
MAX_DRAIN_CYCLES = 200_000


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
    fixed cycle cadence, the last at the run's final cycle.
    """
    from repro.harness.exec import (
        Splash2Workload,
        SyntheticWorkload,
        TraceFileWorkload,
    )

    started = time.perf_counter()
    workload, config = spec.workload, spec.config
    if isinstance(workload, SyntheticWorkload):
        # Open loop: Bernoulli injection at the rate for the whole window and
        # no drain; latency is measured only for packets generated after the
        # warm-up, the standard interconnection-network methodology.
        source: TrafficSource = SyntheticSource(
            pattern_by_name(workload.pattern, topology_of(config)),
            lambda: BernoulliInjector(workload.rate),
            seed=spec.seed,
            stop_cycle=spec.cycles,
        )
        result = _execute(
            spec, source, workload.name, spec.cycles, progress,
            stats=NetworkStats(measurement_start=spec.cycles // 5),
        )
    else:
        if isinstance(workload, Splash2Workload):
            trace = _splash2_trace(
                workload.benchmark, config.mesh, spec.seed, spec.cycles
            )
        elif isinstance(workload, TraceFileWorkload):
            trace = Trace.load(workload.path)
        else:
            raise TypeError(f"unknown workload type {type(workload).__name__}")
        result = _execute(
            spec, TraceSource(trace), trace.name, trace.last_cycle + 1, progress,
            drain=True,
        )
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
    benchmark: str, mesh: MeshGeometry, seed: int, duration_cycles: int
) -> Trace:
    """Per-process memo: one generated trace drives many configurations."""
    return generate_splash2_trace(
        benchmark, mesh=mesh, seed=seed, duration_cycles=duration_cycles
    )


def _execute(
    spec: "RunSpec",
    source: TrafficSource,
    workload: str,
    span: int,
    progress: ProgressSink | None,
    stats: NetworkStats | None = None,
    drain: bool = False,
) -> RunResult:
    """Drive ``source`` through the spec's network for ``span`` cycles, then
    (a trace replay) on until every packet has left it."""
    config = spec.config
    # Only traced runs pay for the digest in the header metadata.
    traced = spec.obs is not None and spec.obs.trace_path is not None
    network = make_network(config, source, stats, faults=spec.faults)
    engine = SimulationEngine()
    engine.register(network)
    session = ObsSession(
        spec.obs, network, engine, meta=_trace_meta(spec) if traced else None
    )
    if progress is not None:
        session.report_progress(progress, span)
    engine.run(span)
    if drain:
        drained = engine.run_until(
            lambda: network.idle(engine.cycle), MAX_DRAIN_CYCLES
        )
    else:
        drained = network.idle(engine.cycle)
    timeseries, health = session.finish()
    if drain and not drained:
        raise SaturationError(
            f"{config.label} failed to drain trace {workload!r} "
            f"within {MAX_DRAIN_CYCLES} extra cycles"
        )
    return RunResult(
        label=config.label,
        workload=workload,
        cycles=engine.cycle,
        stats=network.stats,
        drained=drained,
        timeseries=timeseries,
        health=health,
    )
