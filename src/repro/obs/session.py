"""Per-run observability: the one observer a run attaches.

:class:`ObsSession` translates an :class:`~repro.obs.config.ObsConfig`
into at most two tracers on the network's hub (the trace file writer and
one :class:`~repro.obs.tracers.EventTally`) and at most one engine
watcher: the session itself.  As that watcher it keeps the window clock
and does the per-cycle occupancy sweep; at each boundary it hands the
closed window to plain reducers, in this order:

1. the :class:`~repro.obs.timeseries.SeriesBuilder` (every
   ``metrics_interval`` cycles), whose window the stream writer records;
2. the :class:`~repro.obs.health.HealthMonitor` (every
   ``effective_health_interval`` cycles), whose findings the stream
   writer records;
3. the progress sink (see :meth:`ObsSession.report_progress`).

A session built from ``None`` (or an all-off config) attaches nothing, so
the uninstrumented path is exactly the pre-observability code path; a
trace-only session attaches the file tracer and no watcher.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.config import ObsConfig
from repro.obs.export import JsonlStreamWriter
from repro.obs.health import HealthMonitor, HealthReport
from repro.obs.timeseries import SeriesBuilder, TimeSeries
from repro.obs.tracers import ChromeTraceWriter, EventTally, JsonlTraceWriter, sampled


@dataclass(frozen=True)
class ProgressSample:
    """A point-in-time snapshot of a running simulation.

    Emitted to a :data:`ProgressSink` at fixed cycle intervals (and once
    more with ``done=True`` when the run completes), read-only over the
    simulator's live state.  ``cycles_total`` is the planned injection
    span; ``cycle`` may exceed it while a trace run drains.
    """

    cycle: int
    cycles_total: int
    generated: int
    delivered: int
    dropped: int
    flits: int
    worst_node: int
    worst_occupancy: int
    health: str | None = None
    done: bool = False


#: Receives intra-run :class:`ProgressSample` snapshots.
ProgressSink = Callable[[ProgressSample], None]


@dataclass
class _Period:
    """One consumer of the window clock: ``close(session, start, end)``
    every ``interval`` cycles, and once more over a trailing partial
    window at the end of the run when ``trailing`` is set.  ``close`` is
    a plain function, not a bound method: a session must not refer to
    itself (see :class:`ObsSession`)."""

    interval: int
    close: Callable[["ObsSession", int, int], None]
    trailing: bool = True
    start: int = 0


class ObsSession:
    """Wires one run's observability up front, collects it at the end.

    The engine owns the session (as its watcher) and the session only
    borrows the engine: no reference cycle, so an observed run's network
    and trace buffers are freed when the run returns, not whenever the
    cycle collector next runs.
    """

    def __init__(
        self,
        config: ObsConfig | None,
        network: Any,
        engine: Any,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.config = config = config or ObsConfig()
        self._network = network
        self._engine = weakref.proxy(engine)
        self._tracer = None
        self._series: SeriesBuilder | None = None
        self._monitor: HealthMonitor | None = None
        self._stream: JsonlStreamWriter | None = None
        self._sink: ProgressSink | None = None
        self._cycles_total = 0
        self._periods: list[_Period] = []
        self._due = 0
        self._occupancy_sum = 0
        self._node_occupancy: list[int] | None = None
        if config.trace_path is not None:
            if config.trace_format == "jsonl":
                # Only the JSONL format is self-describing: its header
                # carries the run identity for post-hoc `repro analyze`.
                writer: Any = JsonlTraceWriter(config.trace_path, meta=meta)
            else:
                writer = ChromeTraceWriter(config.trace_path)
            self._tracer = sampled(writer, config.trace_sample)
            network.add_tracer(self._tracer)
        tally = None
        if config.spatial or config.health:
            tally = EventTally()
            network.add_tracer(tally)
        if config.metrics_interval is not None:
            self._series = SeriesBuilder(
                network, config.metrics_interval, tally if config.spatial else None
            )
            if config.spatial:
                self._node_occupancy = [0] * network.mesh.num_nodes
            self._every(config.metrics_interval, ObsSession._close_metrics)
        if config.health:
            assert tally is not None
            self._monitor = HealthMonitor(
                network,
                tally,
                config.effective_health_interval,
                config.health_stall_windows,
            )
            self._every(
                config.effective_health_interval, ObsSession._close_health
            )
        if config.stream_path is not None:
            self._stream = JsonlStreamWriter(config.stream_path)

    def report_progress(self, sink: ProgressSink, cycles_total: int) -> None:
        """Feed ``sink`` a :class:`ProgressSample` at each metrics-window
        boundary (every twentieth of ``cycles_total`` without a metrics
        window), and a final ``done=True`` one from :meth:`finish`."""
        self._sink = sink
        self._cycles_total = cycles_total
        interval = self.config.metrics_interval or max(1, cycles_total // 20)
        self._every(interval, ObsSession._sample_progress, trailing=False)

    def finish(self) -> tuple[TimeSeries | None, HealthReport | None]:
        """Close the trailing partial windows, then all sinks (the last
        health window's findings go to the trace too); return (time series,
        health report)."""
        final_cycle = self._engine.cycle
        for period in self._periods:
            if period.trailing and final_cycle > period.start:
                period.close(self, period.start, final_cycle)
        if self._tracer is not None:
            self._tracer.close()
        health = self._monitor.report if self._monitor is not None else None
        if self._stream is not None:
            summary: dict[str, Any] = {"final_cycle": final_cycle}
            if health is not None:
                summary["health"] = health.status
            self._stream.close(summary)
        if self._sink is not None:
            self._sample_progress(final_cycle, final_cycle, done=True)
        return (
            self._series.series if self._series is not None else None,
            health,
        )

    # -- the engine watcher: one clock, one sweep ------------------------------

    def _every(
        self,
        interval: int,
        close: Callable[["ObsSession", int, int], None],
        trailing: bool = True,
    ) -> None:
        """Put ``close`` on the window clock; attach the clock on first use."""
        if not self._periods:
            self._engine.add_watcher(self)
        self._periods.append(_Period(interval, close, trailing))
        self._due = min(period.start + period.interval for period in self._periods)

    def __call__(self, cycle: int) -> None:
        """Per-cycle hook; ``cycle`` is the cycle that just committed."""
        if self._series is not None:
            if self._node_occupancy is None:
                self._occupancy_sum += sum(
                    router.occupancy() for router in self._network.routers
                )
            else:
                total = 0
                node_occupancy = self._node_occupancy
                for router in self._network.routers:
                    occupancy = router.occupancy()
                    total += occupancy
                    node_occupancy[router.node] += occupancy
                self._occupancy_sum += total
        end = cycle + 1
        if end >= self._due:
            for period in self._periods:
                if end - period.start >= period.interval:
                    period.close(self, period.start, end)
                    period.start = end
            self._due = min(
                period.start + period.interval for period in self._periods
            )

    def _close_metrics(self, start: int, end: int) -> None:
        assert self._series is not None
        window, spatial_slice = self._series.close(
            start, end, self._occupancy_sum, self._node_occupancy
        )
        self._occupancy_sum = 0
        if self._node_occupancy is not None:
            self._node_occupancy = [0] * len(self._node_occupancy)
        if self._stream is not None:
            self._stream.window(window, spatial_slice)

    def _close_health(self, _start: int, end: int) -> None:
        assert self._monitor is not None
        findings = self._monitor.evaluate(end)
        if self._stream is not None:
            for finding in findings:
                self._stream.finding(finding)

    def _sample_progress(self, _start: int, cycle: int, done: bool = False) -> None:
        assert self._sink is not None
        stats = self._network.stats
        worst_node, worst_occupancy = 0, 0
        for router in self._network.routers:
            occupancy = router.occupancy()
            if occupancy > worst_occupancy:
                worst_node, worst_occupancy = router.node, occupancy
        self._sink(
            ProgressSample(
                cycle=cycle,
                cycles_total=self._cycles_total,
                generated=stats.packets_generated,
                delivered=stats.packets_delivered,
                dropped=stats.packets_dropped,
                flits=stats.flits_processed,
                worst_node=worst_node,
                worst_occupancy=worst_occupancy,
                health=(
                    self._monitor.report.status if self._monitor is not None else None
                ),
                done=done,
            )
        )
