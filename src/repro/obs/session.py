"""Per-run observability lifecycle: attach, run, collect.

:class:`ObsSession` is the one place the runner touches observability: it
translates an :class:`~repro.obs.config.ObsConfig` into attached tracers,
watchers and watchdogs before the run, and collects their outputs after.
A session built from ``None`` (or an all-off config) attaches nothing, so
the uninstrumented path is exactly the pre-observability code path.
"""

from __future__ import annotations

from typing import Any

from repro.obs.config import ObsConfig
from repro.obs.export import JsonlStreamWriter
from repro.obs.health import HealthMonitor, HealthReport
from repro.obs.timeseries import MetricsWatcher, TimeSeries
from repro.obs.tracers import ChromeTraceWriter, JsonlTraceWriter, sampled


class ObsSession:
    """Wires one run's observability up front, collects it at the end."""

    def __init__(
        self,
        config: ObsConfig | None,
        network: Any,
        engine: Any,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.config = config or ObsConfig()
        self._tracer = None
        self._watcher = None
        self._monitor: HealthMonitor | None = None
        self._stream: JsonlStreamWriter | None = None
        self._engine = engine
        if self.config.trace_path is not None:
            if self.config.trace_format == "jsonl":
                # Only the JSONL format is self-describing: its header
                # carries the run identity for post-hoc `repro analyze`.
                writer: Any = JsonlTraceWriter(self.config.trace_path, meta=meta)
            else:
                writer = ChromeTraceWriter(self.config.trace_path)
            self._tracer = sampled(writer, self.config.trace_sample)
            network.add_tracer(self._tracer)
        if self.config.metrics_interval is not None:
            self._watcher = MetricsWatcher(
                network, self.config.metrics_interval, spatial=self.config.spatial
            )
            engine.add_watcher(self._watcher)
        if self.config.health:
            self._monitor = HealthMonitor(
                network,
                self.config.effective_health_interval,
                stall_windows=self.config.health_stall_windows,
            )
            engine.add_watcher(self._monitor)
        if self.config.stream_path is not None:
            self._stream = JsonlStreamWriter(self.config.stream_path)
            assert self._watcher is not None  # enforced by ObsConfig
            self._watcher.add_listener(self._stream.on_window)
            if self._monitor is not None:
                self._monitor.add_listener(self._stream.on_finding)

    @property
    def health_status(self) -> str | None:
        """The watchdogs' current verdict mid-run (None when disabled)."""
        return self._monitor.status if self._monitor is not None else None

    def finish(self) -> tuple[TimeSeries | None, HealthReport | None]:
        """Close all sinks; return (time series, health report)."""
        if self._tracer is not None:
            self._tracer.close()
        timeseries = (
            self._watcher.finalize(self._engine.cycle)
            if self._watcher is not None
            else None
        )
        health = (
            self._monitor.finalize(self._engine.cycle)
            if self._monitor is not None
            else None
        )
        if self._stream is not None:
            summary: dict[str, Any] = {"final_cycle": self._engine.cycle}
            if health is not None:
                summary["health"] = health.status
            self._stream.close(summary)
        return timeseries, health
