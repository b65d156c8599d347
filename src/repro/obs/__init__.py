"""Cross-cutting observability: tracing, time-series metrics, health, analytics.

One :class:`ObsConfig` governs every leg and one
:class:`~repro.obs.session.ObsSession` per run attaches them (see its
module docstring for the attach set and the order reducers are fed):

- **packet-lifecycle tracing** — both simulators carry a
  :class:`~repro.obs.events.TraceHub` with explicit emit points (no
  monkeypatching); any :class:`~repro.obs.tracers.Tracer` registered on the
  hub receives each event's five fields, or a
  :class:`~repro.obs.events.PacketEvent` if it overrides ``emit``
  (``generated``, ``injected``, ``hop``, ``blocked``, ``buffered``,
  ``dropped``, ``retransmitted``, ``delivered``).  Exporters write JSONL or
  Chrome ``trace_event`` JSON (loadable in Perfetto / ``chrome://tracing``).
- **windowed time-series metrics** — a
  :class:`~repro.obs.timeseries.SeriesBuilder` folds per-window
  injection/delivery/drop rates, mean buffer occupancy and latency
  percentiles into a :class:`~repro.obs.timeseries.TimeSeries` that
  serialises into the JSON report.
- **runtime health watchdogs** — a :class:`~repro.obs.health.HealthMonitor`
  runs three fixed invariant audits (credit leaks, flit conservation,
  livelock/stall/starvation) at window boundaries, emitting ``health_*``
  trace events and a :class:`~repro.obs.health.HealthReport` in the JSON
  report.
- **live streaming** — a :class:`~repro.obs.export.JsonlStreamWriter`
  tails windows and findings to a file *while the run executes*.
- **causal trace analytics** — :mod:`repro.obs.analysis` reconstructs
  per-packet :class:`~repro.obs.analysis.PacketSpan` records from the
  event stream (in memory or post-hoc from a JSONL trace), decomposes
  each delivered latency into exact wait components, and aggregates them
  into a :class:`~repro.obs.analysis.BlameReport` — per-router/per-link
  cycle attribution, slowest-packet anatomies, tail breakdowns, and
  cross-run diffs (``repro analyze``).

Hard invariant: observability never perturbs simulation results.  Every
hook only *reads* simulator state; with everything disabled the emit points
reduce to a falsy check on an empty hub, and reports are byte-identical to
uninstrumented runs.
"""

from typing import TYPE_CHECKING

from repro import lazy_names

if TYPE_CHECKING:  # pragma: no cover - what type checkers and IDEs see
    from repro.obs.analysis import (
        BlameReport,
        PacketSpan,
        analyze_trace_file,
        diff_reports,
        reconstruct_spans,
        render_diff_markdown,
        render_markdown,
    )
    from repro.obs.config import ObsConfig
    from repro.obs.events import EVENT_KINDS, PacketEvent, TraceHub
    from repro.obs.export import JsonlStreamWriter
    from repro.obs.health import HealthFinding, HealthMonitor, HealthReport
    from repro.obs.live import LiveDashboard
    from repro.obs.session import ObsSession
    from repro.obs.timeseries import SeriesBuilder, SpatialSeries, TimeSeries, Window
    from repro.obs.tracers import (
        TRACE_SCHEMA,
        ChromeTraceWriter,
        CollectingTracer,
        EventTally,
        JsonlTraceWriter,
        Tracer,
        sampled,
    )

_HOME_OF = {
    "BlameReport": "repro.obs.analysis",
    "ChromeTraceWriter": "repro.obs.tracers",
    "CollectingTracer": "repro.obs.tracers",
    "EVENT_KINDS": "repro.obs.events",
    "EventTally": "repro.obs.tracers",
    "HealthFinding": "repro.obs.health",
    "HealthMonitor": "repro.obs.health",
    "HealthReport": "repro.obs.health",
    "JsonlStreamWriter": "repro.obs.export",
    "JsonlTraceWriter": "repro.obs.tracers",
    "LiveDashboard": "repro.obs.live",
    "ObsConfig": "repro.obs.config",
    "ObsSession": "repro.obs.session",
    "PacketEvent": "repro.obs.events",
    "PacketSpan": "repro.obs.analysis",
    "SeriesBuilder": "repro.obs.timeseries",
    "SpatialSeries": "repro.obs.timeseries",
    "TRACE_SCHEMA": "repro.obs.tracers",
    "TimeSeries": "repro.obs.timeseries",
    "TraceHub": "repro.obs.events",
    "Tracer": "repro.obs.tracers",
    "Window": "repro.obs.timeseries",
    "analyze_trace_file": "repro.obs.analysis",
    "diff_reports": "repro.obs.analysis",
    "reconstruct_spans": "repro.obs.analysis",
    "render_diff_markdown": "repro.obs.analysis",
    "render_markdown": "repro.obs.analysis",
    "sampled": "repro.obs.tracers",
}

__all__ = [
    "EVENT_KINDS",
    "TRACE_SCHEMA",
    "BlameReport",
    "ChromeTraceWriter",
    "CollectingTracer",
    "EventTally",
    "HealthFinding",
    "HealthMonitor",
    "HealthReport",
    "JsonlStreamWriter",
    "JsonlTraceWriter",
    "LiveDashboard",
    "ObsConfig",
    "ObsSession",
    "PacketEvent",
    "PacketSpan",
    "SeriesBuilder",
    "SpatialSeries",
    "TimeSeries",
    "TraceHub",
    "Tracer",
    "Window",
    "analyze_trace_file",
    "diff_reports",
    "reconstruct_spans",
    "render_diff_markdown",
    "render_markdown",
    "sampled",
]

__getattr__, __dir__ = lazy_names(globals(), _HOME_OF)
