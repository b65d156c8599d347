"""Cross-cutting observability: tracing, time-series metrics, health, analytics.

One :class:`~repro.obs.config.ObsConfig` governs every leg and one
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

Import the module that defines a name; the package itself loads none of them.
"""
