"""Windowed time-series metrics: rates, occupancy and latency percentiles.

A :class:`SeriesBuilder` is the reducer :class:`~repro.obs.session.ObsSession`
feeds at each metrics-window boundary: it differences the run's
:class:`~repro.sim.stats.NetworkStats` counters against the previous
boundary and appends one :class:`Window` — per-window
injection/delivery/drop/retransmit counts, mean total buffer occupancy,
and p50/p95/p99 latency of the packets *measured in that window*.  The
result is a :class:`TimeSeries` that serialises losslessly into the JSON
report, which is what the latency-over-time and drop-storm plots of the
paper's section 5 analysis need.

Handed the session's :class:`~repro.obs.tracers.EventTally`, the builder
additionally keeps the *where*: a :class:`SpatialSeries` of per-router
mean occupancy, drops and deliveries per window.  That turns the probes'
ASCII-only congestion heatmaps into a JSON time series that lands in the
same report file as the windowed metrics.

The builder is strictly read-only over the network (the no-perturbation
invariant): it copies counters, never writes simulator state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.obs.tracers import EventTally
from repro.sim.stats import nearest_rank

#: Percentiles reported per window, as (field suffix, p) pairs.
_PERCENTILES = (("p50", 50.0), ("p95", 95.0), ("p99", 99.0), ("p999", 99.9))


@dataclass(frozen=True)
class Window:
    """Aggregates over one ``[start, end)`` cycle window."""

    start: int
    end: int
    generated: int
    injected: int
    delivered: int
    dropped: int
    retransmitted: int
    #: Mean over the window of the summed buffer occupancy of all routers.
    mean_occupancy: float
    #: Latency percentiles (cycles) of packets measured in this window;
    #: ``None`` when the window measured no deliveries.
    latency_p50: int | None
    latency_p95: int | None
    latency_p99: int | None
    #: Fault-injection activity (both zero for fault-free runs): faults
    #: that fired in this window, and packets lost to exhausted retries.
    faulted: int = 0
    lost: int = 0
    #: p99.9 tail latency, ``None`` like its siblings.
    latency_p999: int | None = None

    @property
    def cycles(self) -> int:
        return self.end - self.start

    def rate(self, counter: str) -> float:
        """A counter as a per-cycle rate over this window."""
        if counter not in _WINDOW_COUNTERS:
            raise ValueError(
                f"unknown counter {counter!r}; "
                f"expected one of {tuple(_WINDOW_COUNTERS)}"
            )
        return getattr(self, counter) / self.cycles if self.cycles else 0.0


#: The window's counter fields, and the stats counter each one differences.
_WINDOW_COUNTERS = {
    "generated": "packets_generated",
    "injected": "packets_injected",
    "delivered": "packets_delivered",
    "dropped": "packets_dropped",
    "retransmitted": "retransmissions",
    "faulted": "faults_injected",
    "lost": "packets_lost",
}


@dataclass
class SpatialSeries:
    """Per-router telemetry aligned window-for-window with a time series.

    Each list holds one entry per closed window; each entry is a dense
    per-node list in node order (node = ``y * width + x``).  ``occupancy``
    is the mean buffer occupancy of each router over the window;
    ``drops``/``deliveries`` are the event counts attributed to the router
    where they physically happened.  Feed one slice to
    :func:`repro.util.plot.render_heatmap` to see the congestion map at
    that moment of the run; sum the slices for the whole run's.
    """

    width: int
    height: int
    occupancy: list[list[float]] = field(default_factory=list)
    drops: list[list[int]] = field(default_factory=list)
    deliveries: list[list[int]] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def to_dict(self) -> dict[str, Any]:
        return {
            "mesh": [self.width, self.height],
            "occupancy": self.occupancy,
            "drops": self.drops,
            "deliveries": self.deliveries,
        }

@dataclass
class TimeSeries:
    """An ordered list of :class:`Window` records at a fixed interval.

    ``spatial``, when collected, carries the per-router companion series
    (same window boundaries); it serialises under a ``"spatial"`` key that
    is simply absent for non-spatial runs, so pre-existing payloads stay
    byte-identical.
    """

    interval: int
    windows: list[Window] = field(default_factory=list)
    spatial: SpatialSeries | None = None

    def column(self, name: str) -> list[Any]:
        """One window field across all windows (for plotting)."""
        return [getattr(window, name) for window in self.windows]

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "interval": self.interval,
            "windows": [asdict(window) for window in self.windows],
        }
        if self.spatial is not None:
            payload["spatial"] = self.spatial.to_dict()
        return payload

class SeriesBuilder:
    """Reducer that folds closed windows into a :class:`TimeSeries`.

    :class:`~repro.obs.session.ObsSession` owns the window clock and the
    per-cycle occupancy sweep; at each boundary it calls :meth:`close`
    with the window's occupancy integrals.  Works with any network
    exposing ``stats`` (every backend does); with a ``tally`` it also
    builds the per-router companion series (see :class:`SpatialSeries`)
    and the network must expose ``mesh`` too.
    """

    def __init__(
        self, network: Any, interval: int, tally: EventTally | None = None
    ) -> None:
        self.network = network
        self.series = TimeSeries(interval=interval)
        self._tally = tally
        if tally is not None:
            mesh = network.mesh
            self.series.spatial = SpatialSeries(mesh.width, mesh.height)
        self._last = self._snapshot()

    def _snapshot(self) -> dict[str, Any]:
        stats = self.network.stats
        snapshot: dict[str, Any] = {
            name: getattr(stats, counter)
            for name, counter in _WINDOW_COUNTERS.items()
        }
        snapshot["histogram"] = Counter(dict(stats.latency.histogram.items()))
        if self._tally is not None:
            snapshot["node_drops"] = Counter(self._tally.drops)
            snapshot["node_deliveries"] = Counter(self._tally.deliveries)
        return snapshot

    def close(
        self,
        start: int,
        end: int,
        occupancy_sum: int,
        node_occupancy: list[int] | None = None,
    ) -> tuple[Window, dict[str, Any] | None]:
        """Append the window ``[start, end)``; return it and its spatial slice.

        ``occupancy_sum`` is the summed buffer occupancy of all routers
        over the window's cycles, ``node_occupancy`` the same per router
        (spatial builders only).  The slice is ``None`` without a tally.
        """
        now, last = self._snapshot(), self._last
        self._last = now
        delta_hist = now["histogram"] - last["histogram"]
        delta_count = sum(delta_hist.values())
        pairs = sorted(delta_hist.items())
        cycles = end - start
        window = Window(
            start=start,
            end=end,
            mean_occupancy=occupancy_sum / cycles,
            **{name: now[name] - last[name] for name in _WINDOW_COUNTERS},
            **{
                f"latency_{suffix}": nearest_rank(pairs, delta_count, p)
                if delta_count
                else None
                for suffix, p in _PERCENTILES
            },
        )
        self.series.windows.append(window)
        spatial = self.series.spatial
        if spatial is None or node_occupancy is None:
            return window, None
        nodes = range(spatial.num_nodes)
        spatial_slice = {
            "occupancy": [occupancy / cycles for occupancy in node_occupancy],
            "drops": [
                now["node_drops"][n] - last["node_drops"][n] for n in nodes
            ],
            "deliveries": [
                now["node_deliveries"][n] - last["node_deliveries"][n]
                for n in nodes
            ],
        }
        for name, values in spatial_slice.items():
            getattr(spatial, name).append(values)
        return window, spatial_slice
